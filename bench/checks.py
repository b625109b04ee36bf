"""Correctness checks for the benchmark's operations.

Every check takes plain outputs (arrays, column names, dicts, paths) and
raises ``CheckError`` naming the first property that does not hold.  Each
one tests a property of the method, or recomputes a quantity apart from
the program; none compares against a stored copy of an earlier output.
"""

from __future__ import annotations

import csv
import math
import os
import re

import numpy as np

#: (position, rate, logged acceleration) column triples of the 12-state model
KINEMATIC_COLUMNS = (
    ("phi", "phi_dot", "acc_phi"), ("theta", "theta_dot", "acc_theta"),
    ("psi", "psi_dot", "acc_psi"), ("z", "z_dot", "acc_z"),
    ("x", "x_dot", "acc_x"), ("y", "y_dot", "acc_y"),
)
#: (measured output, reference) pairs of the four controlled subsystems
TRACKED = (("phi", "ref_roll"), ("theta", "ref_pitch"),
           ("psi", "ref_yaw"), ("z", "ref_z"))
SUBSYSTEMS = ("roll", "pitch", "yaw", "altitude")

Z_TOL_M = 0.05
ANGLE_TOL_DEG = 0.1
ESTIMATION_RATIO = 0.05
REL_TOL = 1e-9


class CheckError(Exception):
    """An operation's output breaks a property it must have."""


def column(arr: np.ndarray, columns, name: str) -> np.ndarray:
    try:
        return arr[:, list(columns).index(name)]
    except ValueError:
        raise CheckError(f"trace has no column {name!r}") from None


def read_csv(path) -> tuple[list, np.ndarray]:
    """Parse a trace CSV with the csv module and numpy, apart from TraceLog."""
    with open(path, newline="", encoding="utf-8") as fh:
        header = next(csv.reader(fh), [])
    values = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return header, values.reshape(-1, len(header))


# --- flight -------------------------------------------------------------

def check_time_grid(arr, columns, duration: float, dt: float) -> None:
    """One row per step plus the initial row, at t = k*dt."""
    n = int(round(duration / dt))
    if arr.shape[0] != n + 1:
        raise CheckError(f"trace has {arr.shape[0]} rows, expected n_steps + 1 = {n + 1}")
    err = np.max(np.abs(column(arr, columns, "t") - np.arange(n + 1) * dt))
    if err > 1e-9:
        raise CheckError(f"t deviates from k*dt by {err:.3g} s")


def check_settled(arr, columns, setpoints: dict) -> None:
    """At the end of the flight each output sits on its set-point."""
    end = arr[-1]
    idx = list(columns).index
    z_err = abs(end[idx("z")] - setpoints["z"])
    if z_err > Z_TOL_M:
        raise CheckError(f"final altitude is {z_err:.4g} m off its set-point")
    for name, key in (("phi", "roll_deg"), ("theta", "pitch_deg"), ("psi", "yaw_deg")):
        err = abs(math.degrees(end[idx(name)]) - setpoints[key])
        if err > ANGLE_TOL_DEG:
            raise CheckError(f"final {name} is {err:.4g} deg off its set-point")


def check_trapezoid(arr, columns, dt: float) -> None:
    """Logged positions equal the trapezoid integral of the logged rates.

    By Euler-Maclaurin the trapezoid rule errs on each step by dt^2/12
    times the change of the rate's derivative across the step, so the
    accumulated error is bounded by dt^2/12 times the total variation of
    the acceleration plus its end values.  The logged accelerations give
    that bound; the factor 2 covers the jumps of the held control input
    at step edges, which the log does not record.
    """
    for pos, rate, acc in KINEMATIC_COLUMNS:
        p, v, a = (column(arr, columns, c) for c in (pos, rate, acc))
        integral = p[0] + np.concatenate(([0.0], np.cumsum(0.5 * dt * (v[1:] + v[:-1]))))
        err = float(np.max(np.abs(p - integral)))
        bound = 2.0 * dt ** 2 / 12.0 * (np.sum(np.abs(np.diff(a))) + 2.0 * np.max(np.abs(a)))
        if not err <= bound + 1e-12:
            raise CheckError(f"{pos} departs from the trapezoid integral of {rate} by "
                             f"{err:.3g}, beyond the O(dt^2) bound {bound:.3g}")


def rotor_squares(U: np.ndarray, k_f: float, k_m: float) -> np.ndarray:
    """Closed-form inverse of the allocation [U1..U4] = M [w1..w4].

    M has rows kf(1,1,1,1), kf(0,-1,0,1), kf(1,0,-1,0), km(1,-1,1,-1), so
    w1+w3 and w2+w4 follow from U1 and U4, and the differences from U3
    and U2.
    """
    u1, u2, u3, u4 = U.T
    odd = 0.5 * (u1 / k_f + u4 / k_m)   # w1 + w3
    even = 0.5 * (u1 / k_f - u4 / k_m)  # w2 + w4
    return np.column_stack([0.5 * (odd + u3 / k_f), 0.5 * (even - u2 / k_f),
                            0.5 * (odd - u3 / k_f), 0.5 * (even + u2 / k_f)])


def check_rotors(arr, columns, k_f: float, k_m: float) -> None:
    """omega_r and rotor_sat agree with the logged generalized inputs."""
    U = np.column_stack([column(arr, columns, f"u_{s}")
                         for s in ("altitude", "roll", "pitch", "yaw")])
    w2 = rotor_squares(U, k_f, k_m)
    scale = float(np.max(np.abs(w2))) or 1.0
    # rounding of a 4x4 solve is ~64 eps relative to the largest square;
    # a square that near zero may clamp either way, and its root is off
    # by at most the root of that rounding
    rounding = 64 * np.finfo(float).eps * scale
    omega = np.sqrt(np.maximum(w2, 0.0))
    omega_r = -omega[:, 0] + omega[:, 1] - omega[:, 2] + omega[:, 3]
    err = np.abs(omega_r - column(arr, columns, "omega_r"))
    tol = 4 * math.sqrt(rounding) + REL_TOL * float(np.max(omega))
    if not np.all(err <= tol):
        k = int(np.argmax(err))
        raise CheckError(f"omega_r at row {k} is off the allocation inverse by {err[k]:.3g}")
    sat = np.any(w2 < 0.0, axis=1)
    borderline = np.min(np.abs(w2), axis=1) <= rounding
    wrong = (sat != (column(arr, columns, "rotor_sat") != 0.0)) & ~borderline
    if np.any(wrong):
        raise CheckError(f"rotor_sat disagrees with the allocation inverse at row "
                         f"{int(np.argmax(wrong))}")


def check_identical(arr, other, what: str) -> None:
    if arr.shape != other.shape or arr.tobytes() != other.tobytes():
        raise CheckError(f"{what} are not bit-identical")


def check_csv_roundtrip(path, columns, arr) -> None:
    header, back = read_csv(path)
    if header != list(columns):
        raise CheckError("CSV header differs from the trace columns")
    check_identical(back, arr, "CSV read-back and in-memory trace")


# --- tune_step ----------------------------------------------------------

def cost_terms(arr, columns, dt: float) -> tuple[float, float]:
    """Tracking and effort integrals of a trace, as the tuner defines them."""
    tracking = sum(float(np.sum((column(arr, columns, r) - column(arr, columns, s)) ** 2) * dt)
                   for s, r in TRACKED)
    effort = sum(float(np.sum(column(arr, columns, f"u_{s}") ** 2) * dt)
                 for s in SUBSYSTEMS)
    return tracking, effort


def _close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def check_cost_report(report: dict, cost: float, weights: dict,
                      tracking: float, effort: float) -> None:
    """The report's terms match a fresh trace and compose the cost."""
    if not report.get("feasible", False):
        raise CheckError("accepted gains are reported infeasible")
    for name, mine in (("tracking", tracking), ("effort", effort)):
        if not _close(report[name], mine):
            raise CheckError(f"reported {name} {report[name]!r} differs from the "
                             f"recomputed {mine!r}")
    total = (weights["tracking"] * report["tracking"]
             + weights["estimation"] * report["estimation"]
             + weights["effort"] * report["effort"]
             + weights["bound_penalty"] * report["bound_violation"])
    if not _close(total, cost):
        raise CheckError(f"cost {cost!r} is not the weighted sum of its terms {total!r}")


def check_box_routh(vector, lower, upper) -> None:
    v = np.asarray(vector, dtype=float)
    if np.any(v < lower) or np.any(v > upper):
        raise CheckError("accepted gains leave the box")
    p1, p2, p3 = v[:3]
    if not (p1 > 0 and p3 > 0 and p1 * p2 > p3):
        raise CheckError(f"accepted observer gains ({p1}, {p2}, {p3}) break the Routh condition")


def probe_pairs(x0, lower, upper, eps_rel: float, eps_floor: float) -> list:
    """The central-difference probe pair of each coordinate."""
    pairs = []
    for i, xi in enumerate(x0):
        eps = max(eps_rel * abs(xi), eps_floor)
        plus, minus = x0.copy(), x0.copy()
        plus[i], minus[i] = min(xi + eps, upper[i]), max(xi - eps, lower[i])
        pairs.append((plus, minus))
    return pairs


def check_tune_step(evaluations, result_vector, result_cost, iterations: int,
                    x0, lower, upper, eps_rel: float, eps_floor: float) -> int:
    """One iteration: a start evaluation, 2n probes, then line-search tries
    along descent directions, the accepted one cheaper than the start.

    ``evaluations`` lists (vector, cost) in call order.  Returns the number
    of line-search tries.
    """
    x0 = np.asarray(x0, dtype=float)
    pairs = probe_pairs(x0, lower, upper, eps_rel, eps_floor)
    if iterations != 1:
        raise CheckError(f"ran {iterations} iterations, expected 1")
    if not evaluations or not np.array_equal(evaluations[0][0], x0):
        raise CheckError("the first evaluation is not the start vector")
    f0 = evaluations[0][1]

    expected = {p.tobytes(): None for pair in pairs for p in pair}
    tries = []
    for vector, cost in evaluations[1:]:
        key = vector.tobytes()
        if key in expected:
            if expected[key] is not None:
                raise CheckError("a probe was evaluated twice")
            expected[key] = cost
        elif np.array_equal(vector, x0):
            raise CheckError("the start vector was evaluated twice")
        else:
            tries.append((vector, cost))
    if any(cost is None for cost in expected.values()):
        raise CheckError("a central-difference probe was never evaluated")
    if len(evaluations) != 1 + len(expected) + len(tries):
        raise CheckError("evaluation count is not 1 + 2n + line-search tries")
    if not tries:
        raise CheckError("no line-search try was evaluated")

    grad = np.array([(expected[p.tobytes()] - expected[m.tobytes()]) / (p[i] - m[i])
                     for i, (p, m) in enumerate(pairs)])
    for vector, _ in tries:
        if not np.dot(grad, vector - x0) < 0:
            raise CheckError("a line-search try is not a descent direction")
    if not result_cost < f0:
        raise CheckError(f"accepted cost {result_cost!r} is not below the start cost {f0!r}")
    if not any(np.array_equal(v, result_vector) and c == result_cost for v, c in tries):
        raise CheckError("the accepted vector is not an evaluated line-search try")
    return len(tries)


# --- replay -------------------------------------------------------------

def check_altitude_truth(f_true_altitude, delta_d, g: float) -> None:
    """The altitude channel's true disturbance is g + delta_d."""
    err = np.max(np.abs(np.asarray(f_true_altitude) - (g + np.asarray(delta_d))))
    if not err <= 1e-9:
        raise CheckError(f"altitude true disturbance differs from g + delta_d by {err:.3g}")


def check_estimation(t, f_true: dict, f_hat: dict, window_start: float) -> None:
    """Late in the flight each observer tracks its true disturbance."""
    late = np.asarray(t) >= window_start
    for name in SUBSYSTEMS:
        err = np.sqrt(np.mean((f_hat[name][late] - f_true[name][late]) ** 2))
        ref = np.sqrt(np.mean(f_true[name][late] ** 2))
        if not err <= ESTIMATION_RATIO * ref:
            raise CheckError(f"{name} estimation error RMS {err:.4g} exceeds "
                             f"{ESTIMATION_RATIO:.0%} of the true RMS {ref:.4g}")


_PLOT_REF = re.compile(r"'([^']*)' using (\d+):(\d+)")


def check_plot_scripts(out_dir, trace_path, columns, expected: int) -> None:
    """``expected`` scripts, each plotting t against existing columns of
    the trace it names."""
    scripts = sorted(f for f in os.listdir(out_dir) if f.endswith(".gp"))
    if len(scripts) != expected:
        raise CheckError(f"{len(scripts)} plot scripts written, expected {expected}")
    t_col = list(columns).index("t") + 1
    for name in scripts:
        with open(os.path.join(out_dir, name), encoding="utf-8") as fh:
            refs = _PLOT_REF.findall(fh.read())
        if not refs:
            raise CheckError(f"{name} plots nothing")
        for path, x, y in refs:
            if os.path.abspath(path) != os.path.abspath(trace_path):
                raise CheckError(f"{name} plots {path}, not the trace")
            if int(x) != t_col or not 1 <= int(y) <= len(columns):
                raise CheckError(f"{name} names column {y}, which the trace does not have")
