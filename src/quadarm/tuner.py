"""Simulation-in-the-loop gain optimization.

Projected finite-difference gradient descent with backtracking line
search.  The decision vector defaults to the eleven-parameter layout
(three shared observer gains plus a PD pair per subsystem); a twenty
parameter per-subsystem layout is also supported.  Signal requirements
are expressed as piecewise bounds whose integrated excess is penalized.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import adrc
from .disturbances import DisturbanceParams
from .errors import DivergenceError, InvalidParameterError, QuadArmError
from .model import QuadParams
from .sim import COLUMNS, ControllerGains, Scenario, estimation_oracle, run

#: finite cost assigned to runs that diverge or cannot be constructed
SENTINEL_COST = 1e12

SHARED_LAYOUT = ("p1", "p2", "p3",
                 "kp_roll", "kd_roll", "kp_pitch", "kd_pitch",
                 "kp_yaw", "kd_yaw", "kp_altitude", "kd_altitude")

PER_SUBSYSTEM_LAYOUT = tuple(
    f"{g}_{s}" for s in adrc.SUBSYSTEMS for g in ("p1", "p2", "p3")
) + SHARED_LAYOUT[3:]

LAYOUTS = {"shared": SHARED_LAYOUT, "per_subsystem": PER_SUBSYSTEM_LAYOUT}


def layout_names(layout: str) -> tuple:
    """The parameter names of ``layout``, in decision-vector order."""
    if not isinstance(layout, str) or layout not in LAYOUTS:
        raise InvalidParameterError(f"unknown layout {layout!r}; expected one of "
                                    + ", ".join(LAYOUTS))
    return LAYOUTS[layout]


def layout_vector(vector, layout: str) -> np.ndarray:
    """``vector`` as a finite float array, checked against the width of ``layout``."""
    n = len(layout_names(layout))
    v = np.asarray(vector, dtype=float)
    if v.shape != (n,) or not np.all(np.isfinite(v)):
        raise InvalidParameterError(f"the {layout} layout needs {n} finite parameters, "
                                    f"got {v.tolist()}")
    return v


def gains_vector(gains: ControllerGains, layout: str = "shared") -> np.ndarray:
    """``gains`` as a decision vector in ``layout`` order."""
    esos = ([gains.eso] if layout == "shared"
            else [gains.eso_for(name) for name in adrc.SUBSYSTEMS])
    pds = [gains.pd_for(name) for name in adrc.SUBSYSTEMS]
    return layout_vector([x for e in esos for x in (e.p1, e.p2, e.p3)]
                         + [x for pd in pds for x in (pd.kp, pd.kd)], layout)


def gains_from_vector(vector, layout: str = "shared") -> ControllerGains:
    """The controller gains a decision vector in ``layout`` order stands for;
    the per-subsystem layout sets an observer override for every subsystem."""
    v = layout_vector(vector, layout).tolist()
    # the observer (p1, p2, p3) triples lead; one PD pair per subsystem follows
    esos = [adrc.EsoGains(*v[i:i + 3]) for i in range(0, len(v) - 2 * len(adrc.SUBSYSTEMS), 3)]
    pd = [adrc.PdGains(*v[i:i + 2]) for i in range(3 * len(esos), len(v), 2)]
    return ControllerGains(
        eso=esos[0],
        eso_overrides=dict(zip(adrc.SUBSYSTEMS, esos)) if len(esos) > 1 else {},
        pd_roll=pd[0], pd_pitch=pd[1], pd_yaw=pd[2], pd_altitude=pd[3],
    )


def table_gains_vector() -> np.ndarray:
    """The stock optimized gain set in the shared eleven-parameter layout."""
    return gains_vector(ControllerGains())


@dataclass(frozen=True)
class SignalBound:
    """Piecewise requirement band on one logged signal."""

    signal: str
    segments: tuple  # of (t_start, t_end, lower, upper), stored as floats

    def __post_init__(self):
        if self.signal not in COLUMNS:
            raise InvalidParameterError(f"unknown bounded signal {self.signal!r}")
        prev_end, segments = -math.inf, []
        for segment in self.segments:
            try:
                t0, t1, lo, hi = segment
            except (TypeError, ValueError):  # not four entries
                raise InvalidParameterError(
                    "bound segment needs [t_start, t_end, lower, upper]") from None
            t0, t1, lo, hi = float(t0), float(t1), float(lo), float(hi)
            if not t0 < t1:
                raise InvalidParameterError("bound segment must have t_start < t_end")
            if not lo <= hi:
                raise InvalidParameterError("bound segment needs lower <= upper")
            if not t0 >= prev_end:
                raise InvalidParameterError("bound segments must not overlap")
            prev_end = t1
            segments.append((t0, t1, lo, hi))
        object.__setattr__(self, "segments", tuple(segments))  # frozen: keep the floats

    def violation(self, t: np.ndarray, values: np.ndarray, dt: float) -> float:
        """Integrated excess of the signal outside the band.  A sample on the
        boundary of two touching segments belongs to the one that starts there."""
        total, starts = 0.0, {segment[0] for segment in self.segments}
        for t0, t1, lo, hi in self.segments:
            mask = (t >= t0) & ((t < t1) if t1 in starts else (t <= t1))
            seg = values[mask]
            excess = np.maximum(seg - hi, 0.0) + np.maximum(lo - seg, 0.0)
            total += float(np.sum(excess) * dt)
        return total


@dataclass(frozen=True)
class CostWeights:
    tracking: float = 1.0
    estimation: float = 1.0
    effort: float = 0.01
    bound_penalty: float = 1e3

    def __post_init__(self):
        if not all(w >= 0 for w in (self.tracking, self.estimation, self.effort,
                                    self.bound_penalty)):
            raise InvalidParameterError("cost weights must be non-negative")


@dataclass
class TuneProblem:
    """Gain-tuning problem backed by the closed-loop simulation."""

    scenario: Scenario = field(default_factory=Scenario)
    params: QuadParams = field(default_factory=QuadParams)
    dist_params: DisturbanceParams = field(default_factory=DisturbanceParams)
    weights: CostWeights = field(default_factory=CostWeights)
    bounds: tuple = ()
    layout: str = "shared"
    box_lower: np.ndarray | None = None
    box_upper: np.ndarray | None = None

    def __post_init__(self):
        n = len(layout_names(self.layout))
        self.box_lower = layout_vector(np.full(n, 1e-3) if self.box_lower is None
                                       else self.box_lower, self.layout)
        self.box_upper = layout_vector(np.full(n, 1e5) if self.box_upper is None
                                       else self.box_upper, self.layout)
        if not np.all(self.box_lower <= self.box_upper):
            raise InvalidParameterError("lower bound exceeds upper bound")

    def evaluate(self, vector) -> tuple[float, dict]:
        return cost(vector, self)


def cost(vector, problem: TuneProblem) -> tuple[float, dict]:
    """Scalar cost of one gain vector plus a per-bound violation report.

    Gains their own objects refuse (a non-Hurwitz observer, a PD gain that
    is not positive) and runs that cannot be made or that diverge map to a
    large finite sentinel, so the optimizer can always compare candidates.
    """
    report: dict = {"bound_violations": {}, "feasible": False}
    try:
        gains = gains_from_vector(vector, problem.layout)
        trace = run(problem.scenario, problem.params, problem.dist_params, gains)
    except DivergenceError as exc:
        report["diverged_at"] = exc.time
        return SENTINEL_COST, report
    except QuadArmError:
        return SENTINEL_COST, report
    report["feasible"] = True

    w = problem.weights
    dt = problem.scenario.dt
    t = trace.column("t")

    tracking = 0.0
    for signal, ref in (("phi", "ref_roll"), ("theta", "ref_pitch"),
                        ("psi", "ref_yaw"), ("z", "ref_z")):
        e = trace.column(ref) - trace.column(signal)
        tracking += float(np.sum(e ** 2) * dt)

    estimation = 0.0
    if w.estimation > 0:
        oracle = estimation_oracle(trace, problem.params)
        for name in adrc.SUBSYSTEMS:
            estimation += float(np.sum(oracle[name]["error"] ** 2) * dt)

    effort = 0.0
    for name in adrc.SUBSYSTEMS:
        u = trace.column(f"u_{name}")
        effort += float(np.sum(u ** 2) * dt)

    violation = 0.0
    for bound in problem.bounds:
        vb = bound.violation(t, trace.column(bound.signal), dt)
        report["bound_violations"][bound.signal] = vb
        violation += vb

    total = (w.tracking * tracking + w.estimation * estimation
             + w.effort * effort + w.bound_penalty * violation)
    report.update(tracking=tracking, estimation=estimation, effort=effort,
                  bound_violation=violation)
    return total, report


@dataclass(frozen=True)
class TuneOptions:
    max_iterations: int = 20
    fd_eps_rel: float = 1e-4
    fd_eps_floor: float = 1e-6
    initial_step: float = 1.0
    max_backtracks: int = 25
    rel_tol: float = 1e-6

    def __post_init__(self):
        for name, least in (("max_iterations", 0), ("max_backtracks", 1)):
            n = getattr(self, name)
            if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < least:
                raise InvalidParameterError(f"{name} must be an integer >= {least}")
        for name, zero_ok in (("fd_eps_rel", False), ("fd_eps_floor", False),
                              ("initial_step", False), ("rel_tol", True)):
            x = getattr(self, name)
            if (isinstance(x, bool) or not isinstance(x, numbers.Real) or not math.isfinite(x)
                    or x < 0 or (x == 0 and not zero_ok)):
                raise InvalidParameterError(
                    f"{name} must be a finite number {'>=' if zero_ok else '>'} 0")


@dataclass
class TuneResult:
    vector: np.ndarray
    cost: float
    report: dict
    history: list  # of (vector, cost) accepted iterates
    iterations: int
    converged: bool


def tune(problem, x0, options: TuneOptions | None = None) -> TuneResult:
    """Projected gradient descent with central differences and backtracking.

    ``problem`` needs ``box_lower``, ``box_upper`` and ``evaluate(vector)``;
    anything satisfying that works (the tests use an analytic fixture).
    The 2n finite-difference probes per iteration are independent of each
    other and safe to evaluate concurrently.
    """
    options = options or TuneOptions()
    lower, upper = np.asarray(problem.box_lower), np.asarray(problem.box_upper)
    x = np.asarray(x0, dtype=float).copy()
    if np.any(x < lower) or np.any(x > upper):
        raise InvalidParameterError("initial vector outside box bounds")

    f, report = problem.evaluate(x)
    if f >= SENTINEL_COST:
        raise InvalidParameterError("initial vector is infeasible")

    # per-coordinate scaling so a unit step is comparable across gains of
    # very different magnitude
    scale = np.maximum(np.abs(x), 1e-3)

    history = [(x.copy(), f)]
    converged = False
    iterations = 0
    for iterations in range(1, options.max_iterations + 1):
        grad = np.zeros_like(x)
        for i in range(len(x)):
            eps = max(options.fd_eps_rel * abs(x[i]), options.fd_eps_floor)
            xp, xm = x.copy(), x.copy()
            xp[i] = min(x[i] + eps, upper[i])
            xm[i] = max(x[i] - eps, lower[i])
            if xp[i] == xm[i]:
                continue
            fp, _ = problem.evaluate(xp)
            fm, _ = problem.evaluate(xm)
            grad[i] = (fp - fm) / (xp[i] - xm[i])

        direction = -grad * scale ** 2  # steepest descent in scaled coords
        if not np.any(direction):
            converged = True
            break

        step = options.initial_step / max(np.max(np.abs(direction / scale)), 1e-300)
        accepted = False
        for _ in range(options.max_backtracks):
            candidate = np.clip(x + step * direction, lower, upper)
            fc, rc = problem.evaluate(candidate)
            if fc < f:
                x, f, report = candidate, fc, rc
                accepted = True
                break
            step *= 0.5

        if not accepted:
            converged = True
            break
        prev = history[-1][1]
        history.append((x.copy(), f))
        if prev - f < options.rel_tol * max(abs(prev), 1.0):
            converged = True
            break

    return TuneResult(vector=x, cost=f, report=report, history=history,
                      iterations=iterations, converged=converged)
