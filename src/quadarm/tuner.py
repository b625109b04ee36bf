"""Simulation-in-the-loop gain optimization.

Projected finite-difference gradient descent with backtracking line
search.  The decision vector defaults to the eleven-parameter layout
(three shared observer gains plus a PD pair per subsystem); a twenty
parameter per-subsystem layout is also supported.  Signal requirements
are expressed as piecewise bounds whose integrated excess is penalized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import itemgetter

import numpy as np

from . import adrc
from .disturbances import DisturbanceParams
from .errors import (DivergenceError, InvalidParameterError, QuadArmError, Record, floats,
                     in_range, ranged)
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
    """``vector`` as a float array of as many finite numbers as ``layout`` names."""
    n = len(layout_names(layout))
    return np.array(floats(vector, n, f"the {layout} layout needs {n} finite parameters",
                           "finite"))


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
        if not isinstance(self.segments, (list, tuple)):
            raise InvalidParameterError("bound needs a list of [t_start, t_end, lower, upper] "
                                        "segments")
        segments = tuple(floats(segment, 4, "bound segment needs [t_start, t_end, lower, upper] "
                                "as four numbers") for segment in self.segments)
        object.__setattr__(self, "segments", segments)  # frozen: keep the floats
        for (t0, t1, lo, hi), prev_end in zip(segments, (-math.inf, *(s[1] for s in segments))):
            if not t0 < t1:
                raise InvalidParameterError("bound segment must have t_start < t_end")
            if not lo <= hi:
                raise InvalidParameterError("bound segment needs lower <= upper")
            if not t0 >= prev_end:
                raise InvalidParameterError("bound segments must not overlap")

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
class CostWeights(Record):
    tracking: float = ranged("non-negative", 1.0)
    estimation: float = ranged("non-negative", 1.0)
    effort: float = ranged("non-negative", 0.01)
    bound_penalty: float = ranged("non-negative", 1e3)


@dataclass
class TuneProblem(Record):
    """Gain-tuning problem backed by the closed-loop simulation."""

    scenario: Scenario = field(default_factory=Scenario)
    params: QuadParams = field(default_factory=QuadParams)
    dist_params: DisturbanceParams = field(default_factory=DisturbanceParams)
    weights: CostWeights = field(default_factory=CostWeights)
    bounds: tuple = ()  # of SignalBound
    layout: str = "shared"
    box_lower: np.ndarray | None = None
    box_upper: np.ndarray | None = None

    def __post_init__(self):
        super().__post_init__()
        if not isinstance(self.bounds, (list, tuple)):
            raise InvalidParameterError("bounds must be a list of SignalBound")
        in_range(SignalBound, **{f"bounds[{i}]": bound for i, bound in enumerate(self.bounds)})
        self.bounds = tuple(self.bounds)
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
    t, column = trace.column("t"), trace.column

    def integral(*series) -> float:  # each array's squared integral, added left to right
        total = 0.0
        for x in series:
            total += float(np.sum(x ** 2) * dt)
        return total

    tracking = integral(column("ref_roll") - column("phi"), column("ref_pitch") - column("theta"),
                        column("ref_yaw") - column("psi"), column("ref_z") - column("z"))
    oracle = estimation_oracle(trace, problem.params) if w.estimation > 0 else {}
    estimation = integral(*map(itemgetter("error"), oracle.values()))
    effort = integral(*map(column, map("u_{}".format, adrc.SUBSYSTEMS)))

    violation, violations = 0.0, report["bound_violations"]
    for bound in problem.bounds:
        vb = bound.violation(t, column(bound.signal), dt)
        violations[bound.signal] = violations.get(bound.signal, 0.0) + vb
        violation += vb

    total = (w.tracking * tracking + w.estimation * estimation
             + w.effort * effort + w.bound_penalty * violation)
    report.update(tracking=tracking, estimation=estimation, effort=effort,
                  bound_violation=violation)
    return total, report


@dataclass(frozen=True)
class TuneOptions(Record):
    max_iterations: int = ranged("count", 20)
    fd_eps_rel: float = ranged("positive", 1e-4)
    fd_eps_floor: float = ranged("positive", 1e-6)
    initial_step: float = ranged("positive", 1.0)
    max_backtracks: int = ranged("positive count", 25)
    rel_tol: float = ranged("non-negative", 1e-6)


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
    x = np.array(floats(x0, len(lower), refusal := "initial vector outside box bounds", "finite"))
    if not np.all((lower <= x) & (x <= upper)):
        raise InvalidParameterError(refusal)

    f, report = problem.evaluate(x)
    if not f < SENTINEL_COST:  # NaN too
        raise InvalidParameterError(
            f"initial vector is infeasible: cost {f:.4g} is not below {SENTINEL_COST:g}")

    # per-coordinate scaling so a unit step is comparable across gains of
    # very different magnitude
    scale = np.maximum(np.abs(x), 1e-3)

    history = [(x.copy(), f)]
    iterations, converged = 0, True  # unless the iteration limit ends the descent
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
            break

        step = options.initial_step / max(np.max(np.abs(direction / scale)), 1e-300)
        for _ in range(options.max_backtracks):
            candidate = np.clip(x + step * direction, lower, upper)
            fc, rc = problem.evaluate(candidate)
            if fc < f:
                prev, x, f, report = f, candidate, fc, rc
                break
            step *= 0.5
        else:  # no step lowered the cost
            break
        history.append((x.copy(), f))
        if prev - f < options.rel_tol * max(abs(prev), 1.0):
            break
    else:
        converged = False

    return TuneResult(vector=x, cost=f, report=report, history=history,
                      iterations=iterations, converged=converged)
