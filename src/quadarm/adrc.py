"""Per-subsystem active disturbance rejection: ESO + cancellation + PD.

Four instances run side by side (roll, pitch, yaw, altitude).  Each owns a
three-state linear observer whose third state estimates the subsystem's
total disturbance; the cancellation law divides it out, leaving a double
integrator for the PD loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import render
from .errors import ConfigurationError, InvalidParameterError

ROLL, PITCH, YAW, ALTITUDE = "roll", "pitch", "yaw", "altitude"
SUBSYSTEMS = (ROLL, PITCH, YAW, ALTITUDE)

#: smallest admissible |b_hat|; keeps the cancellation bounded when the
#: altitude effectiveness degenerates near +-90 deg attitude
B_MIN = 0.05


def is_hurwitz(p1: float, p2: float, p3: float) -> bool:
    """Routh condition for s^3 + p1 s^2 + p2 s + p3."""
    return p1 > 0 and p3 > 0 and p1 * p2 > p3


@dataclass(frozen=True)
class EsoGains:
    p1: float = 29.5659
    p2: float = 2907.0
    p3: float = 3000.0

    def __post_init__(self):
        if not is_hurwitz(self.p1, self.p2, self.p3):
            raise ConfigurationError(
                f"observer gains ({self.p1}, {self.p2}, {self.p3}) are not Hurwitz "
                "(need p1>0, p3>0, p1*p2>p3)")

    @classmethod
    def from_bandwidth(cls, omega0: float) -> "EsoGains":
        """Triple pole at -omega0."""
        return cls(3 * omega0, 3 * omega0 ** 2, omega0 ** 3)


@dataclass
class EsoState:
    x1_hat: float = 0.0  # estimated output
    x2_hat: float = 0.0  # estimated rate
    x3_hat: float = 0.0  # estimated total disturbance


@dataclass(frozen=True)
class PdGains:
    kp: float
    kd: float

    def __post_init__(self):
        if not (self.kp > 0 and self.kd > 0):
            raise InvalidParameterError("PD gains must be positive")


def limits(pair) -> tuple[float, float]:
    """``pair`` as an increasing (lower, upper) pair of floats."""
    lower, upper = (float(x) for x in pair)
    if not lower < upper:
        raise InvalidParameterError("expected an increasing [lower, upper] pair")
    return lower, upper


@dataclass(frozen=True)
class SubsystemConfig:
    which: str
    b_hat: float  # control effectiveness (recomputed per step for altitude)
    eso: EsoGains
    pd: PdGains
    u_limits: tuple[float, float]

    def __post_init__(self):
        if self.which not in SUBSYSTEMS:
            raise InvalidParameterError(f"unknown subsystem {self.which!r}")
        if self.which != ALTITUDE and not abs(self.b_hat) >= B_MIN:
            raise InvalidParameterError(f"b_hat of {self.which} is below {B_MIN}")
        limits(self.u_limits)


# The control formulas as text (``render``) in one loop's names: estimates x1..x3
# of the measurement y, last input u, effectiveness b, observer gains p1..p3, PD
# gains kp, kd toward ref and its rate, input limits lo, hi; step dt, h, sixth.
# START, OBSERVE (one RK4 step holding b * u), PD, CANCEL; the altitude B_HAT, CLAMP.
START = "x1, x2, x3 = y, 0.0, 0.0\n"
STEP = "h, sixth = 0.5 * dt, dt / 6.0\n"
OBSERVE = """\
bu = b * u
e = y - x1
ka1, ka2, ka3 = x2 + p1 * e, x3 + p2 * e + bu, p3 * e
e = y - (x1 + h * ka1)
kb1, kb2, kb3 = x2 + h * ka2 + p1 * e, x3 + h * ka3 + p2 * e + bu, p3 * e
e = y - (x1 + h * kb1)
kc1, kc2, kc3 = x2 + h * kb2 + p1 * e, x3 + h * kb3 + p2 * e + bu, p3 * e
e = y - (x1 + dt * kc1)
kd1, kd2, kd3 = x2 + dt * kc2 + p1 * e, x3 + dt * kc3 + p2 * e + bu, p3 * e
x1, x2, x3 = (x1 + sixth * (ka1 + 2.0 * kb1 + 2.0 * kc1 + kd1),
              x2 + sixth * (ka2 + 2.0 * kb2 + 2.0 * kc2 + kd2),
              x3 + sixth * (ka3 + 2.0 * kb3 + 2.0 * kc3 + kd3))
"""
PD = "u0 = kp * (ref - x1) + kd * (rate - x2)\n"
CANCEL = """\
u, saturated = (u0 - x3) / b, False
if u < lo:
    u, saturated = lo, True
elif u > hi:
    u, saturated = hi, True
"""
B_HAT = "b = -(G / m) * cos(theta) * cos(phi)\n"
CLAMP = "clamped = not abs(b) >= b_min\nif clamped:\n    b = (-1.0 if b < 0 else 1.0) * b_min\n"
#: a loop's gains in ``loop_gains`` order, and all the names that are its own
GAINS = ("p1", "p2", "p3", "kp", "kd", "lo", "hi")
OWN = (*GAINS, "b", "ref", "x1", "x2", "x3", "u", "u0", "saturated")


def loop_gains(c: SubsystemConfig) -> tuple:
    """The values of ``GAINS`` for the loop ``c``."""
    return (c.eso.p1, c.eso.p2, c.eso.p3, c.pd.kp, c.pd.kd, *c.u_limits)


def bank_kernel(configs, dt: float):
    """The control texts for loops bound to their ``loop_gains``: ``bank(obs, ys, refs,
    ref_rates, b_hats)``, one entry per loop in each.  An ``obs`` entry (x1_hat, x2_hat,
    x3_hat, u) is advanced (``OBSERVE``), or kept with u None; None is ``START``.
    Returns the new entries and each loop's (u, u0, x3_hat, x1_hat, x2_hat, saturated)."""
    if not 0 < dt < math.inf:  # NaN too
        raise InvalidParameterError("dt must be positive and finite")
    constants = {"dt": dt, "loops": tuple(map(loop_gains, configs))}
    return render.kernel("bank", constants, "obs, ys, refs, ref_rates, b_hats", render.fill("""\
@step
new, signals = [], []
for (p1, p2, p3, kp, kd, lo, hi), o, y, ref, rate, b in zip(
        loops, obs, ys, refs, ref_rates, b_hats):
    if o is None:
        @start
    else:
        x1, x2, x3, u = o
        if u is not None:
            @observe
    @pd
    @cancel
    new.append((x1, x2, x3, u))
    signals += u, u0, x3, x1, x2, saturated
return tuple(new), tuple(signals)
""", step=STEP, start=START, observe=OBSERVE, pd=PD, cancel=CANCEL))


def eso_step(eso: EsoState, y: float, u: float, b_hat: float,
             gains: EsoGains, dt: float) -> EsoState:
    """Advance the observer one step (RK4, measurement held over the step)."""
    # one unlimited loop with unit b_hat: 1.0 * (b_hat * u) is b_hat * u exactly
    loop = SubsystemConfig(ALTITUDE, 1.0, gains, PdGains(1.0, 1.0), (-math.inf, math.inf))
    (obs,), _ = bank_kernel((loop,), dt)(
        ((eso.x1_hat, eso.x2_hat, eso.x3_hat, b_hat * u),), (y,), (0.0,), (0.0,), (1.0,))
    return EsoState(*obs[:3])


def clamp_b_hat(b_hat: float) -> tuple[float, bool]:
    """``CLAMP``: |b_hat| bound away from zero, and whether the clamp engaged."""
    return render.kernel("clamp", {"b_min": B_MIN}, "b", CLAMP + "return b, clamped\n")(b_hat)


def pd(ref: float, ref_rate: float, x1_hat: float, x2_hat: float, gains: PdGains) -> float:
    """``PD``: the law on the estimated states of the reduced double integrator."""
    return render.kernel("pd", {"kp": gains.kp, "kd": gains.kd}, "ref, rate, x1, x2",
                         PD + "return u0\n")(ref, ref_rate, x1_hat, x2_hat)


def b_hat_altitude(phi: float, theta: float, G: float, m: float) -> tuple[float, bool]:
    """``B_HAT`` and ``CLAMP``: -(G/m) cos(theta) cos(phi), clamped."""
    return render.kernel("b_hat", {"b_min": B_MIN, "cos": math.cos}, "phi, theta, G, m",
                         B_HAT + CLAMP + "return b, clamped\n")(phi, theta, G, m)


@dataclass
class StepDiagnostics:
    u: float = 0.0
    u0: float = 0.0
    f_hat: float = 0.0
    x1_hat: float = 0.0
    x2_hat: float = 0.0
    estimation_error: float = 0.0  # y - x1_hat
    saturated: bool = False
    degenerate_b: bool = False


class AdrcController:
    """One subsystem's controller: a bank of one loop, bound on the first
    step at each ``dt``, and the bank entry (x1_hat, x2_hat, x3_hat, u) it
    carries between steps."""

    def __init__(self, config: SubsystemConfig):
        self.config = config
        self.eso = EsoState()
        self._obs = self._bank = self._dt = None  # no measurement, no bank yet

    def step(self, y: float, ref: float, ref_rate: float, dt: float,
             b_hat: float | None = None) -> StepDiagnostics:
        """One control period: observe with the previously applied input,
        then compute the new cancelling control.

        ``b_hat`` overrides the configured effectiveness for this step; the
        observer and the cancellation both use it clamped by ``clamp_b_hat``.
        """
        if dt != self._dt:
            self._bank, self._dt = bank_kernel((self.config,), dt), dt
        b, degenerate = clamp_b_hat(self.config.b_hat if b_hat is None else b_hat)
        (self._obs,), (u, u0, x3, x1, x2, saturated) = self._bank(
            (self._obs,), (y,), (ref,), (ref_rate,), (b,))
        self.eso = EsoState(x1, x2, x3)
        return StepDiagnostics(
            u=u, u0=u0, f_hat=x3, x1_hat=x1, x2_hat=x2, estimation_error=y - x1,
            saturated=saturated, degenerate_b=degenerate,
        )
