"""Per-subsystem active disturbance rejection: ESO + cancellation + PD.

Four instances run side by side (roll, pitch, yaw, altitude).  Each owns a
three-state linear observer whose third state estimates the subsystem's
total disturbance; the cancellation law divides it out, leaving a double
integrator for the PD loop.
"""

from __future__ import annotations

import math
from collections import namedtuple
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
        p = (self.p1, self.p2, self.p3)
        # Hurwitz gains are positive, so the largest is finite only if all are
        if not (is_hurwitz(*p) and max(p) < math.inf):
            raise ConfigurationError(
                f"observer gains {p} are not finite and Hurwitz (need p1>0, p3>0, p1*p2>p3)")

    @classmethod
    def from_bandwidth(cls, omega0: float) -> "EsoGains":
        """Triple pole at -omega0."""
        return cls(3 * omega0, 3 * omega0 ** 2, omega0 ** 3)


#: the estimated output, rate and total disturbance, ``eso_step``'s results
EsoState = namedtuple("EsoState", ("x1_hat", "x2_hat", "x3_hat"), defaults=(0.0,) * 3)


@dataclass(frozen=True)
class PdGains:
    kp: float
    kd: float

    def __post_init__(self):
        if not (self.kp > 0 and self.kd > 0):
            raise InvalidParameterError("PD gains must be positive")
        if not max(self.kp, self.kd) < math.inf:
            raise InvalidParameterError("PD gains must be finite")


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
# START, OBSERVE (one RK4 step holding b * u), PD, CANCEL; the altitude B_HAT at the
# cosines cos_phi, cos_theta of roll and pitch, CLAMP;
# CONTROL, one period: START on the first measurement (k == 0), else OBSERVE; PD, CANCEL.
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
B_HAT = "b = -(G / m) * cos_theta * cos_phi\n"
CLAMP = "clamped = not abs(b) >= b_min\nif clamped:\n    b = (-1.0 if b < 0 else 1.0) * b_min\n"
CONTROL = render.fill("if k:\n    @observe\nelse:\n    @start\n@pd\n@cancel\n",
                      observe=OBSERVE, start=START, pd=PD, cancel=CANCEL)
#: the signals a period returns, in order, each with its name in the control text:
#: a trace record's per-loop columns
SIGNALS = {"u": "u", "u0": "u0", "f_hat": "x3", "x1_hat": "x1", "x2_hat": "x2", "sat": "saturated"}
#: a loop's gains in ``loop_gains`` order, and all the names that are its own
GAINS = ("p1", "p2", "p3", "kp", "kd", "lo", "hi")
OWN = (*GAINS, "b", "ref", *SIGNALS.values())

# the bodies of the kernels below, each joined once
_CONTROL = (CLAMP + STEP + CONTROL
            + f"return (x1, x2, x3, u), ({', '.join(SIGNALS.values())}), clamped\n")
_OBSERVE = STEP + OBSERVE + "return x1, x2, x3\n"
_PD = PD + "return u0\n"
_B_HAT = "cos_phi, cos_theta = cos(phi), cos(theta)\n" + B_HAT + CLAMP + "return b, clamped\n"


def loop_gains(c: SubsystemConfig) -> tuple:
    """The values of ``GAINS`` for the loop ``c``."""
    return (c.eso.p1, c.eso.p2, c.eso.p3, c.pd.kp, c.pd.kd, *c.u_limits)


def check_dt(dt: float) -> float:
    """``dt``, refused unless positive and finite: the one home of that rule."""
    if not 0 < dt < math.inf:  # NaN too
        raise InvalidParameterError("dt must be positive and finite")
    return dt


def control_kernel(config: SubsystemConfig, dt: float):
    """``CLAMP`` and ``CONTROL`` for the loop ``config``: ``f(k, x1, x2, x3, u, y, ref,
    rate, b) -> ((x1, x2, x3, u), (u, u0, x3, x1, x2, saturated), clamped)``."""
    constants = {**dict(zip(GAINS, loop_gains(config))), "dt": check_dt(dt), "b_min": B_MIN}
    return render.kernel("control", constants, "k, x1, x2, x3, u, y, ref, rate, b", _CONTROL)


def eso_step(eso: EsoState, y: float, u: float, b_hat: float,
             gains: EsoGains, dt: float) -> EsoState:
    """``OBSERVE``: advance the observer one step (RK4, measurement held over the step)."""
    constants = {"p1": gains.p1, "p2": gains.p2, "p3": gains.p3, "dt": check_dt(dt)}
    return EsoState._make(render.kernel("observe", constants, "x1, x2, x3, u, y, b", _OBSERVE)(
        *eso, u, y, b_hat))


def pd(ref: float, ref_rate: float, x1_hat: float, x2_hat: float, gains: PdGains) -> float:
    """``PD``: the law on the estimated states of the reduced double integrator."""
    return render.kernel("pd", {"kp": gains.kp, "kd": gains.kd}, "ref, rate, x1, x2",
                         _PD)(ref, ref_rate, x1_hat, x2_hat)


def b_hat_altitude(phi: float, theta: float, G: float, m: float) -> tuple[float, bool]:
    """``B_HAT`` and ``CLAMP``: -(G/m) cos(theta) cos(phi), clamped."""
    return render.kernel("b_hat", {"b_min": B_MIN, "cos": math.cos}, "phi, theta, G, m",
                         _B_HAT)(phi, theta, G, m)


StepDiagnostics = namedtuple("StepDiagnostics", SIGNALS)


class AdrcController:
    """One subsystem's controller at one sample period ``dt``: its
    ``control_kernel``, bound once, and the (x1_hat, x2_hat, x3_hat, u) it
    carries between steps."""

    def __init__(self, config: SubsystemConfig, dt: float):
        self.config = config
        self._k, self._obs, self._control = 0, (0.0, 0.0, 0.0, 0.0), control_kernel(config, dt)

    def step(self, y: float, ref: float, ref_rate: float,
             b_hat: float | None = None) -> StepDiagnostics:
        """One control period: observe with the previously applied input,
        then compute the new cancelling control.

        ``b_hat`` overrides the configured effectiveness for this step; the
        observer and the cancellation both use it clamped by ``CLAMP``.
        """
        self._obs, signals, _ = self._control(self._k, *self._obs, y, ref, ref_rate,
                                              self.config.b_hat if b_hat is None else b_hat)
        self._k += 1
        return StepDiagnostics(*signals)
