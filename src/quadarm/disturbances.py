"""Disturbance channels: drag, ground effect, wind, CoM coupling, lumping.

Each channel is independently switchable; disabled channels contribute
exactly zero to the lumped accelerations delta_a..delta_f.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field

from . import render
from .errors import InvalidParameterError, Record, floats, in_range, ranged
from .model import MassProperties, QuadState


@dataclass(frozen=True)
class DragParams:
    """Per-axis linear drag coefficients for the six velocity states."""

    k: tuple = (0.3729,) * 6  # stored as floats

    def __post_init__(self):
        object.__setattr__(self, "k", floats(  # frozen
            self.k, 6, "need six non-negative finite drag coefficients", "non-negative"))


@dataclass(frozen=True)
class GroundEffectParams(Record):
    rho: float = ranged("positive", 8.6)  # ground-effect coefficient
    r: float = ranged("positive", 0.1905)  # rotor radius, m
    z_min: float = ranged("finite", 0.2)  # altitude clamp floor, m (landing skids keep z > 0)

    def __post_init__(self):
        super().__post_init__()
        # below r*sqrt(rho)/4 the thrust scaling is singular
        singular = self.r * math.sqrt(self.rho) / 4
        if not self.z_min > singular:
            raise InvalidParameterError(
                f"z_min={self.z_min} must exceed the singular altitude {singular:.4f}")


@dataclass(frozen=True)
class WindParams(Record):
    """Sinusoidal gust: offset alpha plus amplitude beta at frequency n.

    The default frequency is quasi-static.  With the stock observer gains
    the disturbance-estimate channel has a dominant pole near 1 rad/s, so
    gusts much faster than ~0.01 rad/s cannot be estimated accurately;
    see the README for the trade-off.
    """

    alpha: float = ranged("finite", 0.1)
    beta: float = ranged("finite", 1.0)
    n: float = ranged("positive", 0.002)  # rad/s


@dataclass(frozen=True)
class DisturbanceFlags(Record):
    drag: bool = ranged("switch", False)
    ground_effect: bool = ranged("switch", False)
    wind: bool = ranged("switch", False)
    com: bool = ranged("switch", False)

    @classmethod
    def all_on(cls):
        return cls(drag=True, ground_effect=True, wind=True, com=True)


@dataclass(frozen=True)
class DisturbanceParams(Record):
    drag: DragParams = field(default_factory=DragParams)
    ground_effect: GroundEffectParams = field(default_factory=GroundEffectParams)
    wind: WindParams = field(default_factory=WindParams)
    # sign convention of the lumped terms exactly as published (the yaw
    # CoM term enters with + and the altitude drag with +); set False for
    # the uniformly-dissipative variant
    strict_signs: bool = ranged("switch", True)


#: the lumped disturbance accelerations and the thrust scaling factor, ``LUMP``'s results
OUTPUTS = ("delta_a", "delta_b", "delta_c", "delta_d", "delta_e", "delta_f", "G")


#: the ``OUTPUTS`` of one lump, in ``DERIVATIVE``'s ``dist`` order
DisturbanceOutputs = namedtuple("DisturbanceOutputs", OUTPUTS, defaults=(0.0,) * 6 + (1.0,))


#: the lumped disturbances delta_a..delta_f and the thrust factor G at the state x1..x12,
#: the last step's accelerations d_x2..d_x12, time t and CoM offset z_G: ``COUPLING`` of
#: the offset (which a closed loop holds over its period), the ``GUST`` at t and ``LUMP``,
#: whose ``neg_mz * v`` is ``-mz * v`` and whose clamp is ``max(x7, z_min)``, bit for bit
COUPLING = "mz = m * z_G\nneg_mz, neg_z_G = -mz, -z_G\n"
GUST = "w = alpha + beta * sin(n * t) if gust else 0.0\n"
LUMP = """\
if com:
    # coupling through the shifted center of mass; the accelerations on the
    # right-hand side are the previous step's, held over the step
    q1, q2, q3 = neg_mz * (d_x12 + x10 * x6), mz * (d_x10 - x12 * x6), mz * (x12 * x4 + x4 * x2)
    q4, q5, q6 = z_G * (x2 ** 2 - x4 ** 2), neg_z_G * (x2 * x6 - d_x4), neg_z_G * (x4 * x6 - d_x2)
else:
    q1 = q2 = q3 = q4 = q5 = q6 = 0.0
# the thrust amplification near the ground
G = 1.0 / (1.0 - rho * (r / (4.0 * (z_min if z_min > x7 else x7))) ** 2) if ground else 1.0
delta_a, delta_b, delta_c = -q1 + k1 * x2 + w, -q2 + k2 * x4 + w, up * q3 + k3 * x6 + w
delta_d, delta_e, delta_f = -q4 + k4 * x8 + w, -q5 + k5 * x10 + w, -q6 + k6 * x12 + w
"""


_LUMP = ("_, x2, _, x4, _, x6, x7, x8, _, x10, _, x12 = s\n"
         "d_x2, d_x4, _, _, d_x10, d_x12 = lagged\n" + COUPLING + GUST + LUMP
         + "return " + ", ".join(OUTPUTS) + "\n")


def lump_constants(params: DisturbanceParams, flags: DisturbanceFlags, m: float) -> dict:
    """The values of the names ``COUPLING``, ``GUST`` and ``LUMP`` read, not assign."""
    # the CoM and drag terms enter with -, but the yaw CoM term and the altitude
    # drag under the published signs; a sign times k*v rounds as signed k times v
    up = 1.0 if params.strict_signs else -1.0
    drag = ([sg * k for sg, k in zip((-1.0, -1.0, -1.0, up, -1.0, -1.0), params.drag.k)]
            if flags.drag else (0.0,) * 6)
    wind, ground = params.wind, params.ground_effect
    return {**{f"k{i}": k for i, k in enumerate(drag, 1)}, "up": up, "m": m, "sin": math.sin,
            "alpha": wind.alpha, "beta": wind.beta, "n": wind.n, "rho": ground.rho,
            "r": ground.r, "z_min": ground.z_min, "com": flags.com, "gust": flags.wind,
            "ground": flags.ground_effect}


def lump_kernel(params: DisturbanceParams, flags: DisturbanceFlags, m: float):
    """``LUMP`` behind ``lump``: ``f(s, lagged, t, z_G) -> OUTPUTS``."""
    return render.kernel("lump", lump_constants(params, flags, m), "s, lagged, t, z_G", _LUMP)


def ground_effect_factor(z: float, p: GroundEffectParams) -> float:
    """Thrust amplification factor near the ground; ->1 as z -> infinity."""
    f = lump_kernel(DisturbanceParams(ground_effect=p), DisturbanceFlags(ground_effect=True), 1.0)
    return DisturbanceOutputs._make(f((0.0,) * 6 + (z,) + (0.0,) * 5, (0.0,) * 6, 0.0, 0.0)).G


def lump(state: QuadState, t: float, params: DisturbanceParams,
         flags: DisturbanceFlags, masses: MassProperties) -> DisturbanceOutputs:
    """Assemble delta_a..delta_f from the enabled channels plus G."""
    in_range("finite", t=t)
    return DisturbanceOutputs._make(lump_kernel(params, flags, masses.m)(
        *state.read(), t, masses.z_G))
