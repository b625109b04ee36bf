"""Rigid-body model of the quadrotor with a 1-DOF prismatic arm.

State convention (12 states): roll phi=x1, pitch theta=x3, yaw psi=x5,
altitude z=x7, translations x=x9, y=x11, with rates at the even indices.
Angles are not wrapped; the controller operates in the small-angle regime.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field
from functools import cached_property
from math import cos, isfinite, sin, sqrt

import numpy as np

from . import render
from .errors import ConfigurationError, InvalidInputError, InvalidParameterError

GRAVITY = 9.81


@dataclass
class QuadState:
    """Full vehicle state plus the previous step's accelerations.

    ``lagged_accel`` stores the six accelerations (dx2, dx4, dx6, dx8,
    dx10, dx12) from the previous integration step.  The center-of-mass
    coupling terms contain accelerations on their right-hand side, which
    would otherwise create an algebraic loop; a one-step lag (O(dt)
    accurate) breaks it.
    """

    vector: np.ndarray = field(default_factory=lambda: np.zeros(12))
    lagged_accel: np.ndarray = field(default_factory=lambda: np.zeros(6))

    def __post_init__(self):
        self.vector = np.asarray(self.vector, dtype=float)
        self.lagged_accel = np.asarray(self.lagged_accel, dtype=float)
        if self.vector.shape != (12,):
            raise InvalidParameterError("state vector must have 12 entries")
        if self.lagged_accel.shape != (6,):
            raise InvalidParameterError("lagged_accel must have 6 entries")
        if not (np.all(np.isfinite(self.vector)) and np.all(np.isfinite(self.lagged_accel))):
            raise InvalidParameterError("state entries must be finite")


@dataclass(frozen=True)
class MassProperties:
    """Component masses and the resulting center-of-mass shift."""

    m_q: float = 1.8  # quadrotor mass, kg
    m_r: float = 0.2  # manipulator mass, kg
    d0: float = 0.0  # quadrotor CoM reference offset, m
    d1: float = 0.8  # arm CoM distance from d0, m

    def __post_init__(self):
        if not self.m_q > 0:
            raise InvalidParameterError("m_q must be positive")
        if not self.m_r >= 0:
            raise InvalidParameterError("m_r must be non-negative")

    @property
    def m(self) -> float:
        return self.m_q + self.m_r

    @property
    def z_G(self) -> float:
        return self.z_G_at(self.d1)

    def z_G_at(self, d1: float) -> float:
        """Center-of-mass offset with the prismatic arm at ``d1``."""
        return (self.m_q * self.d0 + self.m_r * d1) / (self.m_q + self.m_r)


@dataclass(frozen=True)
class GeometryParams:
    """Cylinder (airframe cross) and cuboid (arm) dimensions, meters."""

    R_q: float  # cylinder radius
    L_q: float  # cylinder length
    L_r: float  # cuboid length
    W_r: float  # cuboid width
    H_r: float  # cuboid height
    D_r: float  # cuboid distance to the central axis

    def __post_init__(self):
        for name in ("R_q", "L_q", "L_r", "W_r", "H_r", "D_r"):
            if not getattr(self, name) > 0:
                raise InvalidParameterError(f"geometry dimension {name} must be positive")


@dataclass(frozen=True)
class InertiaParams:
    """Principal inertias plus the derived dynamics coefficients a1..a8."""

    I_xx: float = 0.018
    I_yy: float = 0.018
    I_zz: float = 0.035
    J_r: float = 6e-3  # rotor inertia
    l: float = 0.45  # arm length of the airframe cross

    def __post_init__(self):
        if not (self.I_xx > 0 and self.I_yy > 0 and self.I_zz > 0):
            raise InvalidParameterError("principal inertias must be positive")

    @property
    def a1(self):
        return (self.I_yy - self.I_zz) / self.I_xx

    @property
    def a2(self):
        return self.J_r / self.I_xx

    @property
    def a3(self):
        return (self.I_zz - self.I_xx) / self.I_yy

    @property
    def a4(self):
        return self.J_r / self.I_yy

    @property
    def a5(self):
        return (self.I_xx - self.I_yy) / self.I_zz

    @property
    def a6(self):
        return self.l / self.I_xx

    @property
    def a7(self):
        return self.l / self.I_yy

    @property
    def a8(self):
        return 1.0 / self.I_zz


def compose_inertia(geometry: GeometryParams, masses: MassProperties,
                    J_r: float = InertiaParams.J_r,
                    l: float = InertiaParams.l) -> InertiaParams:
    """Build the combined inertia from component shapes (parallel-axis sum).

    The airframe is modelled as a crossed pair of cylinders, the arm as a
    cuboid offset ``D_r`` from the central axis.  The default construction
    path elsewhere in the package takes the principal inertias directly;
    this geometric path is an optional alternative.
    """
    g, mp = geometry, masses
    I_xq = mp.m_q * (g.R_q ** 2 / 4 + g.L_q ** 2 / 12 + g.R_q ** 2 / 2)
    I_yq = I_xq
    I_zq = mp.m_q * (g.R_q ** 2 / 4 + g.L_q ** 2 / 12 + g.R_q ** 2 / 4 + g.L_q ** 2 / 12)

    I_xr = mp.m_r * (g.W_r ** 2 / 12 + g.H_r ** 2 / 12 + g.D_r ** 2)
    I_yr = mp.m_r * (g.L_r ** 2 / 12 + g.H_r ** 2 / 12 + g.D_r ** 2)
    I_zr = mp.m_r * (g.L_r ** 2 / 2 + g.W_r ** 2 / 2)

    return InertiaParams(I_xx=I_xq + I_xr, I_yy=I_yq + I_yr, I_zz=I_zq + I_zr,
                         J_r=J_r, l=l)


@dataclass(frozen=True)
class MixerParams:
    """Aerodynamic force/moment constants of the control allocation.

    The numeric defaults are implementer-chosen; they affect only the
    decomposition of U into rotor speeds (and hence the relative rotor
    speed), not the closed-loop torques, which use U directly.
    """

    k_f: float = 1e-5  # N s^2 / rad^2
    k_m: float = 1.5e-6  # N m s^2 / rad^2

    def __post_init__(self):
        if not (self.k_f > 0 and self.k_m > 0):
            raise InvalidParameterError("k_f and k_m must be positive")

    def matrix(self) -> np.ndarray:
        kf, km = self.k_f, self.k_m
        return np.array([
            [kf, kf, kf, kf],
            [0.0, -kf, 0.0, kf],
            [kf, 0.0, -kf, 0.0],
            [km, -km, km, -km],
        ])

    @cached_property
    def inverse(self) -> tuple:
        """Rows of the allocation matrix's inverse, singularity-checked once on
        its |det| = 8 k_f^3 k_m as a product, which goes to inf where det overflows."""
        if 8.0 * self.k_f * self.k_f * self.k_f * self.k_m < 1e-300:
            raise ConfigurationError("allocation matrix is singular")
        return tuple(map(tuple, np.linalg.inv(self.matrix()).tolist()))


#: the relative rotor speed omega_r at the squared rotor speeds w1..w4
SPEED = "omega_r = -sqrt(w1) + sqrt(w2) - sqrt(w3) + sqrt(w4)\n"
#: the generalized inputs U1..U4 and the relative rotor speed, ``DERIVATIVE``'s ``u``
INPUTS = ("U1", "U2", "U3", "U4", "omega_r")

#: the ``INPUTS`` (thrust N; roll, pitch, yaw inputs; rad/s) and whether the rotor
#: speeds that realize them were clamped
ControlInputs = namedtuple("ControlInputs", (*INPUTS, "rotor_saturated"),
                           defaults=(0.0,) * len(INPUTS) + (False,))


def mix(omega_squared, params: MixerParams) -> ControlInputs:
    """Map squared rotor speeds to the generalized inputs U1..U4."""
    w2 = np.asarray(omega_squared, dtype=float)
    if w2.shape != (4,):
        raise InvalidInputError("expected four squared rotor speeds")
    if not np.all(np.isfinite(w2) & (w2 >= 0)):
        raise InvalidInputError("squared rotor speeds must be finite and non-negative")
    omega_r = render.kernel("speed", {"sqrt": sqrt}, "w1, w2, w3, w4",
                            SPEED + "return omega_r\n")(*w2.tolist())
    return ControlInputs(*(params.matrix() @ w2).tolist(), omega_r)


#: the squared rotor speeds w1..w4 that realize U1..U4 through the rows of the
#: allocation inverse, clamped at zero, and whether any was negative
INVERSE = ("(m11, m12, m13, m14), (m21, m22, m23, m24), "
           "(m31, m32, m33, m34), (m41, m42, m43, m44) = inverse\n")
MIXER = """\
w1 = m11 * U1 + m12 * U2 + m13 * U3 + m14 * U4
w2 = m21 * U1 + m22 * U2 + m23 * U3 + m24 * U4
w3 = m31 * U1 + m32 * U2 + m33 * U3 + m34 * U4
w4 = m41 * U1 + m42 * U2 + m43 * U3 + m44 * U4
rotor_sat = w1 < 0 or w2 < 0 or w3 < 0 or w4 < 0
w1, w2 = 0.0 if w1 <= 0.0 else w1, 0.0 if w2 <= 0.0 else w2
w3, w4 = 0.0 if w3 <= 0.0 else w3, 0.0 if w4 <= 0.0 else w4
"""
_MIXER = ("if not all(map(isfinite, (U1, U2, U3, U4))):  # a NaN passes MIXER unflagged\n"
          "    raise InvalidInputError('generalized inputs must be finite')\n"
          + INVERSE + MIXER + SPEED + "return (w1, w2, w3, w4), rotor_sat, omega_r\n")


def mixer_kernel(params: MixerParams):
    """``MIXER`` and ``SPEED`` behind ``unmix`` and ``rotor_speeds``:
    ``f(U1, U2, U3, U4) -> (w2, saturated, omega_r)``."""
    return render.kernel("mixer", {"inverse": params.inverse, "sqrt": sqrt, "isfinite": isfinite,
                                   "InvalidInputError": InvalidInputError}, "U1, U2, U3, U4", _MIXER)


def unmix(u, params: MixerParams) -> tuple[np.ndarray, bool]:
    """Invert the allocation: U1..U4 -> squared rotor speeds.

    Components that solve negative are clamped to zero; the second return
    value flags that saturation.
    """
    w2, saturated, _ = mixer_kernel(params)(*np.asarray(u[:4], dtype=float).tolist())
    return np.array(w2), saturated


def rotor_speeds(u, params: MixerParams) -> ControlInputs:
    """Attach the relative rotor speed of realizable rotor speeds to a
    commanded input vector.

    The commanded U1..U4 are kept verbatim for the dynamics; the rotor
    decomposition only feeds the gyroscopic relative-speed term.
    """
    uv = np.asarray(u[:4], dtype=float).tolist()
    _, saturated, omega_r = mixer_kernel(params)(*uv)
    return ControlInputs(*uv, omega_r, saturated)


@dataclass(frozen=True)
class QuadParams:
    """Aggregate physical parameter set (Table-of-constants defaults)."""

    masses: MassProperties = field(default_factory=MassProperties)
    inertia: InertiaParams = field(default_factory=InertiaParams)
    mixer: MixerParams = field(default_factory=MixerParams)
    g: float = GRAVITY

    @property
    def m(self) -> float:
        return self.masses.m


#: the 12-state derivative dx1..dx12 at the state x1..x12 under the inputs U1..U4, the
#: relative rotor speed omega_r, the disturbances delta_a..delta_f and G: ``TRIG`` of the
#: state, ``THRUST`` of the inputs (which a closed loop holds over its period) and
#: ``DERIVATIVE``, whose ``neg_thrust * v`` is ``-thrust * v``, ``(-thrust) * v``, bit for bit
TRIG = "".join(f"sin{i}, cos{i} = sin(x{i}), cos(x{i})\n" for i in (1, 3, 5))
THRUST = ("thrust = U1 / m\n"
          "neg_thrust, torque2, torque4, torque6 = -thrust, U2 * a6, U3 * a7, U4 * a8\n")
DERIVATIVE = """\
dx1, dx2 = x2, torque2 - a2 * x4 * omega_r + a1 * x4 * x6 + delta_a
dx3, dx4 = x4, torque4 + a4 * x2 * omega_r + a3 * x2 * x6 + delta_b
dx5, dx6 = x6, torque6 + a5 * x2 * x4 + delta_c
dx7, dx8 = x8, g - G * thrust * cos3 * cos1 + delta_d
dx9, dx10 = x10, neg_thrust * (sin1 * sin5 + sin3 * cos1 * cos5) + delta_e
dx11, dx12 = x12, neg_thrust * (cos1 * sin3 * sin5 - sin1 * cos5) + delta_f
"""
_DERIVATIVE = ("x1, x2, x3, x4, x5, x6, _, x8, _, x10, _, x12 = s\n"
               + ", ".join(INPUTS) + " = u\n"
               + "delta_a, delta_b, delta_c, delta_d, delta_e, delta_f, G = dist\n"
               + TRIG + THRUST + DERIVATIVE + "return (dx1, dx2, dx3, dx4, dx5, dx6, "
               "dx7, dx8, dx9, dx10, dx11, dx12)\n")


def derivative_constants(params: QuadParams) -> dict:
    """The values of the names ``TRIG``, ``THRUST`` and ``DERIVATIVE`` read, not assign."""
    ia = params.inertia
    return {**{f"a{i}": getattr(ia, f"a{i}") for i in range(1, 9)},
            "m": params.m, "g": params.g, "sin": sin, "cos": cos}


def derivative_kernel(params: QuadParams):
    """``DERIVATIVE`` behind ``state_derivative``: ``f(s, u, dist)`` for ``u`` the
    (U1, U2, U3, U4, omega_r) and ``dist`` the (delta_a..delta_f, G); unchecked."""
    return render.kernel("derivative", derivative_constants(params), "s, u, dist", _DERIVATIVE)


def state_derivative(state: QuadState, u: ControlInputs, dist,
                     params: QuadParams) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate the 12-state derivative and the six accelerations.

    ``u`` leads with the ``INPUTS``; ``dist`` is a ``DisturbanceOutputs``, the
    lumped disturbance accelerations delta_a..delta_f and the ground-effect
    thrust factor G.  Both reach the kernel as they are.  The six
    accelerations are returned separately so the caller can store them as
    the next step's lagged values.
    """
    s = state.vector.tolist()  # the vector may have changed since it was built
    if not all(map(isfinite, s)):
        raise InvalidInputError("state must be finite")
    deriv = derivative_kernel(params)(s, u[:5], dist)
    return np.array(deriv), np.array(deriv[1::2])
