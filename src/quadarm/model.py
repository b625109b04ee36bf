"""Rigid-body model of the quadrotor with a 1-DOF prismatic arm.

State convention (12 states): roll phi=x1, pitch theta=x3, yaw psi=x5,
altitude z=x7, translations x=x9, y=x11, with rates at the even indices.
Angles are not wrapped; the controller operates in the small-angle regime.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import cos, isfinite, sin

import numpy as np

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
        """Rows of the allocation matrix's inverse, singularity-checked once."""
        m = self.matrix()
        if abs(np.linalg.det(m)) < 1e-300:
            raise ConfigurationError("allocation matrix is singular")
        return tuple(map(tuple, np.linalg.inv(m).tolist()))


@dataclass
class ControlInputs:
    """Generalized inputs U1..U4 with the realizing rotor speeds."""

    U1: float = 0.0  # total thrust, N
    U2: float = 0.0  # roll input
    U3: float = 0.0  # pitch input
    U4: float = 0.0  # yaw input
    omega: np.ndarray = field(default_factory=lambda: np.zeros(4))  # rad/s
    rotor_saturated: bool = False

    @property
    def omega_r(self) -> float:
        return relative_speed(self.omega)

    def as_vector(self) -> np.ndarray:
        return np.array([self.U1, self.U2, self.U3, self.U4])


def mix(omega_squared, params: MixerParams) -> ControlInputs:
    """Map squared rotor speeds to the generalized inputs U1..U4."""
    w2 = np.asarray(omega_squared, dtype=float)
    if w2.shape != (4,):
        raise InvalidInputError("expected four squared rotor speeds")
    if np.any(w2 < 0):
        raise InvalidInputError("squared rotor speeds must be non-negative")
    u = params.matrix() @ w2
    return ControlInputs(U1=u[0], U2=u[1], U3=u[2], U4=u[3], omega=np.sqrt(w2))


def relative_speed(omega) -> float:
    """Relative rotor speed -O1 + O2 - O3 + O4."""
    return -omega[0] + omega[1] - omega[2] + omega[3]


def mixer_kernel(params: MixerParams):
    """Bind the allocation inverse once; returns the float kernel
    ``f(U1, U2, U3, U4) -> (w2, saturated)`` behind ``unmix``, with
    negative squares clamped to zero and whether any was."""
    (a1, a2, a3, a4), (b1, b2, b3, b4), (c1, c2, c3, c4), (d1, d2, d3, d4) = params.inverse

    def f(U1, U2, U3, U4):
        w1 = a1 * U1 + a2 * U2 + a3 * U3 + a4 * U4
        w2 = b1 * U1 + b2 * U2 + b3 * U3 + b4 * U4
        w3 = c1 * U1 + c2 * U2 + c3 * U3 + c4 * U4
        w4 = d1 * U1 + d2 * U2 + d3 * U3 + d4 * U4
        return ((0.0 if w1 <= 0.0 else w1, 0.0 if w2 <= 0.0 else w2,
                 0.0 if w3 <= 0.0 else w3, 0.0 if w4 <= 0.0 else w4),
                w1 < 0 or w2 < 0 or w3 < 0 or w4 < 0)
    return f


def unmix(u, params: MixerParams) -> tuple[np.ndarray, bool]:
    """Invert the allocation: U1..U4 -> squared rotor speeds.

    Components that solve negative are clamped to zero; the second return
    value flags that saturation.
    """
    uv = u.as_vector() if isinstance(u, ControlInputs) else np.asarray(u, dtype=float)
    w2, saturated = mixer_kernel(params)(*uv.tolist())
    return np.array(w2), saturated


def rotor_speeds(u, params: MixerParams) -> ControlInputs:
    """Attach realizable rotor speeds to a commanded input vector.

    The commanded U1..U4 are kept verbatim for the dynamics; the rotor
    decomposition only feeds the gyroscopic relative-speed term.
    """
    uv = u.as_vector() if isinstance(u, ControlInputs) else np.asarray(u, dtype=float)
    w2, saturated = unmix(uv, params)
    return ControlInputs(U1=uv[0], U2=uv[1], U3=uv[2], U4=uv[3],
                         omega=np.sqrt(w2), rotor_saturated=saturated)


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


def derivative_kernel(params: QuadParams):
    """Bind the plant constants once; returns the float kernel
    ``f(s, u, dist) -> derivative`` behind ``state_derivative``.

    ``s`` is the 12-state sequence, ``u`` is (U1, U2, U3, U4, omega_r) and
    ``dist`` is (delta_a..delta_f, G); the derivative is a tuple of floats
    whose odd entries are the six accelerations.
    """
    ia = params.inertia
    a1, a2, a3, a4, a5, a6, a7, a8 = (ia.a1, ia.a2, ia.a3, ia.a4,
                                      ia.a5, ia.a6, ia.a7, ia.a8)
    m, g = params.m, params.g

    def f(s, u, dist):
        # a float sum is finite only if every addend is; an overflowing sum
        # of finite entries falls through to the check of each
        if not isfinite(sum(s)) and not all(map(isfinite, s)):
            raise InvalidInputError("state must be finite")
        x1, x2, x3, x4, x5, x6, _, x8, _, x10, _, x12 = s
        U1, U2, U3, U4, omega_r = u
        delta_a, delta_b, delta_c, delta_d, delta_e, delta_f, G = dist
        sin1, cos1 = sin(x1), cos(x1)
        sin3, cos3 = sin(x3), cos(x3)
        sin5, cos5 = sin(x5), cos(x5)
        thrust = U1 / m
        return (x2, U2 * a6 - a2 * x4 * omega_r + a1 * x4 * x6 + delta_a,
                x4, U3 * a7 + a4 * x2 * omega_r + a3 * x2 * x6 + delta_b,
                x6, U4 * a8 + a5 * x2 * x4 + delta_c,
                x8, g - G * thrust * cos3 * cos1 + delta_d,
                x10, -thrust * (sin1 * sin5 + sin3 * cos1 * cos5) + delta_e,
                x12, -thrust * (cos1 * sin3 * sin5 - sin1 * cos5) + delta_f)
    return f


def state_derivative(state: QuadState, u: ControlInputs, dist,
                     params: QuadParams) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate the 12-state derivative and the six accelerations.

    ``dist`` carries the lumped disturbance accelerations delta_a..delta_f
    and the ground-effect thrust factor G.  The six accelerations are
    returned separately so the caller can store them as the next step's
    lagged values.
    """
    deriv = derivative_kernel(params)(
        state.vector.tolist(), (u.U1, u.U2, u.U3, u.U4, u.omega_r),
        (*dist.as_vector().tolist(), dist.G))
    return np.array(deriv), np.array(deriv[1::2])
