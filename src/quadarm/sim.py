"""Fixed-step closed-loop simulation, scenarios, and trace logging."""

from __future__ import annotations

import math
import struct
import warnings
from dataclasses import dataclass, field
from math import isfinite, sqrt

import numpy as np

from . import adrc
from .adrc import ALTITUDE, PITCH, ROLL, SUBSYSTEMS, YAW
from .disturbances import DisturbanceFlags, DisturbanceParams, lump_kernel
from .errors import DivergenceError, IntegrationError, InvalidParameterError
from .model import (QuadParams, QuadState, derivative_kernel, mixer_kernel,
                    relative_speed)

DIVERGENCE_LIMIT = 1e6
MAX_STEPS = 10 ** 7  #: most steps a scenario may ask for: 4.5 GB of trace at 448 B a record

DEG = math.pi / 180.0


@dataclass(frozen=True)
class PiecewiseConstant:
    """Right-continuous step profile: list of (t_start, value), sorted."""

    segments: tuple = ((0.0, 0.0),)

    def __post_init__(self):
        if not self.segments:
            raise InvalidParameterError("profile needs at least one segment")
        if not all(math.isfinite(t) and math.isfinite(v) for t, v in self.segments):
            raise InvalidParameterError("profile times and values must be finite")
        starts = [s[0] for s in self.segments]
        if starts != sorted(starts):
            raise InvalidParameterError("profile segments must be time-sorted")

    def __call__(self, t: float) -> float:
        value = self.segments[0][1]
        for t_start, v in self.segments:
            if t >= t_start:
                value = v
            else:
                break
        return value

    @classmethod
    def constant(cls, value: float) -> "PiecewiseConstant":
        return cls(((0.0, float(value)),))


@dataclass
class Scenario:
    duration: float = 10.0
    dt: float = 0.001
    initial_state: QuadState = field(default_factory=QuadState)
    # piecewise-constant reference per controlled subsystem
    ref_roll: PiecewiseConstant = field(default_factory=lambda: PiecewiseConstant.constant(5 * DEG))
    ref_pitch: PiecewiseConstant = field(default_factory=lambda: PiecewiseConstant.constant(5 * DEG))
    ref_yaw: PiecewiseConstant = field(default_factory=lambda: PiecewiseConstant.constant(5 * DEG))
    ref_z: PiecewiseConstant = field(default_factory=lambda: PiecewiseConstant.constant(5.0))
    flags: DisturbanceFlags = field(default_factory=DisturbanceFlags.all_on)
    d1_profile: PiecewiseConstant | None = None  # arm position; None = constant default
    open_loop: bool = False
    open_loop_u1: PiecewiseConstant = field(default_factory=lambda: PiecewiseConstant.constant(0.0))

    def __post_init__(self):
        if not 0 < self.dt < math.inf:
            raise InvalidParameterError("dt must be positive and finite")
        if not 0 <= self.duration < math.inf:
            raise InvalidParameterError("duration must be non-negative and finite")

    @property
    def n_steps(self) -> int:
        """Steps of ``dt`` in ``duration``; ``InvalidParameterError`` unless
        that is a whole number of at most ``MAX_STEPS``."""
        steps = self.duration / self.dt
        if not (steps <= MAX_STEPS and abs(steps - round(steps)) <= 1e-9 * steps):  # inf too
            raise InvalidParameterError(f"{self.duration} is {steps:.12g} steps of dt {self.dt}, "
                                        f"not a whole number of at most {MAX_STEPS}")
        return round(steps)


STATE_COLUMNS = ["phi", "phi_dot", "theta", "theta_dot", "psi", "psi_dot",
                 "z", "z_dot", "x", "x_dot", "y", "y_dot"]
ACCEL_COLUMNS = ["acc_phi", "acc_theta", "acc_psi", "acc_z", "acc_x", "acc_y"]
REF_COLUMNS = ["ref_roll", "ref_pitch", "ref_yaw", "ref_z"]
PER_SUBSYSTEM = ["u", "u0", "f_hat", "x1_hat", "x2_hat", "sat"]
DELTA_COLUMNS = ["delta_a", "delta_b", "delta_c", "delta_d", "delta_e", "delta_f"]

COLUMNS = tuple(["t"] + STATE_COLUMNS + ACCEL_COLUMNS + REF_COLUMNS
                + [f"{f}_{s}" for s in SUBSYSTEMS for f in PER_SUBSYSTEM]
                + ["G"] + DELTA_COLUMNS + ["omega_r", "rotor_sat"])


def write_rows(path, header, rows) -> None:
    """Write ``header``'s names and each row's numbers to ``path`` as
    csv.writer's lines: no name and no int or float repr needs quoting."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(",".join(map(repr, row)) + "\r\n" for row in rows)


class TraceLog:
    """Record of one simulation run: ``n_records`` rows of the ``COLUMNS``
    layout in one float64 array, filled in order by ``append``."""

    columns = COLUMNS
    # packs a row's floats straight into the array's buffer and reads them back
    _row = struct.Struct(f"{len(COLUMNS)}d")
    _index = {name: i for i, name in enumerate(COLUMNS)}
    _header = ",".join(COLUMNS)  # the first line ``to_csv`` writes

    def __init__(self, n_records: int):
        self._data = np.empty((n_records, len(COLUMNS)))
        self._n = 0

    def append(self, row):
        self._row.pack_into(self._data, self._n * self._row.size, *row)
        self._n += 1

    def __len__(self):
        return self._n

    def column(self, name: str) -> np.ndarray:
        return self.as_array()[:, self._index[name]]

    def as_array(self) -> np.ndarray:
        """Read-only view of the records, one row each."""
        view = self._data[:self._n]
        view.flags.writeable = False
        return view

    def to_csv(self, path):
        write_rows(path, COLUMNS, self._row.iter_unpack(self._data[:self._n]))

    @classmethod
    def read_header(cls, fh, path) -> None:
        """Read the first line of the trace file ``fh`` opened at ``path``;
        raise ``InvalidParameterError`` naming ``path`` unless it is the header."""
        line = fh.readline(len(cls._header) + 2)  # a longer line cannot match
        if not line:
            raise InvalidParameterError(f"{path}: empty trace file")
        if line.rstrip("\r\n") != cls._header:
            raise InvalidParameterError(f"{path}: header is not the trace's columns")

    @classmethod
    def from_csv(cls, path) -> "TraceLog":
        with open(path, newline="", encoding="utf-8") as fh:
            cls.read_header(fh, path)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # a header without records
                try:
                    data = np.loadtxt(fh, delimiter=",", ndmin=2)
                except ValueError as exc:  # a ragged or a non-numeric row
                    raise InvalidParameterError(f"{path}: {exc}") from None
        if data.size and data.shape[1] != len(COLUMNS):  # a header alone loads as (0, 1)
            raise InvalidParameterError(f"{path}: row width does not match columns")
        log = cls(0)
        log._data, log._n = data.reshape(-1, len(COLUMNS)), len(data)
        return log


def _rk4(stage, t: float, y, dt: float, k1) -> tuple[list, tuple]:
    """Classical fourth-order step over a 12-state float sequence from the
    first-stage derivative ``k1``; ``stage(tau, y)`` gives the derivative at
    a stage.  Returns the new state, checked finite (``IntegrationError``),
    and the final-stage derivative.

    The combinations are written out per state: a comprehension over the
    twelve entries costs about as much again as the arithmetic it does.
    """
    h, sixth = 0.5 * dt, dt / 6.0
    y1, y2, y3, y4, y5, y6, y7, y8, y9, y10, y11, y12 = y
    a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11, a12 = k1
    k2 = stage(t + h, [y1 + h * a1, y2 + h * a2, y3 + h * a3, y4 + h * a4,
                       y5 + h * a5, y6 + h * a6, y7 + h * a7, y8 + h * a8,
                       y9 + h * a9, y10 + h * a10, y11 + h * a11, y12 + h * a12])
    b1, b2, b3, b4, b5, b6, b7, b8, b9, b10, b11, b12 = k2
    k3 = stage(t + h, [y1 + h * b1, y2 + h * b2, y3 + h * b3, y4 + h * b4,
                       y5 + h * b5, y6 + h * b6, y7 + h * b7, y8 + h * b8,
                       y9 + h * b9, y10 + h * b10, y11 + h * b11, y12 + h * b12])
    c1, c2, c3, c4, c5, c6, c7, c8, c9, c10, c11, c12 = k3
    k4 = stage(t + dt, [y1 + dt * c1, y2 + dt * c2, y3 + dt * c3, y4 + dt * c4,
                        y5 + dt * c5, y6 + dt * c6, y7 + dt * c7, y8 + dt * c8,
                        y9 + dt * c9, y10 + dt * c10, y11 + dt * c11, y12 + dt * c12])
    d1, d2, d3, d4, d5, d6, d7, d8, d9, d10, d11, d12 = k4
    y = [y1 + sixth * (a1 + 2.0 * b1 + 2.0 * c1 + d1),
         y2 + sixth * (a2 + 2.0 * b2 + 2.0 * c2 + d2),
         y3 + sixth * (a3 + 2.0 * b3 + 2.0 * c3 + d3),
         y4 + sixth * (a4 + 2.0 * b4 + 2.0 * c4 + d4),
         y5 + sixth * (a5 + 2.0 * b5 + 2.0 * c5 + d5),
         y6 + sixth * (a6 + 2.0 * b6 + 2.0 * c6 + d6),
         y7 + sixth * (a7 + 2.0 * b7 + 2.0 * c7 + d7),
         y8 + sixth * (a8 + 2.0 * b8 + 2.0 * c8 + d8),
         y9 + sixth * (a9 + 2.0 * b9 + 2.0 * c9 + d9),
         y10 + sixth * (a10 + 2.0 * b10 + 2.0 * c10 + d10),
         y11 + sixth * (a11 + 2.0 * b11 + 2.0 * c11 + d11),
         y12 + sixth * (a12 + 2.0 * b12 + 2.0 * c12 + d12)]
    # a non-finite slope of any stage leaves a non-finite entry here; a float
    # sum is finite only if every addend is, and an overflowing one falls through
    if not isfinite(sum(y)) and not all(map(isfinite, y)):
        raise IntegrationError(t)
    return y, k4


def rk4_step(state: QuadState, deriv_fn, t: float, dt: float) -> QuadState:
    """Classical fourth-order step.

    ``deriv_fn(t, vector, lagged) -> (derivative, accelerations)``; the
    lagged accelerations are held constant over the step and replaced by
    the final-stage accelerations afterwards.
    """
    if not 0 < dt < math.inf:  # NaN too
        raise InvalidParameterError("dt must be positive and finite")
    y0, lag = state.vector, state.lagged_accel
    acc = None

    def stage(tau, y):
        nonlocal acc
        derivative, acc = deriv_fn(tau, np.array(y), lag)
        return derivative
    vector, _ = _rk4(stage, t, y0.tolist(), dt, stage(t, y0))
    return QuadState(np.array(vector), acc)


@dataclass(frozen=True)
class ControllerGains:
    """Stock optimized gain set; ESO gains shared across subsystems by
    default, with optional per-subsystem overrides."""

    eso: adrc.EsoGains = field(default_factory=adrc.EsoGains)
    pd_roll: adrc.PdGains = field(default_factory=lambda: adrc.PdGains(90.3979, 19.6321))
    pd_pitch: adrc.PdGains = field(default_factory=lambda: adrc.PdGains(79.3794, 21.1666))
    pd_yaw: adrc.PdGains = field(default_factory=lambda: adrc.PdGains(69.8457, 16.8096))
    pd_altitude: adrc.PdGains = field(default_factory=lambda: adrc.PdGains(10.5246, 9.5557))
    eso_overrides: dict = field(default_factory=dict)
    u_limits: dict = field(default_factory=lambda: {
        ROLL: (-5.0, 5.0), PITCH: (-5.0, 5.0), YAW: (-5.0, 5.0),
        ALTITUDE: (0.0, 40.0),
    })

    def eso_for(self, name: str) -> adrc.EsoGains:
        return self.eso_overrides.get(name, self.eso)

    def pd_for(self, name: str) -> adrc.PdGains:
        return {ROLL: self.pd_roll, PITCH: self.pd_pitch,
                YAW: self.pd_yaw, ALTITUDE: self.pd_altitude}[name]

    def loops(self, params: QuadParams) -> tuple:
        """The four loops' ``SubsystemConfig``s, in ``SUBSYSTEMS`` order: the
        attitude b_hat (l/I_xx, l/I_yy, 1/I_zz) from the inertia, altitude -1/m."""
        ia = params.inertia
        return tuple(adrc.SubsystemConfig(which=name, b_hat=b, eso=self.eso_for(name),
                                          pd=self.pd_for(name), u_limits=self.u_limits[name])
                     for name, b in zip(SUBSYSTEMS, (ia.a6, ia.a7, ia.a8, -1.0 / params.m)))


#: ``step``'s control carry before the first period: no observer has measured
CONTROL_START = ((None,) * 4, (0.0,) * 5, (0.0,) * 24, False)


def loop_kernel(scenario: Scenario, params: QuadParams,
                dist_params: DisturbanceParams | None = None,
                gains: ControllerGains | None = None):
    """Bind the loop's constants once; returns the pure closed-loop period
    ``step(t, y, lagged, ctrl, final=False) -> (y, lagged, ctrl, row)``.

    ``y`` and ``lagged`` are float sequences.  ``ctrl`` carries the four
    observers (x1_hat, x2_hat, x3_hat, u), the applied (U1..U4, omega_r),
    the logged (u, u0, f_hat, x1_hat, x2_hat, sat) per subsystem and the
    rotor saturation flag.  ``step`` updates the control at ``t``, logs
    ``row`` and integrates to ``t + dt``; with ``final`` it only logs.
    """
    lump_f = lump_kernel(dist_params or DisturbanceParams(), scenario.flags, params.m)
    deriv_f = derivative_kernel(params)
    masses, d1 = params.masses, scenario.d1_profile
    z_G_fixed, z_G_at = masses.z_G, masses.z_G_at
    profiles = ref_roll, ref_pitch, ref_yaw, ref_z = (scenario.ref_roll, scenario.ref_pitch,
                                                       scenario.ref_yaw, scenario.ref_z)
    # a one-segment profile holds its value at every t
    fixed_refs = (tuple(p.segments[0][1] for p in profiles)
                  if all(len(p.segments) == 1 for p in profiles) else None)
    dt, m = scenario.dt, params.m

    if scenario.open_loop:
        u1 = scenario.open_loop_u1

        def control(t, y, dist, refs, ctrl):
            # the open-loop fixture drives the thrust channel directly
            return ctrl[0], (u1(t), 0.0, 0.0, 0.0, 0.0), ctrl[2], False
    else:
        loops = (gains or ControllerGains()).loops(params)
        bank, b_att = adrc.bank_kernel(loops, dt), tuple(c.b_hat for c in loops[:3])
        b_hat_altitude, mixer_f, rates = adrc.b_hat_altitude, mixer_kernel(params.mixer), (0.0,) * 4

        def control(t, y, dist, refs, ctrl):
            b_alt, _ = b_hat_altitude(y[0], y[2], dist[6], m)
            obs, signals = bank(ctrl[0], y[0:7:2], refs, rates, (*b_att, b_alt))
            U = (obs[3][3], obs[0][3], obs[1][3], obs[2][3])
            w2, rotor_sat = mixer_f(*U)
            return obs, (*U, relative_speed(tuple(map(sqrt, w2)))), signals, rotor_sat

    def step(t, y, lagged, ctrl, final=False):
        z_G = z_G_fixed if d1 is None else z_G_at(d1(t))
        dist = lump_f(y, lagged, t, z_G)
        refs = fixed_refs or (ref_roll(t), ref_pitch(t), ref_yaw(t), ref_z(t))
        if not final:
            ctrl = control(t, y, dist, refs, ctrl)
        u = ctrl[1]
        row = (t, *y, *lagged, *refs, *ctrl[2], dist[6], *dist[:6], u[4], ctrl[3])
        if not final:
            try:
                y, k4 = _rk4(lambda tau, s: deriv_f(s, u, lump_f(s, lagged, tau, z_G)),
                             t, y, dt, deriv_f(y, u, dist))
            except (OverflowError, ValueError):  # x ** 2 past the float range, sin(inf)
                raise IntegrationError(t) from None
            lagged = k4[1::2]  # the final stage's accelerations
        return y, lagged, ctrl, row
    return step


def run(scenario: Scenario, params: QuadParams,
        dist_params: DisturbanceParams | None = None,
        gains: ControllerGains | None = None) -> TraceLog:
    """Integrate the closed loop (or the open-loop fixture) and log it;
    each period is one ``loop_kernel`` step."""
    dt, n, ctrl = scenario.dt, scenario.n_steps, CONTROL_START
    step = loop_kernel(scenario, params, dist_params, gains)
    y = scenario.initial_state.vector.tolist()
    lagged = scenario.initial_state.lagged_accel.tolist()
    log = TraceLog(n + 1)
    for k in range(n):
        t = k * dt
        y, lagged, ctrl, row = step(t, y, lagged, ctrl)
        log.append(row)
        if max(map(abs, y)) > DIVERGENCE_LIMIT:  # y is finite: step checked it
            raise DivergenceError(t + dt)
    log.append(step(n * dt, y, lagged, ctrl, final=True)[3])
    return log


def estimation_oracle(trace: TraceLog, params: QuadParams,
                      dist_params: DisturbanceParams | None = None,
                      flags: DisturbanceFlags | None = None) -> dict:
    """Reconstruct each subsystem's true total disturbance from the log.

    The truth is the model algebra (everything in the acceleration row
    except the b_hat*u term) on the logged rates and rotor speed, plus the
    lumped disturbances delta_a..delta_d that the loop's lump kernel logged
    at each record's state, time and arm position; no term passes through
    the observers it is checked against.  ``dist_params`` and ``flags`` are
    unread, since the logged disturbances already carry them.  Returns per
    subsystem: true series, estimated series, error series.
    """
    ia = params.inertia
    x2, x4, x6, omega_r, delta_a, delta_b, delta_c, delta_d = map(trace.column, (
        "phi_dot", "theta_dot", "psi_dot", "omega_r", *DELTA_COLUMNS[:4]))
    f_true = {
        ROLL: ia.a1 * x4 * x6 - ia.a2 * x4 * omega_r + delta_a,
        PITCH: ia.a3 * x2 * x6 + ia.a4 * x2 * omega_r + delta_b,
        YAW: ia.a5 * x2 * x4 + delta_c,
        ALTITUDE: params.g + delta_d,
    }

    result = {}
    for name in SUBSYSTEMS:
        f_hat = trace.column(f"f_hat_{name}")
        result[name] = {
            "f_true": f_true[name],
            "f_hat": f_hat,
            "error": f_hat - f_true[name],
        }
    return result
