"""Fixed-step closed-loop simulation, scenarios, and trace logging."""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from . import adrc
from .adrc import ALTITUDE, PITCH, ROLL, SUBSYSTEMS, YAW
from .disturbances import DisturbanceFlags, DisturbanceParams, lump_kernel
from .errors import DivergenceError, IntegrationError, InvalidParameterError
from .model import QuadParams, QuadState, derivative_kernel, realize, relative_speed

DIVERGENCE_LIMIT = 1e6
#: rows per block that ``TraceLog.to_csv`` formats at a time
CSV_CHUNK_ROWS = 1024

DEG = math.pi / 180.0


@dataclass(frozen=True)
class PiecewiseConstant:
    """Right-continuous step profile: list of (t_start, value), sorted."""

    segments: tuple = ((0.0, 0.0),)

    def __post_init__(self):
        if not self.segments:
            raise InvalidParameterError("profile needs at least one segment")
        starts = [s[0] for s in self.segments]
        if starts != sorted(starts):
            raise InvalidParameterError("profile segments must be time-sorted")
        if not all(math.isfinite(v) for _, v in self.segments):
            raise InvalidParameterError("profile values must be finite")

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
        return int(round(self.duration / self.dt))


STATE_COLUMNS = ["phi", "phi_dot", "theta", "theta_dot", "psi", "psi_dot",
                 "z", "z_dot", "x", "x_dot", "y", "y_dot"]
ACCEL_COLUMNS = ["acc_phi", "acc_theta", "acc_psi", "acc_z", "acc_x", "acc_y"]
REF_COLUMNS = ["ref_roll", "ref_pitch", "ref_yaw", "ref_z"]
PER_SUBSYSTEM = ["u", "u0", "f_hat", "x1_hat", "x2_hat", "sat"]
DELTA_COLUMNS = ["delta_a", "delta_b", "delta_c", "delta_d", "delta_e", "delta_f"]

COLUMNS = (["t"] + STATE_COLUMNS + ACCEL_COLUMNS + REF_COLUMNS
           + [f"{f}_{s}" for s in SUBSYSTEMS for f in PER_SUBSYSTEM]
           + ["G"] + DELTA_COLUMNS + ["omega_r", "rotor_sat"])


class TraceLog:
    """Uniform-grid record of one simulation run: one float64 array
    (``rows``, one row per record) under named columns."""

    def __init__(self, columns=None, capacity: int = 0):
        self.columns = list(columns) if columns is not None else list(COLUMNS)
        self._data = np.empty((capacity, len(self.columns)))
        self._n = 0

    @property
    def rows(self) -> np.ndarray:
        """Read-only view of the records; ``column`` and ``as_array`` slice it."""
        view = self._data[:self._n]
        view.flags.writeable = False
        return view

    def append(self, row):
        if len(row) != len(self.columns):
            raise InvalidParameterError("row width does not match columns")
        if self._n == len(self._data):
            self._data = np.resize(self._data, (2 * self._n + 1, len(self.columns)))
        self._data[self._n] = row
        self._n += 1

    def __len__(self):
        return self._n

    def column(self, name: str) -> np.ndarray:
        try:
            idx = self.columns.index(name)
        except ValueError:
            raise KeyError(name) from None
        return self.rows[:, idx]

    def as_array(self) -> np.ndarray:
        return self.rows

    def to_csv(self, path):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerow(self.columns)
            # a float's repr holds no character that csv.writer would quote
            for i in range(0, self._n, CSV_CHUNK_ROWS):
                block = self._data[i:min(i + CSV_CHUNK_ROWS, self._n)].tolist()
                fh.write("".join([",".join(map(repr, row)) + "\r\n" for row in block]))

    @classmethod
    def from_csv(cls, path) -> "TraceLog":
        with open(path, newline="", encoding="utf-8") as fh:
            header = next(csv.reader(fh), None)
            if not header:
                raise InvalidParameterError(f"{path}: empty trace file")
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # a header without records
                data = np.loadtxt(fh, delimiter=",", ndmin=2)
        if data.size == 0:
            data = np.empty((0, len(header)))
        if data.shape[1] != len(header):
            raise InvalidParameterError("row width does not match columns")
        log = cls(columns=header)
        log._data, log._n = data, len(data)
        return log


def _rk4(deriv_fn, t: float, y, lagged, dt: float, k1) -> tuple[list, list]:
    """Classical fourth-order step over float sequences from the first-stage
    derivative ``k1``; returns the new state and the final-stage accelerations."""
    h = 0.5 * dt
    k2, _ = deriv_fn(t + h, [a + h * b for a, b in zip(y, k1)], lagged)
    k3, _ = deriv_fn(t + h, [a + h * b for a, b in zip(y, k2)], lagged)
    k4, acc = deriv_fn(t + dt, [a + dt * b for a, b in zip(y, k3)], lagged)
    if not all(map(math.isfinite, chain(k1, k2, k3, k4))):
        raise IntegrationError(t)
    sixth = dt / 6.0
    return [a + sixth * (b + 2 * c + 2 * d + e) for a, b, c, d, e in zip(y, k1, k2, k3, k4)], acc


def rk4_step(state: QuadState, deriv_fn, t: float, dt: float) -> QuadState:
    """Classical fourth-order step.

    ``deriv_fn(t, vector, lagged) -> (derivative, accelerations)``; the
    lagged accelerations are held constant over the step and replaced by
    the final-stage accelerations afterwards.
    """
    if dt <= 0:
        raise InvalidParameterError("dt must be positive")
    y0, lag = state.vector, state.lagged_accel
    vector, acc = _rk4(lambda tau, y, lg: deriv_fn(tau, np.array(y), lg), t, y0, lag, dt,
                       deriv_fn(t, np.array(y0), lag)[0])
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
    z_G_at = (lambda t, z_G=masses.z_G: z_G) if d1 is None else (lambda t: masses.z_G_at(d1(t)))
    ref_roll, ref_pitch, ref_yaw, ref_z = (scenario.ref_roll, scenario.ref_pitch,
                                           scenario.ref_yaw, scenario.ref_z)
    dt, m, mixer, ia = scenario.dt, params.m, params.mixer, params.inertia

    if scenario.open_loop:
        u1 = scenario.open_loop_u1

        def control(t, y, dist, refs, ctrl):
            # the open-loop fixture drives the thrust channel directly
            return ctrl[0], (u1(t), 0.0, 0.0, 0.0, 0.0), ctrl[2], False
    else:
        gains, b_att = gains or ControllerGains(), (ia.a6, ia.a7, ia.a8)
        configs = [adrc.SubsystemConfig(which=name, b_hat=b, eso=gains.eso_for(name),
                                        pd=gains.pd_for(name), u_limits=gains.u_limits[name])
                   for name, b in zip(SUBSYSTEMS, (*b_att, -1.0 / m))]

        def control(t, y, dist, refs, ctrl):
            b_alt, _ = adrc.b_hat_altitude(y[0], y[2], dist[6], m)
            obs, signals = [], []
            for o, j, ref, b, cfg in zip(ctrl[0], (0, 2, 4, 6), refs, (*b_att, b_alt), configs):
                o, u0, sat, _ = adrc.update(o, y[j], ref, 0.0, b, cfg, dt)
                obs.append(o)
                signals += o[3], u0, o[2], o[0], o[1], sat
            U = (obs[3][3], obs[0][3], obs[1][3], obs[2][3])
            w2, rotor_sat = realize(U, mixer)
            return (tuple(obs), (*U, relative_speed([math.sqrt(w) for w in w2])),
                    tuple(signals), rotor_sat)

    def step(t, y, lagged, ctrl, final=False):
        z_G = z_G_at(t)
        dist = lump_f(y, lagged, t, z_G)
        refs = (ref_roll(t), ref_pitch(t), ref_yaw(t), ref_z(t))
        if not final:
            ctrl = control(t, y, dist, refs, ctrl)
        u = ctrl[1]
        row = (t, *y, *lagged, *refs, *ctrl[2], dist[6], *dist[:6], u[4], ctrl[3])
        if not final:
            try:
                y, lagged = _rk4(lambda tau, s, lag: deriv_f(s, u, lump_f(s, lag, tau, z_G)),
                                 t, y, lagged, dt, deriv_f(y, u, dist)[0])
            except OverflowError:  # a square beyond the float range
                raise IntegrationError(t) from None
        return y, lagged, ctrl, row
    return step


def run(scenario: Scenario, params: QuadParams,
        dist_params: DisturbanceParams | None = None,
        gains: ControllerGains | None = None) -> TraceLog:
    """Integrate the closed loop (or the open-loop fixture) and log it;
    each period is one ``loop_kernel`` step."""
    step = loop_kernel(scenario, params, dist_params, gains)
    dt, n, ctrl = scenario.dt, scenario.n_steps, CONTROL_START
    y = scenario.initial_state.vector.tolist()
    lagged = scenario.initial_state.lagged_accel.tolist()
    log = TraceLog(capacity=n + 1)
    for k in range(n):
        t = k * dt
        y, lagged, ctrl, row = step(t, y, lagged, ctrl)
        log.append(row)
        if not all(map(math.isfinite, y)) or max(map(abs, y)) > DIVERGENCE_LIMIT:
            raise DivergenceError(t + dt)
    log.append(step(n * dt, y, lagged, ctrl, final=True)[3])
    return log


def estimation_oracle(trace: TraceLog, params: QuadParams,
                      dist_params: DisturbanceParams | None = None,
                      flags: DisturbanceFlags | None = None,
                      d1_profile=None) -> dict:
    """Reconstruct each subsystem's true total disturbance from the log.

    The reconstruction repeats the model algebra (everything in the
    acceleration row except the b_hat*u term) from the logged states, with
    the loop's own lump kernel bound to numpy and applied once to whole
    columns, so it is independent of the observer path it is checked
    against.  With ``d1_profile`` each row uses the arm position of its
    time, as ``run`` does.  Returns per subsystem: true series, estimated
    series, error series.
    """
    flags = flags or DisturbanceFlags.all_on()
    lump_f = lump_kernel(dist_params or DisturbanceParams(), flags, params.m,
                         sin=np.sin, maximum=np.maximum)
    ia, t = params.inertia, trace.column("t")
    s = [trace.column(c) for c in STATE_COLUMNS]
    z_G = (params.masses.z_G if d1_profile is None
           else params.masses.z_G_at(np.array([d1_profile(v) for v in t.tolist()])))
    delta = lump_f(s, [trace.column(c) for c in ACCEL_COLUMNS], t, z_G)
    x2, x4, x6, omega_r = s[1], s[3], s[5], trace.column("omega_r")
    f_true = {
        ROLL: ia.a1 * x4 * x6 - ia.a2 * x4 * omega_r + delta[0],
        PITCH: ia.a3 * x2 * x6 + ia.a4 * x2 * omega_r + delta[1],
        YAW: ia.a5 * x2 * x4 + delta[2],
        ALTITUDE: params.g + delta[3],
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
