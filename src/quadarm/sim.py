"""Fixed-step closed-loop simulation, scenarios, and trace logging."""

from __future__ import annotations

import functools
import math
import struct
import warnings
from dataclasses import dataclass, field
from math import isfinite, sqrt

import numpy as np

from . import adrc, render
from .adrc import ALTITUDE, PITCH, ROLL, SUBSYSTEMS, YAW
from .disturbances import LUMP, DisturbanceFlags, DisturbanceParams, lump_constants
from .errors import DivergenceError, IntegrationError, InvalidParameterError
from .model import (DERIVATIVE, INVERSE, MIXER, SPEED, QuadParams, QuadState,
                    derivative_constants)

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


def rk4_step(state: QuadState, deriv_fn, t: float, dt: float) -> QuadState:
    """Classical fourth-order step; ``IntegrationError`` for a non-finite state.

    ``deriv_fn(t, vector, lagged) -> (derivative, accelerations)``; the
    lagged accelerations are held constant over the step and replaced by
    the final-stage accelerations afterwards.
    """
    if not 0 < dt < math.inf:  # NaN too
        raise InvalidParameterError("dt must be positive and finite")
    y, h, k = state.vector, 0.5 * dt, []
    with np.errstate(all="ignore"):  # float arithmetic: an overflow is inf, checked below
        for tau, step in ((t, None), (t + h, h), (t + h, h), (t + dt, dt)):
            s = y.copy() if step is None else y + step * k[-1]
            derivative, acc = deriv_fn(tau, s, state.lagged_accel)
            k.append(np.asarray(derivative, dtype=float))
        y = y + dt / 6.0 * (k[0] + 2.0 * k[1] + 2.0 * k[2] + k[3])
    if not np.all(np.isfinite(y)):
        raise IntegrationError(t)
    return QuadState(y, acc)


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


#: one run: each period lumps the disturbances at t, updates the control, logs the
#: record and integrates to t + dt in four RK4 stages; the last record only logs.
#: ``loop_text`` fills each ``@`` line with formulas of ``disturbances``, ``model``, ``adrc``
LOOP = """\
y1, y2, y3, y4, y5, y6, y7, y8, y9, y10, y11, y12 = y
d_x2, d_x4, d_x6, d_x8, d_x10, d_x12 = lagged
@step
if not open_loop:
    @gains
    @inverse
# the control columns hold 0.0 until a loop updates them
@quiet
U1 = U2 = U3 = U4 = omega_r = 0.0
rotor_sat = False
try:
    for k in range(steps + 1):
        t = k * dt
        z_G = z_G_fixed if arm_at is None else z_G_at(arm_at(t))
        @lump
        ref_roll, ref_pitch, ref_yaw, ref_altitude = fixed_refs or (
            roll_at(t), pitch_at(t), yaw_at(t), z_at(t))
        if open_loop:
            U1 = u1_at(t)  # the fixture drives the thrust channel directly
        elif k < steps:
            @b_hat
            @control
            U1, U2, U3, U4 = u_altitude, u_roll, u_pitch, u_yaw
            @mixer
            @speed
        append((t, y1, y2, y3, y4, y5, y6, y7, y8, y9, y10, y11, y12,
                d_x2, d_x4, d_x6, d_x8, d_x10, d_x12, ref_roll, ref_pitch, ref_yaw, ref_altitude,
                u_roll, u0_roll, x3_roll, x1_roll, x2_roll, saturated_roll,
                u_pitch, u0_pitch, x3_pitch, x1_pitch, x2_pitch, saturated_pitch,
                u_yaw, u0_yaw, x3_yaw, x1_yaw, x2_yaw, saturated_yaw,
                u_altitude, u0_altitude, x3_altitude, x1_altitude, x2_altitude,
                saturated_altitude, G, delta_a, delta_b, delta_c, delta_d, delta_e, delta_f,
                omega_r, rotor_sat))
        if k == steps:
            break
        @stages
        # a non-finite slope leaves a non-finite entry; a float sum is finite only if each addend is
        if (not isfinite(y1 + y2 + y3 + y4 + y5 + y6 + y7 + y8 + y9 + y10 + y11 + y12)
                and not all(map(isfinite, (y1, y2, y3, y4, y5, y6, y7, y8, y9, y10, y11, y12)))):
            raise IntegrationError(t)
        d_x2, d_x4, d_x6, d_x8, d_x10, d_x12 = dx2_4, dx4_4, dx6_4, dx8_4, dx10_4, dx12_4
        if max(map(abs, (y1, y2, y3, y4, y5, y6, y7, y8, y9, y10, y11, y12))) > limit:
            raise DivergenceError(t + dt)
except (OverflowError, ValueError):  # x ** 2 past the float range, sin(inf)
    raise IntegrationError(t) from None
"""


@functools.cache
def loop_text() -> str:
    """``LOOP`` with its formulas filled in: the body of ``run``'s kernel."""
    states = range(1, 13)
    carried = {f"x{i}": f"y{i}" for i in states}  # the first stage is at the carried state

    def slopes(s):  # the derivative of stage ``s``
        return {f"dx{i}": f"dx{i}_{s}" for i in states}

    def per_loop(text):  # ``text`` for loop i, in names of its own, measuring y<2i+1>
        return "".join(render.rename(text, {
            **{w: f"{w}_{name}" for w in adrc.OWN}, "y": f"y{2 * i + 1}", "i": str(i)})
            for i, name in enumerate(SUBSYSTEMS))
    return render.fill(
        LOOP, step=adrc.STEP, inverse=INVERSE, lump=render.rename(LUMP, carried), mixer=MIXER,
        speed=render.rename(SPEED, {f"omega{i}": f"sqrt(w{i})" for i in range(1, 5)}),
        gains=per_loop(", ".join(adrc.GAINS) + ", b = loops[i]\n"),
        quiet=per_loop("u = u0 = x1 = x2 = x3 = saturated = 0.0\n"),
        b_hat=render.rename(adrc.B_HAT + adrc.CLAMP, {"b": "b_altitude", "phi": "y1",
                                                       "theta": "y3"}),
        control=per_loop(render.fill("if k:\n    @observe\nelse:\n    @start\n@pd\n@cancel\n",
                                     observe=adrc.OBSERVE, start=adrc.START, pd=adrc.PD,
                                     cancel=adrc.CANCEL)),
        stages=render.rename(DERIVATIVE, {**carried, **slopes(1)}) + "".join(
            "".join(f"x{i} = y{i} + {step} * dx{i}_{s - 1}\n" for i in states)
            + render.rename(LUMP, {"t": f"(t + {step})"}) + render.rename(DERIVATIVE, slopes(s))
            for s, step in ((2, "h"), (3, "h"), (4, "dt"))) + "".join(
            f"y{i} = y{i} + sixth * (dx{i}_1 + 2.0 * dx{i}_2 + 2.0 * dx{i}_3 + dx{i}_4)\n"
            for i in states))


def run(scenario: Scenario, params: QuadParams,
        dist_params: DisturbanceParams | None = None,
        gains: ControllerGains | None = None) -> TraceLog:
    """Integrate the closed loop (or the open-loop fixture) and log it: the
    rendering of ``loop_text`` with this run's constants."""
    n, open_loop, masses = scenario.n_steps, scenario.open_loop, params.masses
    profiles = (scenario.ref_roll, scenario.ref_pitch, scenario.ref_yaw, scenario.ref_z)
    loops = None if open_loop else (gains or ControllerGains()).loops(params)
    constants = {
        **lump_constants(dist_params or DisturbanceParams(), scenario.flags, params.m),
        **derivative_constants(params), "dt": scenario.dt,
        "steps": n, "z_G_fixed": masses.z_G, "z_G_at": masses.z_G_at,
        "arm_at": scenario.d1_profile, "open_loop": open_loop, "u1_at": scenario.open_loop_u1,
        # a one-segment profile holds its value at every t
        "fixed_refs": (tuple(p.segments[0][1] for p in profiles)
                       if all(len(p.segments) == 1 for p in profiles) else None),
        **dict(zip(("roll_at", "pitch_at", "yaw_at", "z_at"), profiles)),
        "loops": loops and tuple((*adrc.loop_gains(c), c.b_hat) for c in loops),
        "inverse": None if open_loop else params.mixer.inverse,
        "rate": 0.0,  # a piecewise-constant reference has no rate
        "b_min": adrc.B_MIN, "sqrt": sqrt, "isfinite": isfinite,
        "limit": DIVERGENCE_LIMIT, "IntegrationError": IntegrationError,
        "DivergenceError": DivergenceError}
    log = TraceLog(n + 1)
    state = scenario.initial_state
    render.kernel("loop", constants, "append, y, lagged", loop_text())(
        log.append, state.vector.tolist(), state.lagged_accel.tolist())
    return log


def estimation_oracle(trace: TraceLog, params: QuadParams,
                      dist_params: DisturbanceParams | None = None,
                      flags: DisturbanceFlags | None = None) -> dict:
    """Reconstruct each subsystem's true total disturbance from the log: the
    model algebra (the acceleration row but its b_hat*u term) on the logged
    rates and rotor speed, plus the logged lumped disturbances, so no term
    passes through the observers it is checked against.  ``dist_params`` and
    ``flags`` are unread.  Returns per subsystem: true, estimated and error series.
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
