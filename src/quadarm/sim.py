"""Fixed-step closed-loop simulation, scenarios, and trace logging."""

from __future__ import annotations

import bisect
import contextlib
import errno
import functools
import io
import itertools
import math
import os
import signal
import struct
import sys
import threading
import warnings
from dataclasses import dataclass, field
from math import isfinite, sqrt

import numpy as np

from . import adrc, render
from .adrc import ALTITUDE, PITCH, ROLL, SUBSYSTEMS, YAW
from .disturbances import (COUPLING, GUST, LUMP, OUTPUTS, DisturbanceFlags, DisturbanceParams,
                           lump_constants)
from .errors import (DivergenceError, IntegrationError, InvalidParameterError, Record, floats,
                     in_range, ranged)
from .model import (DERIVATIVE, INVERSE, MIXER, SPEED, THRUST, TRIG, QuadParams, QuadState,
                    derivative_constants)

DIVERGENCE_LIMIT = 1e6
#: the largest |roll| and |pitch| of a run; past it the thrust no longer lifts
ATTITUDE_LIMIT = math.pi / 2
MAX_STEPS = 10 ** 7  #: most steps a scenario may ask for: 4.5 GB of trace at 448 B a record

DEG = math.pi / 180.0


@dataclass(frozen=True)
class PiecewiseConstant:
    """Right-continuous step profile: list of (t_start, value), sorted."""

    segments: tuple = ((0.0, 0.0),)  # of (t_start, value), stored as floats

    def __post_init__(self):
        if not isinstance(self.segments, (list, tuple)):
            raise InvalidParameterError("profile needs a list of [t_start, value] segments")
        segments = [floats(segment, 2, "profile segment needs [t_start, value] as two finite "
                           "numbers", "finite") for segment in self.segments]
        object.__setattr__(self, "segments", tuple(segments))  # frozen: keep the floats
        if not segments:
            raise InvalidParameterError("profile needs at least one segment")
        if segments != sorted(segments, key=lambda segment: segment[0]):
            raise InvalidParameterError("profile segments must be time-sorted")

    def __call__(self, t: float) -> float:
        """The value of the last segment that starts by ``t``, else the first one's."""
        return next((v for t_start, v in reversed(self.segments) if t >= t_start),
                    self.segments[0][1])

    @classmethod
    def constant(cls, value: float) -> "PiecewiseConstant":
        return cls(((0.0, value),))


@dataclass(frozen=True)
class Scenario(Record):
    duration: float = ranged("non-negative", 10.0)
    dt: float = ranged("positive", 0.001)
    initial_state: QuadState = field(default_factory=QuadState)
    # piecewise-constant reference per controlled subsystem
    ref_roll: PiecewiseConstant = field(default_factory=lambda: PiecewiseConstant.constant(5 * DEG))
    ref_pitch: PiecewiseConstant = field(default_factory=lambda: PiecewiseConstant.constant(5 * DEG))
    ref_yaw: PiecewiseConstant = field(default_factory=lambda: PiecewiseConstant.constant(5 * DEG))
    ref_z: PiecewiseConstant = field(default_factory=lambda: PiecewiseConstant.constant(5.0))
    flags: DisturbanceFlags = field(default_factory=DisturbanceFlags.all_on)
    d1_profile: PiecewiseConstant | None = None  # arm position; None = constant default
    open_loop: bool = ranged("switch", False)
    open_loop_u1: PiecewiseConstant = field(default_factory=lambda: PiecewiseConstant.constant(0.0))

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
DELTA_COLUMNS = list(OUTPUTS[:6])

#: each trace column, in record order, with the ``LOOP`` variable it logs
RECORD = {"t": "t", **{c: f"y{i}" for i, c in enumerate(STATE_COLUMNS, 1)},
          **{c: f"d_x{2 * i}" for i, c in enumerate(ACCEL_COLUMNS, 1)},
          **{f"ref_{c}": f"ref_{s}" for c, s in zip((ROLL, PITCH, YAW, "z"), SUBSYSTEMS)},
          **{f"{f}_{s}": f"{v}_{s}" for s in SUBSYSTEMS for f, v in adrc.SIGNALS.items()},
          **{c: c for c in (OUTPUTS[6], *DELTA_COLUMNS, "omega_r", "rotor_sat")}}
COLUMNS = tuple(RECORD)


#: fewest rows in each half of a split ``to_csv`` or ``from_csv``; a fork, a wait and a
#: sendfile cost about 5 ms.  Two halves against one process, in sets of 12 interleaved
#: pairs on a 2-vCPU VM (Python 3.11, one BLAS thread): 1001 rows 1.05-1.09x in
#: four sets; 2001 rows 0.58-0.71x in three, 1.04x and 1.19x in two (the second
#: vCPU busy); 3001 rows 0.61-0.66x in three; 10001 rows 0.55-0.56x in two.
PART_ROWS = 1000


def csv_lines(rows):
    """csv.writer's line for each row of numbers: no int or float repr needs quoting."""
    return (",".join(map(repr, row)) + "\r\n" for row in rows)


def write_rows(path, header, rows) -> None:
    """Write ``header``'s names and each row's ``csv_lines`` to ``path``."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(csv_lines(rows))


def forkable() -> bool:
    """Whether this process may run a trace's halves in two: Linux's fork and memfd, a Python
    before 3.12 (whose fork warns about the threads of numpy's BLAS), no other Python thread
    and a second usable CPU."""
    return (sys.version_info < (3, 12) and hasattr(os, "fork") and hasattr(os, "memfd_create")
            and threading.active_count() == 1 and len(os.sched_getaffinity(0)) > 1)


def csv_split(n_rows: int) -> bool:
    """Whether a trace of ``n_rows`` records is written or read in two processes: at least
    ``PART_ROWS`` rows in each half, and ``forkable``."""
    return n_rows >= 2 * PART_ROWS and forkable()


@contextlib.contextmanager
def halves(path, child, own):
    """Run ``child(fd)`` in a forked process that blocks every signal and writes into the new
    memfd ``fd``, and ``own()`` here; yield ``own()``'s value and ``fd``.  A child's ``OSError``
    (EIO for any other error) or signal raises here, naming ``path``.  Leaving the block, or an
    error in ``own``, kills and reaps the child."""
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, ())  # unchanged
    every = signal.valid_signals()
    fd, pid, code = os.memfd_create("quadarm-half"), [], errno.EIO
    try:
        # With every signal blocked, the child takes none before its ``try``;
        # ``extend`` records the pid in C, so no handler can raise before then.
        signal.pthread_sigmask(signal.SIG_BLOCK, every)
        pid.extend(itertools.starmap(os.fork, [()]))
        if not pid[0]:  # the child, which leaves only through ``os._exit``
            try:
                child(fd)
                code = 0
            except OSError as exc:
                code = exc.errno or errno.EIO
            finally:
                os._exit(code)
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        result = own()
        # leaves the child a zombie, so that its pid stays ours until reaped below
        ended = os.waitid(os.P_PID, pid[0], os.WEXITED | os.WNOWAIT)
        if ended.si_code != os.CLD_EXITED:
            raise ChildProcessError(f"{os.fspath(path)}: half ended by signal {ended.si_status}")
        if ended.si_status:
            raise OSError(ended.si_status, os.strerror(ended.si_status), os.fspath(path))
        yield result, fd
    finally:
        try:  # no handler runs until the child is reaped, even if this raises
            signal.pthread_sigmask(signal.SIG_BLOCK, every)
        finally:
            if pid and pid[0] > 0:  # ([0] only in the child, which never gets here)
                os.kill(pid[0], signal.SIGKILL)  # a no-op on a done child's zombie
                os.waitpid(pid[0], 0)
            os.close(fd)
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)


class Span(io.RawIOBase):
    """Bytes ``at`` to ``end`` of the file open at ``fd``, by ``pread``: no shared offset."""

    def __init__(self, fd, at, end):
        self.fd, self.at, self.end = fd, at, end

    def readable(self):
        return True

    def readinto(self, buffer):
        self.at += (got := os.preadv(self.fd, [memoryview(buffer)[:self.end - self.at]], self.at))
        return got


class TraceLog:
    """Record of one simulation run: ``n_records`` rows of the ``COLUMNS`` layout
    in one float64 array, filled in order by ``append`` or ``run``'s loop."""

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
        """Write the header and the records' ``csv_lines`` to ``path``, one record at a time; a
        forked child (``halves``) formats the second half into a memfd (about 1 kB a record)
        when ``csv_split`` allows, which this process appends by ``sendfile``."""
        rows = self._data[:self._n]
        if not csv_split(len(rows)):
            write_rows(path, COLUMNS, self._row.iter_unpack(rows))
            return
        half = len(rows) // 2

        def tail(fd):
            with open(fd, "w", newline="", encoding="utf-8", closefd=False) as part:
                part.writelines(csv_lines(self._row.iter_unpack(rows[half:])))

        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(self._header + "\r\n")
            with halves(path, tail, lambda: fh.writelines(
                    csv_lines(self._row.iter_unpack(rows[:half])))) as (_, fd):
                fh.flush()
                offset, size = 0, os.fstat(fd).st_size
                while offset < size:
                    offset += os.sendfile(fh.fileno(), fd, offset, size - offset)

    @classmethod
    def read_header(cls, fh, path) -> None:
        """Read the first line of the trace file ``fh`` opened at ``path``;
        raise ``InvalidParameterError`` naming ``path`` unless it is the header."""
        try:
            line = fh.readline(len(cls._header) + 2)  # a longer line cannot match
        except UnicodeDecodeError as exc:  # in the first chunk the reader decodes
            raise InvalidParameterError(f"{path}: {exc}") from None
        if not line:
            raise InvalidParameterError(f"{path}: empty trace file")
        if line.rstrip("\r\n") != cls._header:
            raise InvalidParameterError(f"{path}: header is not the trace's columns")

    @classmethod
    def from_csv(cls, path) -> "TraceLog":
        """Read a ``to_csv`` file back bit for bit: in two processes (``halves``), split at the
        first line end past its middle, when ``csv_split`` allows (its lines are counted only
        when ``forkable``), the header is the trace's and both halves parse."""
        with open(path, "rb", 1 << 16) as fh, warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # a header without records
            fd, size, data = fh.fileno(), os.fstat(fh.fileno()).st_size, None

            def lines(at, end):  # the text from ``at``; at 0, past the header, which is checked
                text = io.TextIOWrapper(io.BufferedReader(Span(fd, at, end)), "utf-8", newline="")
                if not at:
                    cls.read_header(text, path)
                return text

            def rows(text):  # the records left in ``text``
                found = np.loadtxt(text, delimiter=",", ndmin=2)  # no records load as (0, 1)
                if found.size and found.shape[1] != len(COLUMNS):
                    raise ValueError("row width does not match columns")
                return found

            def tail(part):  # writes nothing unless its rows parse
                with contextlib.suppress(ValueError), open(part, "wb") as out:
                    out.write(rows(lines(cut, size)))

            if forkable() and csv_split(sum(1 for _ in fh) - 1):  # the header's line holds none
                cut = size // 2 + len(io.BufferedReader(Span(fd, size // 2, size)).readline())
                with (contextlib.suppress(ValueError),  # the header is checked before the fork
                      halves(path, tail, functools.partial(rows, lines(0, cut))) as (head, part)):
                    if more := os.fstat(part).st_size // cls._row.size:
                        n = len(head)  # grown in place: glibc's realloc moves pages by mremap
                        head.resize((n + more, len(COLUMNS)), refcheck=False)
                        io.BufferedReader(Span(part, 0, head[n:].nbytes)).readinto(head[n:])
                        data = head
            try:
                data = rows(lines(0, size)) if data is None else data
            except ValueError as exc:  # a ragged, a non-numeric or a narrow row
                raise InvalidParameterError(f"{path}: {exc}") from None
        log = cls(0)
        log._data, log._n = data.reshape(-1, len(COLUMNS)), len(data)
        return log


def rk4_step(state: QuadState, deriv_fn, t: float, dt: float) -> QuadState:
    """Classical fourth-order step; ``IntegrationError`` for a non-finite state.

    ``deriv_fn(t, vector, lagged) -> (derivative, accelerations)``; the
    lagged accelerations are held constant over the step and replaced by
    the final-stage accelerations afterwards.
    """
    in_range("positive", dt=dt)
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
class ControllerGains(Record):
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

    def __post_init__(self):
        super().__post_init__()
        in_range(dict, eso_overrides=self.eso_overrides, u_limits=self.u_limits)
        for table in ("eso_overrides", "u_limits"):
            for name in getattr(self, table):
                if name not in SUBSYSTEMS:
                    raise InvalidParameterError(f"unknown subsystem {name!r} in {table}")
        in_range(adrc.EsoGains, **{f"eso_overrides.{n}": e for n, e in self.eso_overrides.items()})
        for name in SUBSYSTEMS:
            if name not in self.u_limits:
                raise InvalidParameterError(f"u_limits lacks the {name} loop")

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
        if k in changes:
            ref_roll, ref_pitch, ref_yaw, ref_altitude, z_G, u1 = changes[k]
        @lump
        @trig
        if open_loop:
            U1 = u1  # the fixture drives the thrust channel directly
        elif k < steps:
            @b_hat
            @control
            U1, U2, U3, U4 = u_altitude, u_roll, u_pitch, u_yaw
            @mixer
            @speed
        @record
        if k == steps:
            break
        @stages
        # NaN lies within no bound; past one, a non-finite entry means a non-finite slope
        if not (tilt_low <= y1 <= tilt and low <= y2 <= limit and tilt_low <= y3 <= tilt
                and low <= y4 <= limit and low <= y5 <= limit and low <= y6 <= limit
                and low <= y7 <= limit and low <= y8 <= limit and low <= y9 <= limit
                and low <= y10 <= limit and low <= y11 <= limit and low <= y12 <= limit):
            if not all(map(isfinite, (y1, y2, y3, y4, y5, y6, y7, y8, y9, y10, y11, y12))):
                raise IntegrationError(t)
            raise DivergenceError(t + dt)
        d_x2, d_x4, d_x6, d_x8, d_x10, d_x12 = dx2_4, dx4_4, dx6_4, dx8_4, dx10_4, dx12_4
except (OverflowError, ValueError):  # x ** 2 past the float range, sin(inf)
    raise IntegrationError(t) from None
"""


@functools.cache
def loop_text() -> str:
    """``LOOP`` with its formulas filled in: the body of ``run``'s kernel, which takes the
    first stage's ``TRIG`` for b_hat too and the middle two stages' ``GUST`` once."""
    states = range(1, 13)
    carried = {f"x{i}": f"y{i}" for i in states}  # the first stage is at the carried state

    def slopes(s):  # the derivative of stage ``s``
        return {f"dx{i}": f"dx{i}_{s}" for i in states}

    def per_loop(text):  # ``text`` for loop i, in names of its own, measuring y<2i+1>
        return "".join(render.rename(text, {
            **{w: f"{w}_{name}" for w in adrc.OWN}, "y": f"y{2 * i + 1}", "i": str(i)})
            for i, name in enumerate(SUBSYSTEMS))
    return render.fill(
        LOOP, step=adrc.STEP, inverse=INVERSE, lump=render.rename(COUPLING + GUST + LUMP, carried),
        trig=render.rename(TRIG, carried), mixer=MIXER, speed=SPEED,
        record=f"pack_into(records, k * row_bytes, {', '.join(RECORD.values())})\n",
        gains=per_loop(", ".join(adrc.GAINS) + ", b = loops[i]\n"),
        quiet=per_loop(f"{' = '.join(adrc.SIGNALS.values())} = 0.0\n"),
        b_hat=render.rename(adrc.B_HAT + adrc.CLAMP, {"b": "b_altitude", "cos_phi": "cos1",
                                                       "cos_theta": "cos3"}),
        control=per_loop(adrc.CONTROL),
        stages=THRUST + render.rename(DERIVATIVE, {**carried, **slopes(1)}) + "".join(
            "".join(f"x{i} = y{i} + {step} * dx{i}_{s - 1}\n" for i in states)
            + ("" if s == 3 else render.rename(GUST, {"t": f"(t + {step})"}))  # 3 is at 2's time
            + LUMP + TRIG + render.rename(DERIVATIVE, slopes(s))
            for s, step in ((2, "h"), (3, "h"), (4, "dt"))) + "".join(
            f"y{i} = y{i} + sixth * (dx{i}_1 + 2.0 * dx{i}_2 + 2.0 * dx{i}_3 + dx{i}_4)\n"
            for i in states))


def run(scenario: Scenario, params: QuadParams,
        dist_params: DisturbanceParams | None = None,
        gains: ControllerGains | None = None) -> TraceLog:
    """Integrate the closed loop (or the open-loop fixture) and log it: the
    rendering of ``loop_text`` with this run's constants."""
    dist_params = DisturbanceParams() if dist_params is None else dist_params
    gains = ControllerGains() if gains is None else gains
    in_range(Scenario, scenario=scenario)
    in_range(QuadParams, params=params)
    in_range(DisturbanceParams, dist_params=dist_params)
    in_range(ControllerGains, gains=gains)
    n, dt, open_loop, masses = scenario.n_steps, scenario.dt, scenario.open_loop, params.masses
    refs = (scenario.ref_roll, scenario.ref_pitch, scenario.ref_yaw, scenario.ref_z)
    arm, u1 = scenario.d1_profile or PiecewiseConstant.constant(masses.d1), scenario.open_loop_u1
    # a profile takes a new value only at the first step whose k * dt reaches a segment start
    steps = {0, *(bisect.bisect_left(range(n + 1), t_start, key=dt.__rmul__)
                  for p in (*refs, arm, u1) for t_start, _ in p.segments)}
    changes = {k: (*(p(k * dt) for p in refs), masses.z_G_at(arm(k * dt)), u1(k * dt))
               for k in steps if k <= n}
    loops = None if open_loop else gains.loops(params)
    log = TraceLog(n + 1)
    constants = {
        **lump_constants(dist_params, scenario.flags, params.m),
        **derivative_constants(params), "dt": dt, "steps": n, "open_loop": open_loop,
        "changes": changes,
        "loops": loops and tuple((*adrc.loop_gains(c), c.b_hat) for c in loops),
        "inverse": None if open_loop else params.mixer.inverse,
        "rate": 0.0,  # a piecewise-constant reference has no rate
        "b_min": adrc.B_MIN, "sqrt": sqrt, "isfinite": isfinite, "low": -DIVERGENCE_LIMIT,
        "limit": DIVERGENCE_LIMIT, "tilt_low": -ATTITUDE_LIMIT, "tilt": ATTITUDE_LIMIT,
        "IntegrationError": IntegrationError, "DivergenceError": DivergenceError,
        "pack_into": log._row.pack_into, "records": memoryview(log._data),
        "row_bytes": log._row.size}
    render.kernel("loop", constants, "y, lagged", loop_text())(*scenario.initial_state.read())
    log._n = n + 1  # every record, packed in place by the loop
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
