import contextlib
import csv
import errno
import gc
import io
import math
import os
import shutil
import signal
import subprocess
import sys
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from quadarm import (ControllerGains, DisturbanceFlags, DisturbanceParams, EsoGains,
                     InertiaParams, MassProperties, PdGains, PiecewiseConstant, QuadParams,
                     QuadState, Scenario, TraceLog, estimation_oracle, rk4_step, run)
from quadarm import render
from quadarm import sim as sim_mod
from quadarm.adrc import SUBSYSTEMS
from quadarm.config import load, resolve
from quadarm.disturbances import DragParams, lump, lump_constants
from quadarm.errors import DivergenceError, IntegrationError, InvalidParameterError
from quadarm.model import derivative_constants, derivative_kernel
from quadarm.sim import ACCEL_COLUMNS, COLUMNS, DELTA_COLUMNS, STATE_COLUMNS
from test_reference import matches_run


def built_per_duration(cls, monkeypatch, simulate) -> list:
    """Validated ``cls`` objects that ``simulate(duration)`` builds for 0.1 s and 1 s."""
    built = []
    check = cls.__post_init__

    def counted(self):
        built.append(1)
        check(self)

    monkeypatch.setattr(cls, "__post_init__", counted)
    counts = []
    for duration in (0.1, 1.0):
        built.clear()
        simulate(duration)
        counts.append(len(built))
    return counts


class TestPiecewiseConstant:
    def test_constant(self):
        p = PiecewiseConstant.constant(3.5)
        assert p(0.0) == p(100.0) == 3.5

    def test_steps_right_continuous(self):
        p = PiecewiseConstant(((0.0, 1.0), (2.0, -1.0), (5.0, 0.5)))
        assert p(0.0) == 1.0
        assert p(1.999) == 1.0
        assert p(2.0) == -1.0
        assert p(4.999) == -1.0
        assert p(5.0) == 0.5
        assert p(50.0) == 0.5

    def test_before_first_segment(self):
        p = PiecewiseConstant(((1.0, 7.0),))
        assert p(0.0) == 7.0

    def test_unsorted_rejected(self):
        with pytest.raises(InvalidParameterError):
            PiecewiseConstant(((1.0, 0.0), (0.0, 1.0)))

    def test_empty_rejected(self):
        with pytest.raises(InvalidParameterError):
            PiecewiseConstant(())

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidParameterError):
            PiecewiseConstant(((0.0, math.inf),))

    @pytest.mark.parametrize("segment", [(0, 1, 2), (0,), 5, None])
    def test_segment_of_two_entries(self, segment):
        with pytest.raises(InvalidParameterError, match=r"segment needs \[t_start, value\]"):
            PiecewiseConstant(((0.0, 1.0), segment))

    def test_segments_stored_as_floats(self):
        p = PiecewiseConstant(((0, 1), (2, 3)))
        assert p.segments == ((0.0, 1.0), (2.0, 3.0))
        assert all(type(x) is float for segment in p.segments for x in segment)
        for pair in ((True, 2.5), (1, "2.5")):
            with pytest.raises(InvalidParameterError, match=r"^profile segment needs "
                               r"\[t_start, value\] as two finite numbers$"):
                PiecewiseConstant(((0, 1), pair))

    @pytest.mark.parametrize("segments", [5, True, math.inf, "abc", {"x": 1}])
    def test_segments_not_a_list_refused(self, segments):
        with pytest.raises(InvalidParameterError,
                           match=r"^profile needs a list of \[t_start, value\] segments$"):
            PiecewiseConstant(segments)


def exp_decay(t, y, lagged):
    return -y, np.zeros(6)


ARM = PiecewiseConstant(((0.0, 0.8), (1.0, 0.2), (2.5, 0.5)))
ARM_DIST = DisturbanceParams(strict_signs=False)


@pytest.fixture(scope="module")
def arm_trace(params):
    return run(Scenario(duration=4.0, d1_profile=ARM), params, dist_params=ARM_DIST)


def logged_rows(trace):
    """G and the lumped disturbances as the loop logged them, one row per record."""
    cols = trace.columns
    return trace.as_array()[:, [cols.index(c) for c in ["G", *DELTA_COLUMNS]]]


def lumped_rows(trace, dist, masses_at):
    """G and the lumped disturbances rebuilt by ``lump`` at each record's
    state, time and the mass properties ``masses_at(t)``."""
    cols = trace.columns
    arr = trace.as_array()
    states = arr[:, [cols.index(c) for c in STATE_COLUMNS]]
    lagged = arr[:, [cols.index(c) for c in ACCEL_COLUMNS]]
    return np.array([
        [d.G, *d[:6]]
        for d in (lump(QuadState(s, a), t, dist, DisturbanceFlags.all_on(), masses_at(t))
                  for s, a, t in zip(states, lagged, arr[:, cols.index("t")].tolist()))
    ])


class TestRk4:
    def test_exponential_single_step(self):
        # y' = -y, h = 0.1: the RK4 polynomial gives
        # 1 - h + h^2/2 - h^3/6 + h^4/24 = 0.9048375 exactly
        state = QuadState(np.ones(12))
        out = rk4_step(state, exp_decay, 0.0, 0.1)
        assert out.vector == pytest.approx(np.full(12, 0.9048375), abs=1e-12)

    def test_fourth_order_convergence(self):
        # halving the step must shrink the global error by at least 15x
        def integrate(dt):
            state = QuadState(np.ones(12))
            n = int(round(1.0 / dt))
            for k in range(n):
                state = rk4_step(state, exp_decay, k * dt, dt)
            return abs(state.vector[0] - math.exp(-1.0))

        assert integrate(0.1) / integrate(0.05) >= 15.0

    def test_lagged_accel_replaced_by_final_stage(self):
        def with_accel(t, y, lagged):
            return np.zeros(12), np.full(6, t)

        state = QuadState(np.zeros(12))
        out = rk4_step(state, with_accel, 1.0, 0.5)
        # stage 4 evaluates at t + dt
        assert np.all(out.lagged_accel == 1.5)

    def test_bad_dt_rejected(self):
        with pytest.raises(InvalidParameterError):
            rk4_step(QuadState(), exp_decay, 0.0, 0.0)

    def test_nan_dt_rejected(self):
        # refused before a stage runs, not later as a non-finite derivative
        with pytest.raises(InvalidParameterError, match="dt must be positive"):
            rk4_step(QuadState(), exp_decay, 0.0, math.nan)

    def test_infinite_dt_rejected(self):
        with pytest.raises(InvalidParameterError, match="^dt must be positive and finite$"):
            rk4_step(QuadState(), exp_decay, 0.0, math.inf)

    def test_non_finite_derivative_raises(self):
        def blow_up(t, y, lagged):
            return np.full(12, math.nan), np.zeros(6)

        from quadarm.errors import IntegrationError
        with pytest.raises(IntegrationError):
            rk4_step(QuadState(), blow_up, 0.0, 0.001)


def hover_scenario(duration=1.0, **kw):
    params = QuadParams()
    u1 = PiecewiseConstant.constant(params.m * params.g)
    return Scenario(duration=duration, open_loop=True, open_loop_u1=u1,
                    flags=DisturbanceFlags(), **kw)


class TestRun:
    def test_record_count(self, params):
        trace = run(Scenario(duration=0.1), params)
        assert len(trace) == 101
        assert trace.column("t")[-1] == pytest.approx(0.1)

    @pytest.mark.parametrize("duration", [0.0105, 1e300], ids=["half_step", "past_array_size"])
    def test_step_count_refused(self, params, duration):
        # refused before a trace is allocated, not cut short or left to numpy
        with pytest.raises(InvalidParameterError, match="not a whole number of at most 10000000"):
            run(Scenario(duration=duration), params)

    def test_step_count_bounded(self):
        assert Scenario(duration=10000.0).n_steps == 10 ** 7
        with pytest.raises(InvalidParameterError, match="10001000 steps of dt 0.001"):
            Scenario(duration=10001.0).n_steps

    @pytest.mark.parametrize("fields", [{"dt": 0.0}, {"dt": math.nan}, {"duration": -1.0}],
                             ids=["zero_dt", "nan_dt", "negative_duration"])
    def test_invalid_scenario_refused(self, fields):
        with pytest.raises(InvalidParameterError):
            Scenario(**fields)

    def test_zero_duration_single_record(self, params):
        trace = run(Scenario(duration=0.0), params)
        assert len(trace) == 1

    def test_columns_match_schema(self, params):
        trace = run(Scenario(duration=0.0), params)
        assert trace.columns == COLUMNS
        assert len(trace.as_array()[0]) == len(COLUMNS)

    def test_deterministic(self, params):
        a = run(Scenario(duration=0.5), params).as_array()
        b = run(Scenario(duration=0.5), params).as_array()
        assert np.array_equal(a, b)

    def test_open_loop_hover_is_stationary(self, params):
        # thrust exactly balancing gravity with every disturbance channel
        # off must hold the state bit-for-bit at the origin
        trace = run(hover_scenario(duration=1.0), params)
        for name in ("z", "z_dot", "phi", "theta", "psi"):
            assert np.all(trace.column(name) == 0.0)

    def test_open_loop_free_fall(self, params):
        sc = Scenario(duration=1.0, open_loop=True,
                      open_loop_u1=PiecewiseConstant.constant(0.0),
                      flags=DisturbanceFlags())
        trace = run(sc, params)
        # z axis points down: free fall increases z as g t^2 / 2
        assert trace.column("z")[-1] == pytest.approx(0.5 * 9.81, rel=1e-9)

    def test_dt_refinement_agrees(self, params):
        def final_z(dt):
            sc = Scenario(duration=2.0, dt=dt, open_loop=True,
                          initial_state=QuadState(np.array(
                              [0, 0, 0, 0, 0, 0, 5.0, -1.8, 0, 0, 0, 0], float)),
                          open_loop_u1=PiecewiseConstant.constant(0.95 * params.m * params.g),
                          flags=DisturbanceFlags(ground_effect=True))
            return run(sc, params).column("z")[-1]

        assert abs(final_z(0.002) - final_z(0.001)) < 1e-4

    def test_overflowing_square_is_integration_error(self, params):
        # a huge roll command overflows the CoM term's squared rate
        gains = ControllerGains(pd_roll=PdGains(1e180, 1.0),
                                u_limits={**ControllerGains().u_limits, "roll": (-1e200, 1e200)})
        with pytest.raises(IntegrationError):
            run(Scenario(duration=0.01), params, gains=gains)

    def test_overflowing_initial_state_is_integration_error(self, params):
        # the first lump of a period squares the roll rate too: its overflow is
        # the period's IntegrationError, as in the stages, not a bare OverflowError
        state = QuadState(np.array([0, 1e200, 0, 0, 0, 0, 5.0, 0, 0, 0, 0, 0], float))
        with pytest.raises(IntegrationError) as exc_info:
            run(Scenario(duration=0.01, initial_state=state), params)
        assert exc_info.value.time == 0.0

    def test_infinite_stage_state_is_integration_error(self, params):
        # a huge roll command makes the pitch rate infinite inside the first
        # period; sin of the infinite pitch angle raises ValueError in a later
        # stage, which the period reports as an IntegrationError at its start
        gains = ControllerGains(pd_roll=PdGains(1e300, 19.6321),
                                u_limits={**ControllerGains().u_limits, "roll": (-1e308, 1e308)})
        flags = replace(DisturbanceFlags.all_on(), com=False)
        with pytest.raises(IntegrationError) as exc_info:
            run(Scenario(duration=0.01, flags=flags), params, gains=gains)
        assert exc_info.value.time == 0.0

    def test_divergence_raises(self, params):
        # strict altitude drag sign is anti-damping; a large coefficient
        # blows the open-loop fall up exponentially
        sc = Scenario(duration=10.0, open_loop=True,
                      open_loop_u1=PiecewiseConstant.constant(0.0),
                      flags=DisturbanceFlags(drag=True))
        dist = DisturbanceParams(drag=DragParams(k=(5.0,) * 6))
        with pytest.raises(DivergenceError) as exc_info:
            run(sc, params, dist_params=dist)
        assert 0.0 < exc_info.value.time < 10.0

    def test_closed_loop_reaches_references(self, standard_trace):
        assert standard_trace.column("z")[-1] == pytest.approx(5.0, abs=0.01)
        assert standard_trace.column("phi")[-1] == pytest.approx(
            5 * math.pi / 180.0, abs=1e-3)

    def test_no_validated_state_per_step(self, params, monkeypatch):
        counts = built_per_duration(QuadState, monkeypatch,
                                    lambda duration: run(Scenario(duration=duration), params))
        assert counts[0] == counts[1]

    def test_no_mass_properties_per_step_with_arm_profile(self, params, monkeypatch):
        d1 = PiecewiseConstant(((0.0, 0.8), (0.05, 0.2)))

        def simulate(duration):
            trace = run(Scenario(duration=duration, d1_profile=d1), params)
            estimation_oracle(trace, params)

        counts = built_per_duration(MassProperties, monkeypatch, simulate)
        assert counts[0] == counts[1]

    def test_logged_disturbances_equal_public_lump(self, standard_trace, arm_trace, params):
        # the loop's kernel and the public wrapper agree bit for bit, also
        # where each record has the arm position of its time
        for trace, dist, masses_at in (
                (standard_trace, DisturbanceParams(), lambda t: params.masses),
                (arm_trace, ARM_DIST, lambda t: replace(params.masses, d1=ARM(t)))):
            rebuilt = lumped_rows(trace, dist, masses_at)
            assert rebuilt.tobytes() == logged_rows(trace).tobytes()

    def test_logged_disturbances_follow_arm_profile(self, arm_trace, params):
        # the stock arm is ARM's first position: rebuilt with it, the rows
        # agree before the arm first moves at t = 1 s and not after
        assert params.masses.d1 == ARM(0.0)
        fixed = lumped_rows(arm_trace, ARM_DIST, lambda t: params.masses)
        logged = logged_rows(arm_trace)
        moved = arm_trace.column("t") >= 1.0
        assert fixed[~moved].tobytes() == logged[~moved].tobytes()
        assert np.all(np.any(fixed[moved] != logged[moved], axis=1))

    def test_negative_zero_limit_reaches_the_trace(self, tmp_path):
        # the two altitude loops compare and hash equal, so a kernel cache keyed
        # by equality would log one run's saturated input with the other's zero
        runs = {}
        for lower in ("-0.0", "0.0"):
            path = tmp_path / "limits.yaml"
            path.write_text("scenario: {duration: 1.0}\n"
                            f"controller: {{u_limits: {{altitude: [{lower}, 40]}}}}\n")
            c = load(str(path))
            trace = run(c.scenario, c.params, c.dist_params, c.gains)
            saturated = trace.column("sat_altitude") == 1.0
            runs[lower] = (c.gains.loops(c.params)[3],
                           [repr(u) for u in trace.column("u_altitude")[saturated].tolist()])
        (negative, logged_negative), (positive, logged_positive) = runs["-0.0"], runs["0.0"]
        assert negative == positive and hash(negative) == hash(positive)
        assert logged_negative == ["-0.0"] * 401 and logged_positive == ["0.0"] * 401

    def test_gain_argument_changes_output(self, params):
        base = run(Scenario(duration=0.5), params)
        softer = ControllerGains(pd_altitude=__import__("quadarm").PdGains(2.0, 2.0))
        other = run(Scenario(duration=0.5), params, gains=softer)
        assert not np.allclose(base.column("z"), other.column("z"))


#: a period's scenarios: stock, a stepped reference with a moving arm, a stepped open-loop
#: thrust; every profile steps inside the first 0.1 s, so both runs build the same table
PERIOD_SCENARIOS = {
    "stock": Scenario(),
    "arm_and_reference": Scenario(
        ref_roll=PiecewiseConstant(((0.0, 0.1), (0.05, -0.05))),
        d1_profile=PiecewiseConstant(((0.0, 0.8), (0.03, 0.2)))),
    "open_loop": Scenario(open_loop=True,
                          open_loop_u1=PiecewiseConstant(((0.0, 19.62), (0.04, 25.0)))),
}


def calls_per_period(params, event, scenario=PERIOD_SCENARIOS["stock"]):
    """Profiler ``event``s per period of ``scenario``, from the difference
    of a 0.2 s and a 0.1 s run: a deterministic guard against a slower
    period, where wall-clock times on a shared machine are not."""
    def calls(duration):
        count = [0]

        def profile(frame, kind, arg):
            count[0] += kind == event

        # a collection could run finalizers of earlier tests' objects mid-run
        gc.collect()
        gc.disable()
        sys.setprofile(profile)
        try:
            run(replace(scenario, duration=duration), params)
        finally:
            sys.setprofile(None)
            gc.enable()
        return count[0]

    calls(0.0)  # the loop's one-off compile and the mixer's cached inverse are no period's
    return (calls(0.2) - calls(0.1)) / 100


def test_python_calls_per_period(params):
    """The period made 63 Python-level calls before the ADRC bank, and 20
    while it called the lump, derivative, bank and mixer kernels and the
    RK4 combinations; rendered as one loop it made one, ``TraceLog.append``,
    and packing its record in place it makes none.  A stepped reference and
    an arm profile cost six more (four references, the arm and its CoM
    offset) and an open-loop thrust one, until each period read them from
    the run's table of changes."""
    assert {name: calls_per_period(params, "call", scenario)
            for name, scenario in PERIOD_SCENARIOS.items()} == dict.fromkeys(PERIOD_SCENARIOS, 0)


def test_c_calls_per_period(params):
    """C-level calls (builtins such as ``sin``, ``max``, ``isfinite``) per
    period.  The period made 59 while the derivative kernel checked each
    stage state, 43 as kernels and 42 as one rendered loop; computing each
    value once, it makes 33: the gust's ``sin`` at t, t + h and t + dt, four
    derivatives (three ``sin``, three ``cos``; the first also serves the
    altitude b_hat), b_hat's ``abs``, four ``sqrt`` and the record's
    ``pack_into``.  The bounds test calls nothing while the state is inside."""
    assert max(calls_per_period(params, "c_call", scenario)
               for scenario in PERIOD_SCENARIOS.values()) <= 33


def test_late_first_starts_hold_from_step_zero(params):
    # a profile holds its first value before its first start, so the table of changes has
    # an entry at step 0 even when no profile starts there
    def late(value):
        return PiecewiseConstant(((0.05, value),))
    stock = Scenario(duration=0.1)
    shifted = replace(stock, **{name: late(getattr(stock, name)(0.0)) for name in (
        "ref_roll", "ref_pitch", "ref_yaw", "ref_z", "open_loop_u1")},
        d1_profile=late(params.masses.d1))
    assert run(shifted, params).as_array().tobytes() == run(stock, params).as_array().tobytes()


#: configs that each take a branch of the period's hoisted terms, for the public-call reference
HOIST_CONFIGS = {
    "arm_profile": {"scenario": {"duration": 0.5, "d1_profile": [[0, 0.8], [0.1, 0.2],
                                                                 [0.3, 0.5]]}},
    "open_loop": {"scenario": {"duration": 0.5, "open_loop": True,
                               "initial_state": [0, 0, 0, 0, 0, 0, 1.0, 0, 0, 0, 0, 0],
                               "open_loop_u1": [[0, 19.62], [0.25, 25]]}},
    "channels_off": {"scenario": {"duration": 0.5}, "disturbances": {"enable": {
        "drag": False, "ground_effect": False, "wind": False, "com": False}}},
    "loose_signs": {"scenario": {"duration": 0.5}, "disturbances": {"strict_signs": False}},
    "saturating": {"scenario": {"duration": 1.0, "dt": 0.002},
                   "controller": {"u_limits": {"pitch": [-0.2, 0.2]}}},
}


class TestPeriodHoists:
    """Each period computes what holds over it once (the first stage's sines and
    cosines, the thrust terms, the CoM factors, the middle stages' gust) and
    bounds its state by one chained test; every float operation keeps its
    operands and order, so the records and the errors' times stay as they were."""

    @pytest.mark.parametrize("name", HOIST_CONFIGS)
    def test_matches_the_public_call_reference(self, name):
        assert matches_run(HOIST_CONFIGS[name])

    def test_saturating_config_saturates(self):
        c = resolve(HOIST_CONFIGS["saturating"])
        assert run(c.scenario, c.params, c.dist_params, c.gains).column("sat_pitch").any()

    def test_divergence_time_is_kept(self, params):
        # an unstable roll loop with wide limits tips past 90 degrees in its first period
        gains = ControllerGains(pd_roll=PdGains(1e7, 0.01),
                                u_limits={**ControllerGains().u_limits, "roll": (-1e9, 1e9)})
        with pytest.raises(DivergenceError) as exc_info:
            run(Scenario(duration=1.0), params, gains=gains)
        assert exc_info.value.time == 0.001

    def test_non_finite_state_time_is_kept(self, params):
        # from t = 0.05 a thrust of 1e308 sums to an infinite altitude rate with no
        # overflow raised: the bounds test fails and the finite test names the period
        start = QuadState(np.array([0, 0, 0, 0, 0, 0, 1.0, 0, 0, 0, 0, 0], float))
        scenario = Scenario(duration=0.2, open_loop=True, flags=DisturbanceFlags(),
                            initial_state=start,
                            open_loop_u1=PiecewiseConstant(((0.0, 19.62), (0.05, 1e308))))
        with pytest.raises(IntegrationError) as exc_info:
            run(scenario, params)
        assert exc_info.value.time == 0.05 and exc_info.value.__context__ is None


class TestLoopKernel:
    @pytest.mark.parametrize("scenario", [
        Scenario(duration=0.01),
        Scenario(duration=0.01, d1_profile=PiecewiseConstant(((0.0, 0.8), (0.002, 0.2)))),
        hover_scenario(duration=0.01),
    ], ids=["closed_loop", "arm_profile", "open_loop"])
    def test_run_is_pure(self, params, scenario):
        # a run's bits do not depend on the runs made in between
        first = run(scenario, params).as_array().tobytes()
        run(Scenario(duration=0.004, initial_state=QuadState(np.full(12, 0.1), np.full(6, 0.5)),
                     d1_profile=PiecewiseConstant(((0.0, 0.3),))), params,
            gains=ControllerGains(pd_roll=PdGains(3.0, 4.0)))
        assert run(scenario, params).as_array().tobytes() == first

    @pytest.mark.parametrize("scenario", [Scenario, hover_scenario], ids=["closed_loop",
                                                                           "open_loop"])
    def test_last_record_only_logs(self, params, scenario):
        # a run is its periods in turn: a shorter run's records are a longer
        # one's, but for the last, which logs the control of the period before
        short, long = (run(scenario(duration=d), params).as_array() for d in (0.01, 0.02))
        assert short[:-1].tobytes() == long[:10].tobytes()
        control = [COLUMNS.index(c) for c in COLUMNS if c.endswith(SUBSYSTEMS)
                   and not c.startswith("ref_")] + [COLUMNS.index("omega_r")]
        assert short[-1, control].tobytes() == short[-2, control].tobytes()
        state = [COLUMNS.index(c) for c in ["t", *STATE_COLUMNS, *ACCEL_COLUMNS]]
        assert short[-1, state].tobytes() == long[10, state].tobytes()

    def test_loop_binds_the_gains_loops(self, monkeypatch):
        params = QuadParams(inertia=InertiaParams(I_xx=0.018, I_yy=0.02, I_zz=0.035))
        gains = ControllerGains(eso_overrides={"yaw": EsoGains.from_bandwidth(5.0)},
                                pd_pitch=PdGains(3.0, 4.0))
        bound, loops_of = [], ControllerGains.loops
        monkeypatch.setattr(ControllerGains, "loops",
                            lambda self, p: bound.append(loops_of(self, p)) or bound[-1])
        run(Scenario(duration=0.01), params, gains=gains)
        loops = loops_of(gains, params)
        assert bound == [loops]
        assert [c.which for c in loops] == list(SUBSYSTEMS)
        assert [c.b_hat for c in loops] == [0.45 / 0.018, 0.45 / 0.02, 1 / 0.035, -1 / params.m]
        assert [(c.eso, c.pd, c.u_limits) for c in loops] == [
            (gains.eso_for(n), gains.pd_for(n), gains.u_limits[n]) for n in SUBSYSTEMS]

    def test_open_loop_binds_no_loops(self, params, monkeypatch):
        def unbound(self, p):
            raise AssertionError("the open loop bound the controller's loops")

        monkeypatch.setattr(ControllerGains, "loops", unbound)
        run(hover_scenario(duration=0.01), params)

    def test_constants_agree_between_formulas(self, params):
        # ``run`` binds the formulas' constants in one namespace: a name the
        # lump and the derivative share must hold one value
        lumped = lump_constants(DisturbanceParams(), DisturbanceFlags.all_on(), params.m)
        derived = derivative_constants(params)
        assert lumped.keys() & derived == {"m", "sin"}
        assert (lumped["m"], lumped["sin"]) == (derived["m"], derived["sin"])


class TestEstimationOracle:
    @pytest.mark.parametrize("scenario, dist", [
        (Scenario(duration=2.0), DisturbanceParams()),
        (Scenario(duration=4.0, d1_profile=ARM), DisturbanceParams(strict_signs=False)),
        (Scenario(duration=2.0, flags=DisturbanceFlags(com=True)), DisturbanceParams()),
        (Scenario(duration=2.0, ref_z=PiecewiseConstant.constant(0.3)), DisturbanceParams()),
    ], ids=["stock", "arm_profile", "com_only", "low_altitude"])
    def test_truth_is_the_uncontrolled_acceleration(self, params, scenario, dist):
        # each loop's truth is the model's acceleration of that loop with no
        # input, at the logged state, rotor speed and disturbances
        trace = run(scenario, params, dist_params=dist)
        oracle = estimation_oracle(trace, params)
        cols, arr = trace.columns, trace.as_array()
        deriv_f = derivative_kernel(params)
        uncontrolled = np.array([
            deriv_f(s, (0.0, 0.0, 0.0, 0.0, omega_r), logged)[1:8:2]
            for s, omega_r, logged in zip(
                arr[:, [cols.index(c) for c in STATE_COLUMNS]].tolist(),
                arr[:, cols.index("omega_r")].tolist(),
                arr[:, [cols.index(c) for c in [*DELTA_COLUMNS, "G"]]].tolist())])
        truth = np.column_stack([oracle[name]["f_true"] for name in SUBSYSTEMS])
        # the oracle and the model add the same terms in another order: a few ulp apart
        np.testing.assert_allclose(truth, uncontrolled, rtol=1e-13, atol=1e-13)
        assert truth[:, 3].tobytes() == uncontrolled[:, 3].tobytes()

    @pytest.mark.parametrize("d1", [None, ARM], ids=["fixed_arm", "arm_profile"])
    def test_binds_no_lump_kernel(self, params, monkeypatch, d1):
        # the truth is read off the logged disturbances: the oracle renders no
        # kernel, and other ``dist_params`` and ``flags`` change nothing
        trace = run(Scenario(duration=0.5, d1_profile=d1), params)

        def unbound(*args, **kwargs):
            raise AssertionError("the oracle bound a kernel")

        monkeypatch.setattr(render, "kernel", unbound)
        lean = estimation_oracle(trace, params)
        other = estimation_oracle(trace, params, DisturbanceParams(strict_signs=False),
                                  DisturbanceFlags())
        for name in lean:
            for key in ("f_true", "error"):
                assert lean[name][key].tobytes() == other[name][key].tobytes()

    @pytest.mark.parametrize("scenario", [
        Scenario(duration=2.0),
        Scenario(duration=3.0, ref_z=PiecewiseConstant.constant(0.3)),
    ], ids=["stock", "low_altitude"])
    def test_ground_effect_is_left_unbound(self, params, monkeypatch, scenario):
        # G enters no delta, and the oracle renders no kernel that could add
        # ground effect: with it flagged on or off every output keeps its bits
        trace = run(scenario, params)

        def unbound(*args, **kwargs):
            raise AssertionError("the oracle bound a kernel")

        monkeypatch.setattr(render, "kernel", unbound)
        flags = DisturbanceFlags.all_on()
        assert flags.ground_effect
        full = estimation_oracle(trace, params, flags=flags)
        lean = estimation_oracle(trace, params, flags=replace(flags, ground_effect=False))
        for name in lean:
            for key in ("f_true", "error"):
                assert lean[name][key].tobytes() == full[name][key].tobytes()

    def test_free_fall_truth(self, params):
        sc = Scenario(duration=0.5, open_loop=True,
                      open_loop_u1=PiecewiseConstant.constant(0.0),
                      flags=DisturbanceFlags())
        trace = run(sc, params)
        oracle = estimation_oracle(trace, params, flags=DisturbanceFlags())
        # no disturbances and no rotation: the only altitude forcing is g
        assert np.all(oracle["altitude"]["f_true"] == pytest.approx(9.81))
        assert np.all(oracle["roll"]["f_true"] == 0.0)
        # open loop logs no estimates, so the error is minus the truth
        assert oracle["altitude"]["error"] == pytest.approx(-oracle["altitude"]["f_true"])

    def test_closed_loop_estimates_track_truth(self, estimation_trace, params):
        oracle = estimation_oracle(
            trace=estimation_trace, params=params,
            flags=DisturbanceFlags(drag=True, wind=True, com=True))
        err = oracle["altitude"]["error"][5000:]
        truth = oracle["altitude"]["f_true"][5000:]
        assert np.max(np.abs(err)) < 0.05 * np.max(np.abs(truth))


    def test_arm_profile_followed(self, params):
        # the arm moves from 0.8 m to 0.2 m at t = 1 s; the truth must use
        # the arm position of each row, as the run does
        d1 = PiecewiseConstant(((0.0, 0.8), (1.0, 0.2)))
        trace = run(Scenario(duration=4.0, d1_profile=d1), params)
        oracle = estimation_oracle(trace, params)
        late = trace.column("t") >= 2.0
        rms = np.sqrt(np.mean(oracle["pitch"]["error"][late] ** 2))
        assert rms < 0.05


def csv_writer_bytes(trace) -> bytes:
    """The reference file of ``trace``: csv.writer's rows of the header and of reprs."""
    expected = io.StringIO(newline="")
    writer = csv.writer(expected)
    writer.writerow(trace.columns)
    for row in trace.as_array().tolist():
        writer.writerow([repr(v) for v in row])
    return expected.getvalue().encode("utf-8")


def trace_of(n_rows: int) -> TraceLog:
    """A trace of ``n_rows`` distinct records that hold -0.0, the smallest
    subnormal and reprs in exponent form."""
    trace = TraceLog(n_rows)
    for i in range(n_rows):
        trace.append([-0.0, 5e-324, 1e16, 1e-05, i * 0.001, -i / 7.0,
                      *(math.sqrt(i + k) for k in range(len(COLUMNS) - 6))])
    return trace


def assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


R = sim_mod.PART_ROWS


def split_writes(monkeypatch, n_rows: int) -> bool:
    """Make two CPUs usable; whether ``n_rows`` rows are then written in two halves."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    return sim_mod.csv_split(n_rows)


def counted_forks(monkeypatch) -> list:
    """One entry for each ``os.fork`` from here on."""
    calls, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: calls.append(1) or fork())
    return calls


class TestTraceLog:
    def test_csv_bytes_match_csv_writer(self, params, tmp_path):
        trace = run(Scenario(duration=2.1), params)
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        assert path.read_bytes() == csv_writer_bytes(trace)
        back = TraceLog.from_csv(path)
        assert back.as_array().tobytes() == trace.as_array().tobytes()
        assert_no_child()

    @pytest.mark.parametrize("n_rows, cpus, forks", [
        (0, 2, 0), (1, 2, 0), (R - 1, 2, 0), (R, 2, 0), (2 * R - 1, 2, 0), (2 * R, 2, 1),
        (2 * R + 1, 2, 1), (3 * R, 3, 1), (3 * R, 1, 0)])
    def test_halves_write_the_csv_writer_bytes(self, tmp_path, monkeypatch, n_rows, cpus,
                                               forks):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        if not sim_mod.csv_split(3 * R):
            forks = 0  # no fork on this platform: every trace is written in one process
        calls = counted_forks(monkeypatch)
        trace = trace_of(n_rows)
        trace.to_csv(tmp_path / "trace.csv")
        assert (tmp_path / "trace.csv").read_bytes() == csv_writer_bytes(trace)
        assert len(calls) == forks
        assert_no_child()

    @pytest.mark.skipif(not hasattr(os, "mkfifo") or not shutil.which("cat"),
                        reason="needs a FIFO and cat")
    def test_split_write_into_a_fifo(self, tmp_path, monkeypatch):
        # the child's half is appended by sendfile, with no seek or reopen: a pipe reader such
        # as ``quadarm simulate --out /dev/stdout | ...`` gets the whole file
        if not split_writes(monkeypatch, 2 * R):
            pytest.skip("this platform writes a trace in one process")
        fifo, out, trace = tmp_path / "trace.fifo", tmp_path / "read.csv", trace_of(2 * R)
        os.mkfifo(fifo)
        def blocked(signum, frame):  # a second open waits for a reader that is gone
            raise TimeoutError("the write blocked on the FIFO")

        with open(out, "wb") as sink:
            cat = subprocess.Popen(["cat", fifo], stdout=sink)
        previous = signal.signal(signal.SIGALRM, blocked)
        signal.alarm(60)
        try:
            calls = counted_forks(monkeypatch)
            trace.to_csv(fifo)
            assert cat.wait(timeout=60) == 0
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
            cat.kill()  # a no-op once ``cat`` is waited for
            cat.wait()
        assert out.read_bytes() == csv_writer_bytes(trace)
        assert len(calls) == 1
        assert_no_child()

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_failed_part_raises_its_errno(self, tmp_path, monkeypatch):
        if not split_writes(monkeypatch, 2 * R):
            pytest.skip("this platform writes a trace in one process")
        # the child's part goes to a device that is always full
        monkeypatch.setattr(os, "memfd_create",
                            lambda name: os.open("/dev/full", os.O_WRONLY | os.O_CLOEXEC))
        with pytest.raises(OSError) as failure:
            trace_of(2 * R).to_csv(tmp_path / "trace.csv")
        assert failure.value.errno == errno.ENOSPC
        assert_no_child()

    def test_killed_part_writer_raises(self, tmp_path, monkeypatch):
        if not split_writes(monkeypatch, 2 * R):
            pytest.skip("this platform writes a trace in one process")
        parent, lines = os.getpid(), sim_mod.csv_lines

        def killed_in_child(rows):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)  # as the out-of-memory killer does
            return lines(rows)

        monkeypatch.setattr(sim_mod, "csv_lines", killed_in_child)
        with pytest.raises(ChildProcessError, match=f"ended by signal {signal.SIGKILL:d}"):
            trace_of(2 * R).to_csv(tmp_path / "trace.csv")
        assert_no_child()

    def test_failed_own_part_leaves_no_child(self, tmp_path, monkeypatch):
        if not split_writes(monkeypatch, 2 * R):
            pytest.skip("this platform writes a trace in one process")
        parent, lines = os.getpid(), sim_mod.csv_lines

        def own_part_fails(rows):
            if os.getpid() == parent:
                raise RuntimeError("own part failed")
            time.sleep(60)  # the child is still writing when the parent fails
            return lines(rows)

        monkeypatch.setattr(sim_mod, "csv_lines", own_part_fails)
        start = time.monotonic()
        with pytest.raises(RuntimeError, match="own part failed"):
            trace_of(2 * R).to_csv(tmp_path / "trace.csv")
        assert time.monotonic() - start < 30  # the child was killed, not waited for
        assert_no_child()

    def test_child_takes_no_signal(self, tmp_path, monkeypatch):
        if not split_writes(monkeypatch, 2 * R):
            pytest.skip("this platform writes a trace in one process")
        parent, lines = os.getpid(), sim_mod.csv_lines
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, ())

        def blocked_in_child(rows):
            if os.getpid() == parent:
                return lines(rows)
            blocked = signal.pthread_sigmask(signal.SIG_BLOCK, ())
            return [f"{sorted(s.name for s in blocked & {signal.SIGINT, signal.SIGTERM})}\r\n"]

        monkeypatch.setattr(sim_mod, "csv_lines", blocked_in_child)
        trace_of(2 * R).to_csv(tmp_path / "trace.csv")
        last = (tmp_path / "trace.csv").read_bytes().split(b"\r\n")[-2]
        assert last == b"['SIGINT', 'SIGTERM']"
        assert signal.pthread_sigmask(signal.SIG_BLOCK, ()) == mask  # restored here
        assert_no_child()

    def test_signal_at_cleanup_leaves_no_child(self, tmp_path, monkeypatch):
        if not split_writes(monkeypatch, 2 * R):
            pytest.skip("this platform writes a trace in one process")

        class Interrupted(Exception):
            pass

        def interrupt(signum, frame):
            raise Interrupted

        kill = os.kill

        def kill_then_signal(pid, signum):
            kill(pid, signum)
            signal.raise_signal(signal.SIGUSR1)  # as a Ctrl-C between the kill and the reap

        previous = signal.signal(signal.SIGUSR1, interrupt)
        monkeypatch.setattr(os, "kill", kill_then_signal)
        try:
            with pytest.raises(Interrupted):  # raised once the child is reaped
                trace_of(2 * R).to_csv(tmp_path / "trace.csv")
        finally:
            signal.signal(signal.SIGUSR1, previous)
        assert_no_child()

    @pytest.mark.parametrize("n_rows, cpus, forks", [
        (0, 2, 0), (1, 2, 0), (R - 1, 2, 0), (R, 2, 0), (2 * R - 1, 2, 0), (2 * R, 2, 1),
        (2 * R + 1, 2, 1), (3 * R, 3, 1), (3 * R, 1, 0)])
    def test_halves_read_the_one_process_bytes(self, tmp_path, monkeypatch, n_rows, cpus,
                                               forks):
        trace = trace_of(n_rows)
        trace.to_csv(tmp_path / "trace.csv")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        calls = counted_forks(monkeypatch)
        back = TraceLog.from_csv(tmp_path / "trace.csv").as_array()
        assert back.shape == (n_rows, len(COLUMNS))
        assert back.tobytes() == trace.as_array().tobytes()
        assert len(calls) == (forks if sim_mod.csv_split(3 * R) else 0)
        assert_no_child()

    def test_last_line_without_its_line_end(self, tmp_path, monkeypatch):
        split = split_writes(monkeypatch, 2 * R + 1)
        trace, path = trace_of(2 * R + 1), tmp_path / "trace.csv"
        trace.to_csv(path)
        path.write_bytes(path.read_bytes().removesuffix(b"\r\n"))
        calls = counted_forks(monkeypatch)
        assert TraceLog.from_csv(path).as_array().tobytes() == trace.as_array().tobytes()
        assert len(calls) == split
        assert_no_child()

    @pytest.mark.parametrize("line_end", [b"\r\n\r\n", b"\r\n# a comment\r\n", b"\r"],
                             ids=["blank_line", "comment_line", "lone_cr"])
    def test_split_read_skips_lines_as_one_process(self, tmp_path, monkeypatch, line_end):
        # loadtxt's max_rows would not count a blank or a comment line, and a count of
        # b"\n" would not see a line that ends in a lone \r
        path = tmp_path / "trace.csv"
        trace_of(2 * R + 1).to_csv(path)  # a lone \r ends a line that is not counted
        data = path.read_bytes()
        first = data.index(b"\r\n", data.index(b"\r\n") + 2)  # the first record's end
        path.write_bytes(data[:first] + line_end + data[first + 2:])
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        alone = TraceLog.from_csv(path).as_array()
        split = split_writes(monkeypatch, 2 * R)
        calls = counted_forks(monkeypatch)
        assert TraceLog.from_csv(path).as_array().tobytes() == alone.tobytes()
        assert len(alone) == 2 * R + 1 and len(calls) == split
        assert_no_child()

    @pytest.mark.parametrize("where", ["first_half", "middle_line", "second_half"])
    @pytest.mark.parametrize("kind", ["short_row", "ragged", "not_a_number",
                                      "narrow_from_here_on"])
    def test_split_read_refuses_as_one_process(self, tmp_path, monkeypatch, kind, where):
        path = tmp_path / "bad.csv"
        trace_of(2 * R).to_csv(path)
        data = path.read_bytes()
        lines = data.split(b"\r\n")
        # the line that holds the file's middle byte is the last one this process parses
        middle = data[:len(data) // 2].count(b"\n")
        at = {"first_half": 1, "middle_line": middle, "second_half": len(lines) - 2}[where]

        def bad(line):  # of the same length, so that the middle stays on its line
            fields = line.split(b",")
            return {"short_row": b"0.0".ljust(len(line)),
                    "ragged": b",".join(fields[:-1]).ljust(len(line)),
                    "not_a_number": b",".join(fields[:-1] + [b"x" * len(fields[-1])]),
                    "narrow_from_here_on": b",".join(fields[:-1]).ljust(len(line))}[kind]

        upto = len(lines) - 1 if kind == "narrow_from_here_on" else at + 1
        lines[at:upto] = map(bad, lines[at:upto])
        path.write_bytes(b"\r\n".join(lines))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        with pytest.raises(InvalidParameterError) as alone:
            TraceLog.from_csv(path)
        split = split_writes(monkeypatch, 2 * R)
        calls = counted_forks(monkeypatch)
        with pytest.raises(InvalidParameterError) as halved:
            TraceLog.from_csv(path)
        assert str(halved.value) == str(alone.value)
        assert str(alone.value).startswith(f"{path}: ") and "header" not in str(alone.value)
        assert len(calls) == split
        assert_no_child()

    def test_unsplit_read_counts_no_lines(self, tmp_path, monkeypatch):
        # with one usable CPU no read is split, so no pass counts the file's lines
        path, trace = tmp_path / "trace.csv", trace_of(3 * R)
        trace.to_csv(path)
        read, real_open = [], open

        class Counted(io.FileIO):  # the bytes read through the file ``from_csv`` opens
            def readinto(self, buffer):
                read.append(got := super().readinto(buffer))
                return got

        def counted_open(file, mode="r", *args, **kwargs):
            if mode != "rb":
                return real_open(file, mode, *args, **kwargs)
            return io.BufferedReader(Counted(file), *args)

        monkeypatch.setattr(sim_mod, "open", counted_open, raising=False)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert TraceLog.from_csv(path).as_array().tobytes() == trace.as_array().tobytes()
        assert sum(read) == 0
        if split_writes(monkeypatch, 3 * R):  # where a read is split, the count reads it all
            assert TraceLog.from_csv(path).as_array().tobytes() == trace.as_array().tobytes()
            assert sum(read) == path.stat().st_size
        assert_no_child()

    def test_split_read_refuses_a_foreign_header_before_the_fork(self, tmp_path, monkeypatch):
        path = tmp_path / "foreign.csv"
        records = "".join(",".join(["1.0"] * len(COLUMNS)) + "\r\n" for _ in range(3 * R))
        path.write_text(",".join(f"c{i}" for i in range(len(COLUMNS))) + "\r\n" + records,
                        newline="")
        split = split_writes(monkeypatch, 3 * R)
        calls = counted_forks(monkeypatch)
        with pytest.raises(InvalidParameterError) as refused:
            TraceLog.from_csv(path)
        assert str(refused.value) == f"{path}: header is not the trace's columns"
        assert calls == []
        path.write_text(",".join(COLUMNS) + "\r\n" + records, newline="")
        assert TraceLog.from_csv(path).as_array().shape == (3 * R, len(COLUMNS))
        assert len(calls) == split  # the trace's own header is split as before
        assert_no_child()

    def test_split_read_holds_the_records_once(self, tmp_path, monkeypatch):
        # this process's half grows in place and takes the child's rows straight from the
        # memfd: a fresh array and a copy of both halves peaked at 1.5 times the records
        if not split_writes(monkeypatch, 4 * R):
            pytest.skip("this platform reads a trace in one process")
        trace_of(4 * R).to_csv(tmp_path / "trace.csv")
        tracemalloc.start()
        try:
            back = TraceLog.from_csv(tmp_path / "trace.csv").as_array()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * back.nbytes
        assert_no_child()

    def test_killed_part_reader_raises(self, tmp_path, monkeypatch):
        if not split_writes(monkeypatch, 2 * R):
            pytest.skip("this platform reads a trace in one process")
        trace_of(2 * R).to_csv(tmp_path / "trace.csv")
        parent, loadtxt = os.getpid(), np.loadtxt

        def killed_in_child(*args, **kwargs):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return loadtxt(*args, **kwargs)

        monkeypatch.setattr(np, "loadtxt", killed_in_child)
        with pytest.raises(ChildProcessError, match=f"ended by signal {signal.SIGKILL:d}"):
            TraceLog.from_csv(tmp_path / "trace.csv")
        assert_no_child()

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_failed_part_reader_raises_its_errno(self, tmp_path, monkeypatch):
        if not split_writes(monkeypatch, 2 * R):
            pytest.skip("this platform reads a trace in one process")
        trace_of(2 * R).to_csv(tmp_path / "trace.csv")
        monkeypatch.setattr(os, "memfd_create",
                            lambda name: os.open("/dev/full", os.O_WRONLY | os.O_CLOEXEC))
        with pytest.raises(OSError) as failure:
            TraceLog.from_csv(tmp_path / "trace.csv")
        assert failure.value.errno == errno.ENOSPC
        assert_no_child()

    def test_failed_own_half_of_a_read_leaves_no_child(self, tmp_path, monkeypatch):
        if not split_writes(monkeypatch, 2 * R):
            pytest.skip("this platform reads a trace in one process")
        trace_of(2 * R).to_csv(tmp_path / "trace.csv")
        parent = os.getpid()

        def own_half_fails(*args, **kwargs):
            if os.getpid() == parent:
                raise RuntimeError("own half failed")
            time.sleep(60)  # the child is still parsing when the parent fails

        monkeypatch.setattr(np, "loadtxt", own_half_fails)
        start = time.monotonic()
        with pytest.raises(RuntimeError, match="own half failed"):
            TraceLog.from_csv(tmp_path / "trace.csv")
        assert time.monotonic() - start < 30  # the child was killed, not waited for
        assert_no_child()

    def test_part_reader_takes_no_signal(self, tmp_path, monkeypatch):
        if not split_writes(monkeypatch, 2 * R):
            pytest.skip("this platform reads a trace in one process")
        trace_of(2 * R).to_csv(tmp_path / "trace.csv")
        parent, loadtxt = os.getpid(), np.loadtxt
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, ())

        def blocked_in_child(*args, **kwargs):
            if os.getpid() == parent:
                return loadtxt(*args, **kwargs)
            blocked = signal.pthread_sigmask(signal.SIG_BLOCK, ())
            return np.full((1, len(COLUMNS)), float({signal.SIGINT, signal.SIGTERM} <= blocked))

        monkeypatch.setattr(np, "loadtxt", blocked_in_child)
        back = TraceLog.from_csv(tmp_path / "trace.csv").as_array()
        assert back[-1].tolist() == [1.0] * len(COLUMNS)  # the child's one row
        assert signal.pthread_sigmask(signal.SIG_BLOCK, ()) == mask  # restored here
        assert_no_child()

    def test_write_rows_matches_csv_writer(self, tmp_path):
        # the tune history's rows: an int index, then floats
        rows = [(0, 1.5, -2e-300), (1, 0.1, 1e16)]
        sim_mod.write_rows(tmp_path / "rows.csv", ["iteration", "cost", "p1"], rows)
        expected = io.StringIO(newline="")
        csv.writer(expected).writerows([["iteration", "cost", "p1"],
                                        *([repr(v) for v in row] for row in rows)])
        assert (tmp_path / "rows.csv").read_bytes() == expected.getvalue().encode("utf-8")

    @pytest.mark.parametrize("duration", [0.5, 4.0])
    def test_csv_write_holds_one_record(self, params, tmp_path, monkeypatch, duration):
        # a 1024-row block of formatted values peaked at 1.9 MB (0.5 s) and
        # 4.0 MB (4 s); one record at a time stays near 134 KiB at any length
        trace = run(Scenario(duration=duration), params)
        held, sendfile = set(), os.sendfile  # the size of each memfd sent
        monkeypatch.setattr(os, "sendfile", lambda out, fd, offset, count: held.add(
            os.fstat(fd).st_size) or sendfile(out, fd, offset, count))
        tracemalloc.start()
        try:
            trace.to_csv(tmp_path / "trace.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 512 * 1024
        # a split write's memfd holds the second half's text and nothing more
        lines = (tmp_path / "trace.csv").read_bytes().split(b"\r\n")
        second = lines[1 + len(trace) // 2:]
        assert held <= {len(b"\r\n".join(second))}
        assert bool(held) == sim_mod.csv_split(len(trace))

    def test_csv_round_trip_exact(self, params, tmp_path):
        trace = run(Scenario(duration=0.05), params)
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        back = TraceLog.from_csv(path)
        assert back.columns == trace.columns
        assert np.array_equal(back.as_array(), trace.as_array())

    def test_header_only_file_has_no_records(self, tmp_path):
        path = tmp_path / "header.csv"
        TraceLog(0).to_csv(path)
        # the hand-written header line is csv.writer's: no column name needs quoting
        expected = io.StringIO(newline="")
        csv.writer(expected).writerow(COLUMNS)
        assert path.read_bytes() == expected.getvalue().encode("utf-8")
        trace = TraceLog.from_csv(path)
        assert trace.columns == COLUMNS and trace.as_array().shape == (0, len(COLUMNS))

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(InvalidParameterError):
            TraceLog.from_csv(path)

    @pytest.mark.parametrize("header", [["t", "z"], ["time", *COLUMNS[1:]]],
                             ids=["two_columns", "renamed_column"])
    def test_foreign_header_rejected(self, tmp_path, header):
        # a CSV that is not a trace would load, then fail wherever a column is read
        path = tmp_path / "foreign.csv"
        path.write_text(",".join(header) + "\r\n" + ",".join(["0.0"] * len(header)) + "\r\n",
                        newline="")
        with pytest.raises(InvalidParameterError, match="foreign.csv: header"):
            TraceLog.from_csv(path)

    def test_foreign_file_rejected(self, foreign_trace):
        with pytest.raises(InvalidParameterError) as refused:
            TraceLog.from_csv(foreign_trace)
        assert str(refused.value) == f"{foreign_trace}: header is not the trace's columns"

    @pytest.mark.parametrize("rows", [
        "0.0\r\n",
        ",".join(["0.0"] * len(COLUMNS)) + "\r\n1.0\r\n",
        ",".join(["0.0"] * (len(COLUMNS) - 1) + ["abc"]) + "\r\n",
    ], ids=["short_row", "ragged", "not_a_number"])
    def test_malformed_rows_name_the_file(self, tmp_path, rows):
        path = tmp_path / "bad.csv"
        path.write_text(",".join(COLUMNS) + "\r\n" + rows, newline="")
        with pytest.raises(InvalidParameterError, match="bad.csv") as refused:
            TraceLog.from_csv(path)
        assert "header" not in str(refused.value)  # the rows reached the parser

    def test_unknown_column(self, params):
        trace = run(Scenario(duration=0.0), params)
        with pytest.raises(KeyError):
            trace.column("nope")

    def test_columns_cannot_change_the_layout(self, params):
        trace = run(Scenario(duration=0.0), params)
        layout = list(COLUMNS)
        with contextlib.suppress(AttributeError):
            trace.columns.append("extra")
        trace.columns += ("extra",)
        assert list(sim_mod.COLUMNS) == layout and list(TraceLog(0).columns) == layout
