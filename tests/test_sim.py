import csv
import gc
import io
import math
import sys
from dataclasses import replace

import numpy as np
import pytest

from quadarm import (ControllerGains, DisturbanceFlags, DisturbanceParams, MassProperties,
                     PdGains, PiecewiseConstant, QuadParams, QuadState, Scenario,
                     TraceLog, estimation_oracle, rk4_step, run)
from quadarm import sim as sim_mod
from quadarm.disturbances import DragParams, lump, lump_kernel
from quadarm.errors import DivergenceError, IntegrationError, InvalidParameterError
from quadarm.sim import (ACCEL_COLUMNS, COLUMNS, CONTROL_START, CSV_CHUNK_ROWS, DELTA_COLUMNS,
                         STATE_COLUMNS, loop_kernel)


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

    @pytest.mark.parametrize("segments", [
        ((0.0, 0.8), (1.0, 0.2), (2.5, 0.5)),
        ((1.0, 7.0),),
        ((0.5, 1.0), (0.5, 2.0), (3.0, -1.0)),
    ], ids=["arm", "late_start", "repeated_start"])
    def test_array_lookup_equals_call(self, segments):
        # every boundary, just before and after it, and a time before the first start
        p = PiecewiseConstant(segments)
        starts = [s[0] for s in segments]
        grid = sorted({-1.0, *starts, *np.nextafter(starts, -np.inf),
                       *np.nextafter(starts, np.inf), *np.linspace(-0.5, 4.0, 91)})
        looked_up = p.at(np.array(grid))
        assert looked_up.tobytes() == np.array([p(v) for v in grid]).tobytes()


def exp_decay(t, y, lagged):
    return -y, np.zeros(6)


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

    def test_zero_duration_single_record(self, params):
        trace = run(Scenario(duration=0.0), params)
        assert len(trace) == 1

    def test_columns_match_schema(self, params):
        trace = run(Scenario(duration=0.0), params)
        assert trace.columns == COLUMNS
        assert len(trace.rows[0]) == len(COLUMNS)

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
            estimation_oracle(trace, params, d1_profile=d1)

        counts = built_per_duration(MassProperties, monkeypatch, simulate)
        assert counts[0] == counts[1]

    def test_logged_disturbances_equal_public_lump(self, standard_trace, params):
        # the loop's kernel and the public wrapper agree bit for bit
        cols = standard_trace.columns
        arr = standard_trace.as_array()
        states = arr[:, [cols.index(c) for c in STATE_COLUMNS]]
        lagged = arr[:, [cols.index(c) for c in ACCEL_COLUMNS]]
        logged = arr[:, [cols.index(c) for c in ["G", *DELTA_COLUMNS]]]
        rebuilt = np.array([
            [d.G, *d.as_vector()]
            for d in (lump(QuadState(s, a), t, DisturbanceParams(), DisturbanceFlags.all_on(),
                           params.masses)
                      for s, a, t in zip(states, lagged, arr[:, cols.index("t")]))
        ])
        assert rebuilt.tobytes() == logged.tobytes()

    def test_gain_argument_changes_output(self, params):
        base = run(Scenario(duration=0.5), params)
        softer = ControllerGains(pd_altitude=__import__("quadarm").PdGains(2.0, 2.0))
        other = run(Scenario(duration=0.5), params, gains=softer)
        assert not np.allclose(base.column("z"), other.column("z"))


class TestLoopKernel:
    @pytest.mark.parametrize("scenario", [
        Scenario(duration=0.01),
        Scenario(duration=0.01, d1_profile=PiecewiseConstant(((0.0, 0.8), (0.002, 0.2)))),
        hover_scenario(duration=0.01),
    ], ids=["closed_loop", "arm_profile", "open_loop"])
    def test_step_is_pure(self, params, scenario):
        # the same arguments give the same bits, whatever was called in between
        step = loop_kernel(scenario, params)
        y0 = scenario.initial_state.vector.tolist()
        y, lagged, ctrl, _ = step(0.0, y0, [0.0] * 6, CONTROL_START)
        args = (0.001, y, lagged, ctrl)
        kept = repr(args)
        first = step(*args)
        step(0.004, [v + 0.1 for v in y0], [0.5] * 6, first[2])
        assert repr(step(*args)) == repr(first)
        assert repr(args) == kept  # the arguments are left as they were

    def test_python_calls_per_period(self, params):
        """Python-level calls per stock closed-loop period, from the difference
        of a 0.2 s and a 0.1 s run: a deterministic guard against a slower
        period, where wall-clock times on a shared machine are not.  The
        period made 63 calls before the ADRC bank (four ``update`` calls of
        five functions each), the bound lump and mixer kernels, the bound
        reference profiles and the RK4 combinations written out per state;
        it makes 20."""
        def calls(duration):
            count = [0]

            def profile(frame, event, arg):
                count[0] += event == "call"

            # a collection could run finalizers of earlier tests' objects mid-run
            gc.collect()
            gc.disable()
            sys.setprofile(profile)
            try:
                run(Scenario(duration=duration), params)
            finally:
                sys.setprofile(None)
                gc.enable()
            return count[0]

        assert (calls(0.2) - calls(0.1)) / 100 <= 20

    def test_run_is_the_loop_over_step(self, params):
        scenario = Scenario(duration=0.01)
        step = loop_kernel(scenario, params)
        y, lagged, ctrl = scenario.initial_state.vector.tolist(), [0.0] * 6, CONTROL_START
        rows = []
        for k in range(scenario.n_steps):
            y, lagged, ctrl, row = step(k * scenario.dt, y, lagged, ctrl)
            rows.append(row)
        final = step(scenario.n_steps * scenario.dt, y, lagged, ctrl, final=True)
        # the final record neither updates the control nor integrates
        assert final[:3] == (y, lagged, ctrl)
        rows.append(final[3])
        assert np.array(rows).tobytes() == run(scenario, params).as_array().tobytes()


def float_and_column_lump(trace, params, dist, flags, d1=None):
    """The lump kernel on floats row by row and, bound to numpy, once on the
    trace's columns; both as (rows, 7) arrays."""
    t = trace.column("t")
    s = [trace.column(c) for c in STATE_COLUMNS]
    lagged = [trace.column(c) for c in ACCEL_COLUMNS]
    z_G = [params.masses.z_G if d1 is None else params.masses.z_G_at(d1(v)) for v in t.tolist()]
    lump_f = lump_kernel(dist, flags, params.m)
    rows = np.array([lump_f(*args) for args in zip(np.column_stack(s).tolist(),
                                                    np.column_stack(lagged).tolist(),
                                                    t.tolist(), z_G)])
    lump_np = lump_kernel(dist, flags, params.m, sin=np.sin, maximum=np.maximum)
    columns = lump_np(s, lagged, t, params.masses.z_G if d1 is None else np.array(z_G))
    return rows, np.column_stack(np.broadcast_arrays(*columns))


ARM = PiecewiseConstant(((0.0, 0.8), (1.0, 0.2), (2.5, 0.5)))
COM_ONLY = DisturbanceFlags(com=True)


class TestEstimationOracle:
    @pytest.mark.parametrize("scenario, dist, ulps", [
        (Scenario(duration=10.0), DisturbanceParams(), 0),
        (Scenario(duration=4.0, d1_profile=ARM), DisturbanceParams(strict_signs=False), 0),
        (Scenario(duration=5.0, flags=COM_ONLY), DisturbanceParams(), 4),
        (Scenario(duration=3.0, ref_z=PiecewiseConstant.constant(0.3)), DisturbanceParams(), 4),
    ], ids=["stock", "arm_profile", "com_only", "low_altitude"])
    def test_column_kernel_equals_float_kernel(self, params, scenario, dist, ulps):
        # numpy squares by x * x where a float ** calls pow: a few ulp apart at most
        trace = run(scenario, params, dist_params=dist)
        rows, columns = float_and_column_lump(trace, params, dist, scenario.flags,
                                              scenario.d1_profile)
        oracle = estimation_oracle(trace, params, dist, scenario.flags, scenario.d1_profile)
        assert oracle["altitude"]["f_true"].tobytes() == (params.g + columns[:, 3]).tobytes()
        if ulps == 0:
            assert columns.tobytes() == rows.tobytes()
        else:
            spacing = np.spacing(np.maximum(np.abs(rows), np.abs(columns)))
            assert np.all(np.abs(columns - rows) <= ulps * spacing)

    @pytest.mark.parametrize("d1", [None, ARM], ids=["fixed_arm", "arm_profile"])
    def test_kernel_called_once_per_trace(self, params, monkeypatch, d1):
        trace = run(Scenario(duration=0.5, d1_profile=d1), params)
        calls, bind = [], sim_mod.lump_kernel

        def counting(*args, **kwargs):
            f = bind(*args, **kwargs)
            return lambda *a: calls.append(1) or f(*a)

        monkeypatch.setattr(sim_mod, "lump_kernel", counting)
        estimation_oracle(trace, params, d1_profile=d1)
        assert len(calls) == 1

    def test_arm_positions_by_array_lookup(self, params, monkeypatch):
        # the oracle looks the arm positions up for all rows at once; a lookup
        # row by row gives the same bits
        scenario = Scenario(duration=4.0, d1_profile=ARM)
        dist = DisturbanceParams(strict_signs=False)
        trace = run(scenario, params, dist_params=dist)
        fast = estimation_oracle(trace, params, dist, scenario.flags, ARM)
        monkeypatch.setattr(PiecewiseConstant, "at",
                            lambda self, t: np.array([self(v) for v in t.tolist()]))
        slow = estimation_oracle(trace, params, dist, scenario.flags, ARM)
        for name in fast:
            for key in ("f_true", "error"):
                assert fast[name][key].tobytes() == slow[name][key].tobytes()

    @pytest.mark.parametrize("scenario", [
        Scenario(duration=2.0),
        Scenario(duration=3.0, ref_z=PiecewiseConstant.constant(0.3)),
    ], ids=["stock", "low_altitude"])
    def test_ground_effect_is_left_unbound(self, params, monkeypatch, scenario):
        # G enters no delta, so the oracle binds its kernel without ground
        # effect; with ground effect bound every output keeps its bits
        trace = run(scenario, params)
        lean = estimation_oracle(trace, params)
        bound, bind = [], sim_mod.lump_kernel

        def with_ground_effect(dist, flags, m, **namespace):
            bound.append(flags)
            return bind(dist, replace(flags, ground_effect=True), m, **namespace)

        monkeypatch.setattr(sim_mod, "lump_kernel", with_ground_effect)
        full = estimation_oracle(trace, params)
        assert bound == [replace(DisturbanceFlags.all_on(), ground_effect=False)]
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
        oracle = estimation_oracle(trace, params, d1_profile=d1)
        late = trace.column("t") >= 2.0
        rms = np.sqrt(np.mean(oracle["pitch"]["error"][late] ** 2))
        assert rms < 0.05


class TestTraceLog:
    def test_csv_bytes_in_chunks(self, params, tmp_path):
        trace = run(Scenario(duration=2.1), params)
        assert len(trace) > CSV_CHUNK_ROWS and len(trace) % CSV_CHUNK_ROWS != 0
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        expected = io.StringIO(newline="")
        writer = csv.writer(expected)
        writer.writerow(trace.columns)
        for row in trace.as_array().tolist():
            writer.writerow([repr(v) for v in row])
        assert path.read_bytes() == expected.getvalue().encode("utf-8")
        back = TraceLog.from_csv(path)
        assert back.as_array().tobytes() == trace.as_array().tobytes()


    def test_csv_round_trip_exact(self, params, tmp_path):
        trace = run(Scenario(duration=0.05), params)
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        back = TraceLog.from_csv(path)
        assert back.columns == trace.columns
        assert np.array_equal(back.as_array(), trace.as_array())

    def test_header_only_file_has_no_records(self, tmp_path):
        path = tmp_path / "header.csv"
        path.write_text(",".join(COLUMNS) + "\r\n")
        trace = TraceLog.from_csv(path)
        assert trace.columns == COLUMNS and trace.as_array().shape == (0, len(COLUMNS))

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(InvalidParameterError):
            TraceLog.from_csv(path)

    @pytest.mark.parametrize("text", [
        "t,a\r\n0.0\r\n",
        "t,a\r\n0.0,1.0\r\n1.0\r\n",
        "t,a\r\n0.0,abc\r\n",
    ], ids=["short_row", "ragged", "not_a_number"])
    def test_malformed_rows_name_the_file(self, tmp_path, text):
        path = tmp_path / "bad.csv"
        path.write_text(text, newline="")
        with pytest.raises(InvalidParameterError, match="bad.csv"):
            TraceLog.from_csv(path)

    def test_unknown_column(self):
        log = TraceLog()
        with pytest.raises(KeyError):
            log.column("nope")

    def test_row_width_checked(self):
        log = TraceLog(columns=["a", "b"])
        with pytest.raises(InvalidParameterError):
            log.append([1.0])
        log.append([1.0, 2.0])
        assert log.column("b") == pytest.approx([2.0])
