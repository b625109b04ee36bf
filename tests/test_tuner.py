import math
from dataclasses import astuple, dataclass, field, replace

import numpy as np
import pytest

from quadarm import (ControllerGains, CostWeights, DisturbanceFlags, EsoGains, PdGains,
                     QuadParams, Scenario, SignalBound, TuneOptions, TuneProblem, cost, tune)
from quadarm import tuner as tuner_mod
from quadarm.adrc import SUBSYSTEMS
from quadarm.config import resolve
from quadarm.errors import InvalidParameterError
from quadarm.tuner import (LAYOUTS, PER_SUBSYSTEM_LAYOUT, SENTINEL_COST, SHARED_LAYOUT,
                           gains_from_vector, gains_vector, table_gains_vector)


@dataclass
class Quadratic:
    """Analytic fixture: separable quadratic bowl inside a box."""

    center: np.ndarray
    box_lower: np.ndarray = field(default_factory=lambda: np.full(3, -10.0))
    box_upper: np.ndarray = field(default_factory=lambda: np.full(3, 10.0))

    def evaluate(self, vector):
        v = np.asarray(vector, dtype=float)
        return float(np.sum((v - self.center) ** 2)), {}


FAST_OPTS = TuneOptions(max_iterations=300, rel_tol=1e-14)
BOWL = np.array([4.0, -4.0, 4.0])


DISTINCT_OVERRIDES = {name: EsoGains.from_bandwidth(w)
                      for name, w in zip(SUBSYSTEMS, (2.0, 3.0, 5.0, 7.0))}


class TestLayouts:
    def test_table_vector_round_trip(self):
        v = table_gains_vector()
        g = gains_from_vector(v, "shared")
        assert g.eso.p1 == pytest.approx(29.5659)
        assert g.pd_altitude.kd == pytest.approx(9.5557)
        assert g.eso_overrides == {}

    @pytest.mark.parametrize("gains, layout", [
        (ControllerGains(), "shared"),
        (ControllerGains(pd_yaw=PdGains(3.0, 4.0)), "shared"),
        # the per-subsystem layout sets every subsystem's observer gains as an override
        (ControllerGains(eso_overrides={name: EsoGains() for name in SUBSYSTEMS}),
         "per_subsystem"),
        (ControllerGains(eso=DISTINCT_OVERRIDES["roll"], eso_overrides=DISTINCT_OVERRIDES),
         "per_subsystem"),
    ])
    def test_codec_round_trip(self, gains, layout):
        v = gains_vector(gains, layout)
        assert v.shape == (len(LAYOUTS[layout]),)
        back = gains_from_vector(v, layout)
        assert back == gains
        # the float kernels get Python floats, not numpy scalars
        stored = [back.eso, *back.eso_overrides.values(),
                  back.pd_roll, back.pd_pitch, back.pd_yaw, back.pd_altitude]
        assert {type(x) for g in stored for x in astuple(g)} == {float}

    def test_layout_names(self):
        assert len(SHARED_LAYOUT) == 11
        assert len(PER_SUBSYSTEM_LAYOUT) == 20

    def test_per_subsystem_layout(self):
        v = np.concatenate([np.tile([6.0, 12.0, 8.0], 4), np.ones(8)])
        g = gains_from_vector(v, "per_subsystem")
        assert set(g.eso_overrides) == {"roll", "pitch", "yaw", "altitude"}
        assert g.eso_overrides["yaw"].p3 == 8.0

    def test_per_subsystem_initial_from_controller_section(self):
        cfg = resolve({"tuner": {"layout": "per_subsystem"}})
        x0 = cfg.tune_initial()
        assert len(x0) == 20
        assert np.array_equal(x0, gains_vector(cfg.gains, "per_subsystem"))

    def test_wrong_size_rejected(self):
        with pytest.raises(InvalidParameterError):
            gains_from_vector(np.ones(5), "shared")
        with pytest.raises(InvalidParameterError):
            gains_from_vector(np.ones(11), "per_subsystem")
        with pytest.raises(InvalidParameterError):
            gains_from_vector(np.ones(11), "banded")
        with pytest.raises(InvalidParameterError):
            gains_vector(ControllerGains(), "banded")


class TestSignalBound:
    def test_inside_band_no_violation(self):
        b = SignalBound("z", ((0.0, 1.0, -1.0, 1.0),))
        t = np.linspace(0, 1, 101)
        assert b.violation(t, np.zeros(101), 0.01) == 0.0

    def test_integrated_excess(self):
        # constant 2.0 against an upper bound of 1.0 over one second
        b = SignalBound("z", ((0.0, 1.0, -1.0, 1.0),))
        t = np.linspace(0, 1, 101)
        v = b.violation(t, np.full(101, 2.0), 0.01)
        assert v == pytest.approx(1.0, rel=0.02)

    def test_invalid_segments_rejected(self):
        with pytest.raises(InvalidParameterError):
            SignalBound("z", ((1.0, 0.5, -1.0, 1.0),))
        with pytest.raises(InvalidParameterError):
            SignalBound("z", ((0.0, 1.0, 2.0, 1.0),))
        with pytest.raises(InvalidParameterError):
            SignalBound("z", ((0.0, 2.0, -1.0, 1.0), (1.0, 3.0, -1.0, 1.0)))

    @pytest.mark.parametrize("segment", [(0.0, 1.0, 2.0), 1.0, (0.0, 1.0, -1.0, 1.0, 2.0)],
                             ids=["three_numbers", "number", "five_numbers"])
    def test_misshaped_segment_rejected(self, segment):
        with pytest.raises(InvalidParameterError,
                           match=r"^bound segment needs \[t_start, t_end, lower, upper\] "
                                 r"as four numbers$"):
            SignalBound("z", (segment,))

    @pytest.mark.parametrize("segments", [5, None, "abcd", {"x": 1}])
    def test_segments_not_a_list_refused(self, segments):
        with pytest.raises(InvalidParameterError, match=r"^bound needs a list of "
                           r"\[t_start, t_end, lower, upper\] segments$"):
            SignalBound("z", segments)

    def test_touching_segments_count_a_shared_sample_once(self):
        # the spike at t = 1 belongs to the segment that starts there; an end
        # that starts no other segment keeps its sample
        t = np.arange(201) / 100
        v = np.where(t == 1.0, 3.0, 1.5 * t)
        whole = SignalBound("z", ((0.0, 2.0, -1.0, 1.0),)).violation(t, v, 0.01)
        split = SignalBound("z", ((0.0, 1.0, -1.0, 1.0),
                                  (1.0, 2.0, -1.0, 1.0))).violation(t, v, 0.01)
        assert split == pytest.approx(whole, rel=1e-12)
        first = SignalBound("z", ((0.0, 1.0, -1.0, 1.0),)).violation(t, v, 0.01)
        assert first == pytest.approx(np.sum(np.maximum(v[:101] - 1.0, 0.0)) * 0.01, rel=1e-12)

    def test_segments_stored_as_floats(self):
        b = SignalBound("z", [[0, 1, -1, 1]])
        assert b.segments == ((0.0, 1.0, -1.0, 1.0),)
        assert all(type(x) is float for x in b.segments[0])


class TestQuadraticFixture:
    def test_interior_minimum_found(self):
        center = np.array([2.0, -3.0, 0.5])
        result = tune(Quadratic(center), np.ones(3), FAST_OPTS)
        assert result.vector == pytest.approx(center, abs=1e-4)
        assert result.cost < 1e-8
        assert result.converged

    def test_beats_grid_oracle(self):
        # coarse exhaustive search over the box cannot do better
        center = np.array([1.3, -0.7])
        problem = Quadratic(center, np.full(2, -5.0), np.full(2, 5.0))
        result = tune(problem, np.ones(2), FAST_OPTS)
        axis = np.linspace(-5, 5, 51)
        grid_best = min(problem.evaluate(np.array([a, b]))[0]
                        for a in axis for b in axis)
        assert result.cost <= grid_best

    def test_boundary_minimum_projected(self):
        # center outside the box: optimum is the clipped center
        center = np.array([20.0, 0.0, -20.0])
        problem = Quadratic(center)
        result = tune(problem, np.ones(3), FAST_OPTS)
        assert result.vector == pytest.approx([10.0, 0.0, -10.0], abs=1e-3)

    def test_zero_iterations_returns_initial(self):
        x0 = np.array([1.0, 1.0, 1.0])
        result = tune(Quadratic(np.zeros(3)), x0, TuneOptions(max_iterations=0))
        assert np.array_equal(result.vector, x0)
        assert result.cost == pytest.approx(3.0)
        assert len(result.history) == 1

    def test_history_monotone(self):
        result = tune(Quadratic(np.array([4.0, -4.0, 4.0])), np.ones(3), FAST_OPTS)
        costs = [c for _, c in result.history]
        assert all(b < a for a, b in zip(costs, costs[1:]))

    def test_initial_outside_box_rejected(self):
        with pytest.raises(InvalidParameterError):
            tune(Quadratic(np.zeros(3)), np.full(3, 99.0), FAST_OPTS)

    @pytest.mark.parametrize("x0", [[math.nan, 0.5], [0.5, 0.5, 0.5], [0.5]],
                             ids=["nan", "too_wide", "too_narrow"])
    def test_start_not_inside_the_box_rejected(self, x0):
        # each entry is compared with its own bounds, so a NaN or a misfit width cannot pass
        problem = Quadratic(np.zeros(2), np.zeros(2), np.ones(2))
        with pytest.raises(InvalidParameterError, match="^initial vector outside box bounds$"):
            tune(problem, x0, FAST_OPTS)

    def test_nan_start_cost_rejected(self):
        class NanBowl(Quadratic):
            def evaluate(self, vector):
                return math.nan, {}

        with pytest.raises(InvalidParameterError, match=r"cost nan is not below 1e\+12$"):
            tune(NanBowl(np.zeros(3)), np.ones(3), FAST_OPTS)

    def test_zero_width_coordinate_not_probed(self):
        # lower == upper leaves no room for a probe: that gain stays, the others descend
        problem = Quadratic(np.array([2.0, -3.0, 0.5]), np.array([-10.0, 1.0, -10.0]),
                            np.array([10.0, 1.0, 10.0]))
        result = tune(problem, np.ones(3), FAST_OPTS)
        assert result.vector[1] == 1.0
        assert result.vector[[0, 2]] == pytest.approx([2.0, 0.5], abs=1e-4)

    def test_zero_gradient_stops_before_line_search(self):
        problem, calls = Quadratic(np.zeros(3)), []
        evaluate = problem.evaluate
        problem.evaluate = lambda v: calls.append(v) or evaluate(v)
        result = tune(problem, np.zeros(3), FAST_OPTS)
        assert (result.iterations, result.converged, len(result.history)) == (1, True, 1)
        assert len(calls) == 1 + 2 * 3  # the start and the probes, no candidate

    # from (1, 1, 1) towards BOWL the first two candidates are taken whole: costs 43,
    # 27.52, 15.48
    @pytest.mark.parametrize("center, options, ended, evaluations", [
        (BOWL, TuneOptions(max_iterations=0), (0, False, 1), 1),
        (BOWL, TuneOptions(max_iterations=2, rel_tol=0.0), (2, False, 3), 1 + 2 * (6 + 1)),
        # a first move of 100 and its two halvings all end on the box's wall, at cost 300
        (np.zeros(3), TuneOptions(initial_step=100.0, max_backtracks=3), (1, True, 1),
         1 + 6 + 3),
        (BOWL, TuneOptions(rel_tol=0.5), (1, True, 2), 1 + 6 + 1),
    ], ids=["no_iterations", "iteration_limit", "no_lowering_step", "relative_gain"])
    def test_exits(self, center, options, ended, evaluations):
        # converged is True when the descent stops by itself, False at the iteration limit
        problem, calls = Quadratic(center), []
        evaluate = problem.evaluate
        problem.evaluate = lambda v: calls.append(v) or evaluate(v)
        result = tune(problem, np.ones(3), options)
        assert (result.iterations, result.converged, len(result.history)) == ended
        assert len(calls) == evaluations
        assert result.cost == result.history[-1][1] == evaluate(result.vector)[0]


def short_problem(**kw):
    scenario = Scenario(duration=2.0, dt=0.005,
                        flags=DisturbanceFlags(drag=True, ground_effect=True))
    return TuneProblem(scenario=scenario, params=QuadParams(), **kw)


class TestCost:
    def test_hurwitz_violation_sentinel(self, monkeypatch):
        # EsoGains refuses the candidate before any run is made
        calls = []
        monkeypatch.setattr(tuner_mod, "run", lambda *a, **k: calls.append(a))
        v = table_gains_vector()
        v[1] = 0.001  # p1 * p2 < p3
        total, report = cost(v, short_problem())
        assert total == SENTINEL_COST
        assert not report["feasible"]
        assert calls == []

    def test_negative_gain_sentinel(self):
        # kd <= 0 fails controller construction, not the Routh gate
        v = table_gains_vector()
        v[4] = -19.6321
        total, report = cost(v, short_problem())
        assert total == SENTINEL_COST
        assert not report["feasible"]

    def test_diverging_run_sentinel(self):
        # dt = 0.05 s is past the stock gains' sampled stability limit
        problem = TuneProblem(scenario=Scenario(duration=1.0, dt=0.05))
        total, report = cost(table_gains_vector(), problem)
        assert total == SENTINEL_COST
        assert not report["feasible"]
        assert report["diverged_at"] == pytest.approx(0.2)

    def test_oversized_scenario_sentinel(self):
        # the step count is refused before any trace is allocated
        p = replace(short_problem(), scenario=Scenario(duration=1e300))
        total, report = cost(table_gains_vector(), p)
        assert total == SENTINEL_COST
        assert not report["feasible"]

    def test_table_gains_feasible(self):
        total, report = cost(table_gains_vector(), short_problem())
        assert total < SENTINEL_COST
        assert report["feasible"]
        assert report["tracking"] > 0

    def test_reproducible(self):
        p = short_problem()
        a, _ = cost(table_gains_vector(), p)
        b, _ = cost(table_gains_vector(), p)
        assert a == b

    def test_bound_reported(self):
        p = short_problem(bounds=(SignalBound("z", ((0.0, 2.0, -0.1, 0.1),)),))
        total, report = cost(table_gains_vector(), p)
        # the 5 m climb must leave the tight band and get penalized
        assert report["bound_violations"]["z"] > 0
        assert total > report["tracking"]

    def test_bound_violations_add_up_per_signal(self):
        # a signal's entry holds the excess of each of its bounds, as the total does
        z = [SignalBound("z", ((t0, t1, -0.1, 0.1),)) for t0, t1 in ((0.0, 0.2), (0.3, 0.5))]
        p = TuneProblem(scenario=Scenario(duration=0.5),
                        bounds=(z[0], SignalBound("theta", ((0.0, 0.5, -1.0, 1.0),)), z[1]))
        _, report = cost(table_gains_vector(), p)
        assert report["bound_violations"] == {"z": pytest.approx(0.1537, abs=1e-4),
                                              "theta": 0.0}
        assert sum(report["bound_violations"].values()) == report["bound_violation"]

    def test_zero_estimation_weight_skips_oracle(self, monkeypatch):
        # the estimation term is the only one that needs the oracle
        calls = []
        monkeypatch.setattr(tuner_mod, "estimation_oracle", lambda *a, **k: calls.append(a))
        w = CostWeights(estimation=0.0)
        p = short_problem(weights=w, bounds=(SignalBound("z", ((0.0, 2.0, -0.1, 0.1),)),))
        total, report = cost(table_gains_vector(), p)
        assert calls == []
        assert report["feasible"] and report["estimation"] == 0.0
        assert report["bound_violation"] > 0
        assert total == (w.tracking * report["tracking"] + w.effort * report["effort"]
                         + w.bound_penalty * report["bound_violation"])

    @pytest.mark.parametrize("box", [
        {"box_lower": [math.nan] * 11},
        {"box_lower": [-math.inf] * 11},
        {"box_upper": [math.nan] * 11},
        {"box_upper": [math.inf] * 11},
        {"box_lower": [1.0] * 11, "box_upper": [0.5] * 11},
    ], ids=["nan_lower", "infinite_lower", "nan_upper", "infinite_upper", "crossed"])
    def test_inadmissible_box_rejected(self, box):
        with pytest.raises(InvalidParameterError):
            short_problem(**box)

    def test_negative_weight_rejected(self):
        with pytest.raises(InvalidParameterError,
                           match="^tracking must be non-negative and finite$"):
            CostWeights(tracking=-1.0)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("name", ["tracking", "estimation", "effort", "bound_penalty"])
    def test_non_finite_weight_rejected(self, name, bad):
        # an infinite weight makes a cost inf, or NaN on a zero term
        with pytest.raises(InvalidParameterError,
                           match=f"^{name} must be non-negative and finite$"):
            CostWeights(**{name: bad})

    def test_unknown_bound_signal_rejected(self):
        # refused where the bound is made, before any cost evaluation runs
        with pytest.raises(InvalidParameterError, match="'warp'"):
            SignalBound("warp", ((0.0, 1.0, 0.0, 1.0),))


class TestSimulationTune:
    def test_descent_from_detuned_gains(self):
        problem = short_problem()
        x0 = table_gains_vector()
        x0[3:] *= 0.5  # soften every PD pair
        f0, _ = problem.evaluate(x0)
        result = tune(problem, x0, TuneOptions(max_iterations=2))
        assert result.cost <= f0
        costs = [c for _, c in result.history]
        assert all(b < a for a, b in zip(costs, costs[1:]))
        # every accepted iterate satisfies the observer stability gate
        for vec, _ in result.history:
            p1, p2, p3 = vec[:3]
            assert p1 > 0 and p3 > 0 and p1 * p2 > p3

    def test_infeasible_start_rejected(self):
        problem = short_problem()
        x0 = table_gains_vector()
        x0[1] = 0.001
        with pytest.raises(InvalidParameterError):
            tune(problem, x0, TuneOptions(max_iterations=1))
