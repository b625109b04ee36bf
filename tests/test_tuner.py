import math
from dataclasses import astuple, dataclass, field

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
                           match=r"^bound segment needs \[t_start, t_end, lower, upper\]$"):
            SignalBound("z", (segment,))

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
        assert report["diverged_at"] == pytest.approx(0.25)

    def test_oversized_scenario_sentinel(self):
        # the step count is refused before any trace is allocated
        p = short_problem()
        p.scenario = Scenario(duration=1e300)
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
