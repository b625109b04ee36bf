import errno
import functools
import math
import os

import pytest
import yaml
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from quadarm import cli
from quadarm import config as config_mod
from quadarm import sim as sim_mod
from quadarm import tuner as tuner_mod
from quadarm.cli import FIGURE_SET, main
from quadarm.adrc import SUBSYSTEMS, EsoGains
from quadarm.config import DEFAULTS, ConfigError, config_with_gains, load, resolve
from quadarm.errors import DivergenceError, IntegrationError, InvalidParameterError
from quadarm.model import MixerParams, QuadParams
from quadarm.sim import COLUMNS, Scenario, TraceLog
from quadarm.tuner import table_gains_vector

DEG = math.pi / 180.0


def write_yaml(path, data):
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(data, fh)
    return str(path)


SHORT_SCENARIO = {"scenario": {"duration": 0.1}}


class TestConfig:
    def test_defaults(self):
        cfg = resolve(None)
        assert cfg.scenario.duration == 10.0
        assert cfg.scenario.dt == 0.001
        assert cfg.scenario.ref_z(0.0) == 5.0
        assert cfg.gains.eso.p1 == pytest.approx(29.5659)
        assert cfg.params.m == pytest.approx(2.0)

    def test_empty_file_is_defaults(self, tmp_path):
        path = tmp_path / "empty.yaml"
        path.write_text("")
        assert load(str(path)).scenario.duration == 10.0

    def test_angle_references_in_degrees(self):
        cfg = resolve({"scenario": {"references": {"roll_deg": [[0.0, 10.0]]}}})
        assert cfg.scenario.ref_roll(0.0) == pytest.approx(10 * DEG)
        # untouched channels keep the stock 5 degree set-point
        assert cfg.scenario.ref_pitch(0.0) == pytest.approx(5 * DEG)

    def test_unknown_key_lists_path(self):
        with pytest.raises(ConfigError) as exc_info:
            resolve({"physical": {"mass": 2.0}})
        assert any("physical.mass" in p for p in exc_info.value.problems)

    def test_multiple_problems_collected(self):
        with pytest.raises(ConfigError) as exc_info:
            resolve({"physical": {"mass": 2.0}, "scenario": {"step": 0.1}})
        assert len(exc_info.value.problems) == 2

    def test_unstable_observer_rejected(self):
        with pytest.raises(ConfigError) as exc_info:
            resolve({"controller": {"eso": {"p1": 1.0, "p2": 1.0, "p3": 3000.0}}})
        assert any("controller.eso" in p for p in exc_info.value.problems)

    def test_negative_pd_rejected(self):
        with pytest.raises(ConfigError):
            resolve({"controller": {"pd": {"roll": {"kp": -1.0, "kd": 1.0}}}})

    def test_eso_override_free_form(self):
        cfg = resolve({"controller": {"eso_overrides": {
            "yaw": {"p1": 6.0, "p2": 12.0, "p3": 8.0}}}})
        assert cfg.gains.eso_for("yaw").p3 == 8.0
        assert cfg.gains.eso_for("roll").p3 == 3000.0

    @pytest.mark.parametrize("overrides", [None, {"yaw": None}], ids=["section", "entry"])
    def test_null_eso_override_keeps_stock_gains(self, overrides):
        gains = resolve({"controller": {"eso_overrides": overrides}}).gains
        assert gains.eso_for("yaw") == resolve(None).gains.eso

    @pytest.mark.parametrize("overrides, name, expected", [
        ({"roll": {"p2": 2900}}, "roll", (40, 2900, 3000.0)),
        ({"yaw": None}, "yaw", (40, 2907.0, 3000.0)),
    ], ids=["partial", "null"])
    def test_eso_override_patches_configured_eso(self, overrides, name, expected):
        gains = resolve({"controller": {"eso": {"p1": 40}, "eso_overrides": overrides}}).gains
        assert gains.eso_for(name) == EsoGains(*expected)

    def test_unknown_override_subsystem_rejected(self):
        with pytest.raises(ConfigError):
            resolve({"controller": {"eso_overrides": {
                "surge": {"p1": 6.0, "p2": 12.0, "p3": 8.0}}}})

    def test_geometry_path_derives_inertia(self):
        cfg = resolve({"physical": {"geometry": {
            "R_q": 0.1, "L_q": 0.45, "L_r": 0.2,
            "W_r": 0.05, "H_r": 0.05, "D_r": 0.1}}})
        assert cfg.params.inertia.I_xx != 0.018

    @pytest.mark.parametrize("duration, dt", [(0.1, 0.001), (0.02, 0.001), (2.1, 0.001)])
    def test_whole_step_durations_load(self, duration, dt):
        sc = resolve({"scenario": {"duration": duration, "dt": dt}}).scenario
        assert sc.n_steps == round(duration / dt)

    def test_cross_section_rules_follow_the_sections(self):
        # b_hat and the box order are checked once every section resolves on its own
        weak, reversed_box = ({"physical": {"inertia": {"l": 0.0005}}},
                              {"tuner": {"box": {"lower": [1e5] * 11, "upper": [1e-3] * 11}}})
        with pytest.raises(ConfigError) as refused:
            resolve({**weak, **reversed_box, "controller": {"pd": {"roll": {"kp": -1.0}}}})
        assert refused.value.problems == ["controller.pd.roll: kp must be positive and finite"]
        with pytest.raises(ConfigError) as refused:
            resolve({**weak, **reversed_box})
        assert refused.value.problems == ["physical.inertia: b_hat of roll is below 0.05",
                                          "tuner.box: lower bound exceeds upper bound"]

    def test_limits_message(self):
        with pytest.raises(ConfigError) as refused:
            resolve({"controller": {"u_limits": {"yaw": [5, -5]}}})
        assert refused.value.problems == [
            "controller.u_limits.yaw: expected an increasing [lower, upper] pair of numbers"]

    def test_tune_problem_built_once(self):
        cfg = resolve({"tuner": {"layout": "per_subsystem",
                                 "bounds": [{"signal": "z", "segments": [[0, 1, 0, 10]]}]}})
        problem = cfg.tune_problem()
        assert problem is cfg.tune_problem()
        assert (problem.layout, problem.scenario, problem.params, problem.weights) == (
            "per_subsystem", cfg.scenario, cfg.params, cfg.tuner_weights)
        assert [b.signal for b in problem.bounds] == ["z"]

    def test_tune_initial_checks_the_controller_start(self):
        cfg = resolve({"controller": {"pd": {"roll": {"kp": 1.0e180}}}})
        with pytest.raises(ConfigError) as refused:
            cfg.tune_initial()
        assert refused.value.problems == ["controller: kp_roll outside the tuner box"]

    def test_open_loop_needs_no_attitude_b_hat(self):
        # the attitude loops do not run open loop, so a small arm length loads
        resolve({"physical": {"inertia": {"l": 0.0005}}, "scenario": {"open_loop": True}})

    def test_top_level_not_mapping(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("- just\n- a\n- list\n")
        with pytest.raises(ConfigError):
            load(str(path))

    def test_tuned_gains_round_trip(self):
        cfg = resolve(None)
        v = table_gains_vector()
        v[3] = 42.0
        data = config_with_gains(cfg, v, "shared")
        back = resolve(data)
        assert back.gains.pd_roll.kp == pytest.approx(42.0)
        assert back.tune_initial() == pytest.approx(v)


class TestSimulateCommand:
    def test_runs_and_counts_records(self, tmp_path):
        cfg = write_yaml(tmp_path / "c.yaml", SHORT_SCENARIO)
        out = tmp_path / "trace.csv"
        result = CliRunner().invoke(main, ["simulate", "--config", cfg,
                                           "--out", str(out)])
        assert result.exit_code == 0, result.output
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 101  # header + duration/dt + 1 records

    def test_idempotent_output(self, tmp_path):
        cfg = write_yaml(tmp_path / "c.yaml", SHORT_SCENARIO)
        runner = CliRunner()
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            assert runner.invoke(main, ["simulate", "--config", cfg,
                                        "--out", str(out)]).exit_code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("command", ["simulate", "tune"])
    def test_seed_option_is_gone(self, tmp_path, monkeypatch, command):
        # both commands are deterministic and take no seed: an unknown option, before any run
        calls = []
        monkeypatch.setattr(cli, "run", lambda *a, **k: calls.append(a))
        monkeypatch.setattr(cli.tuner_mod, "tune", lambda *a, **k: calls.append(a))
        result = CliRunner().invoke(main, [command, "--seed", "1",
                                           "--out", str(tmp_path / "out")])
        assert result.exit_code == 2
        assert "No such option" in result.output and "--seed" in result.output
        assert calls == []

    def test_config_error_exit_2(self, tmp_path):
        cfg = write_yaml(tmp_path / "c.yaml", {"physical": {"mass": 2.0}})
        result = CliRunner().invoke(main, ["simulate", "--config", cfg])
        assert result.exit_code == 2
        assert "physical.mass" in result.output

    def test_unstable_observer_exit_2(self, tmp_path):
        cfg = write_yaml(tmp_path / "c.yaml", {
            "controller": {"eso": {"p1": 1.0, "p2": 1.0, "p3": 3000.0}}})
        result = CliRunner().invoke(main, ["simulate", "--config", cfg])
        assert result.exit_code == 2

    def test_divergence_exit_1(self, tmp_path):
        cfg = write_yaml(tmp_path / "c.yaml", {
            "scenario": {"duration": 10.0, "open_loop": True},
            "disturbances": {"enable": {"ground_effect": False, "wind": False,
                                        "com": False},
                             "drag": {"k": [5.0] * 6}},
        })
        result = CliRunner().invoke(
            main, ["simulate", "--config", cfg, "--out", str(tmp_path / "t.csv")])
        assert result.exit_code == 1
        assert "diverged" in result.output

    def test_missing_out_dir_exit_1_before_run(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "run", lambda *a, **k: calls.append(a))
        out = tmp_path / "absent" / "t.csv"
        result = CliRunner().invoke(main, ["simulate", "--out", str(out)])
        assert result.exit_code == 1
        assert result.output.strip().splitlines() == [
            f"output directory does not exist: {tmp_path / 'absent'}"]
        assert calls == []

    def test_out_is_directory_exit_1_before_run(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "run", lambda *a, **k: calls.append(a))
        result = CliRunner().invoke(main, ["simulate", "--out", str(tmp_path)])
        assert result.exit_code == 1
        assert result.output.strip().splitlines() == [f"output path is a directory: {tmp_path}"]
        assert calls == []

    def test_singular_mixer_one_line_exit_1(self, tmp_path, monkeypatch):
        # a config file with such a mixer exits 2 at load; a config built in
        # code meets the check the run keeps for library callers
        cfg = load(None)
        cfg.params = QuadParams(mixer=MixerParams(k_m=1e-300))
        cfg.scenario = Scenario(duration=0.1)
        monkeypatch.setattr(config_mod, "load", lambda path: cfg)
        result = CliRunner().invoke(main, ["simulate", "--out", str(tmp_path / "t.csv")])
        assert result.exit_code == 1
        assert result.output.strip().splitlines() == [
            "simulation failed: allocation matrix is singular"]

    def test_integration_error_one_line_exit_1(self, tmp_path, monkeypatch):
        def fail(*args, **kwargs):
            raise IntegrationError(0.25)

        monkeypatch.setattr(cli, "run", fail)
        result = CliRunner().invoke(main, ["simulate", "--out", str(tmp_path / "t.csv")])
        assert result.exit_code == 1
        assert len(result.output.strip().splitlines()) == 1
        assert "non-finite derivative at t=0.25" in result.output

    def test_infinite_stage_state_one_line_exit_1(self, tmp_path):
        cfg = write_yaml(tmp_path / "c.yaml", {
            "controller": {"pd": {"roll": {"kp": 1.0e300}},
                           "u_limits": {"roll": [-1.0e308, 1.0e308]}},
            "disturbances": {"enable": {"com": False}}, "scenario": {"duration": 0.01}})
        result = CliRunner().invoke(main, ["simulate", "--config", cfg,
                                           "--out", str(tmp_path / "t.csv")])
        assert result.exit_code == 1
        assert result.output.strip().splitlines() == [
            "simulation failed: non-finite derivative at t=0 s"]

    def test_tumbling_run_one_line_exit_1(self, tmp_path):
        # with every channel off, dt = 0.04 saturates the roll and altitude inputs and the
        # vehicle rolls past 90 degrees, where its thrust no longer lifts it
        cfg = write_yaml(tmp_path / "c.yaml", {
            "scenario": {"duration": 12.0, "dt": 0.04},
            "disturbances": {"enable": dict.fromkeys(("drag", "ground_effect", "wind", "com"),
                                                     False)}})
        result = CliRunner().invoke(main, ["simulate", "--config", cfg,
                                           "--out", str(tmp_path / "t.csv")])
        assert result.exit_code == 1
        assert result.output.strip().splitlines() == [
            "simulation failed: simulation diverged at t=0.48 s"]

    @pytest.mark.parametrize("physical, loop", [({"inertia": {"I_xx": 1.0e-310}}, "roll"),
                                                ({"m_q": 1.0e-320, "m_r": 0.0}, "altitude")])
    def test_infinite_b_hat_exit_2(self, tmp_path, physical, loop):
        # l / I_xx and -1 / m overflow to an infinite effectiveness: refused at load, not
        # as a non-finite derivative in the first periods
        cfg = write_yaml(tmp_path / "c.yaml", {"physical": physical})
        result = CliRunner().invoke(main, ["simulate", "--config", cfg,
                                           "--out", str(tmp_path / "t.csv")])
        assert result.exit_code == 2
        assert result.output.strip().splitlines() == [
            "invalid configuration:", f"  physical.inertia: b_hat of {loop} must be finite"]


class TestPlotsCommand:
    def test_emits_figure_scripts(self, tmp_path):
        cfg = write_yaml(tmp_path / "c.yaml", SHORT_SCENARIO)
        trace = tmp_path / "trace.csv"
        runner = CliRunner()
        assert runner.invoke(main, ["simulate", "--config", cfg,
                                    "--out", str(trace)]).exit_code == 0
        out_dir = tmp_path / "plots"
        result = runner.invoke(main, ["plots", str(trace), "--out", str(out_dir)])
        assert result.exit_code == 0, result.output
        scripts = sorted(p.name for p in out_dir.glob("*.gp"))
        assert len(scripts) == len(FIGURE_SET) == 13
        body = (out_dir / "tracking_altitude.gp").read_text()
        assert "plot " in body and "using 1:" in body

    def test_empty_trace_exit_1(self, tmp_path):
        trace = tmp_path / "empty.csv"
        trace.write_text("")
        result = CliRunner().invoke(main, ["plots", str(trace)])
        assert result.exit_code == 1
        assert result.output.splitlines() == [f"plotting failed: {trace}: empty trace file"]

    def test_header_only_trace_exit_1(self, tmp_path):
        trace = tmp_path / "header.csv"
        trace.write_text(",".join(COLUMNS) + "\n")
        result = CliRunner().invoke(
            main, ["plots", str(trace), "--out", str(tmp_path / "p")])
        assert result.exit_code == 1
        assert "trace contains no records" in result.output

    def test_out_is_file_exit_1(self, tmp_path):
        trace, out = tmp_path / "trace.csv", tmp_path / "taken"
        trace.write_text(",".join(COLUMNS) + "\n")
        out.write_text("")
        result = CliRunner().invoke(main, ["plots", str(trace), "--out", str(out)])
        assert result.exit_code == 1
        assert result.output.strip().splitlines() == [f"output directory is a file: {out}"]

    def test_trace_path_quoted_for_gnuplot(self, tmp_path):
        trace = tmp_path / "it's.csv"
        trace.write_text(",".join(COLUMNS) + "\n" + ",".join("0" * len(COLUMNS)) + "\n")
        result = CliRunner().invoke(main, ["plots", str(trace), "--out", str(tmp_path / "p")])
        assert result.exit_code == 0, result.output
        body = (tmp_path / "p" / "openloop_altitude.gp").read_text()
        quoted = os.path.abspath(trace).replace("'", "''")
        t, z = COLUMNS.index("t") + 1, COLUMNS.index("z") + 1
        assert f"plot '{quoted}' using {t}:{z} with lines" in body

    def test_missing_columns_named(self, tmp_path):
        # a CSV without the trace's columns is refused by its path, not by the columns
        trace = tmp_path / "thin.csv"
        trace.write_text("t,z\n0.0,0.0\n")
        result = CliRunner().invoke(
            main, ["plots", str(trace), "--out", str(tmp_path / "p")])
        assert result.exit_code == 1
        assert result.output.splitlines() == [
            f"plotting failed: {trace}: header is not the trace's columns"]
        assert not (tmp_path / "p").exists()

    def test_foreign_file_refused(self, tmp_path, foreign_trace):
        out = tmp_path / "p"
        result = CliRunner().invoke(main, ["plots", str(foreign_trace), "--out", str(out)])
        assert result.exit_code == 1
        assert result.output.splitlines() == [
            f"plotting failed: {foreign_trace}: header is not the trace's columns"]
        assert not out.exists()

    def test_trace_not_utf8_named(self, tmp_path):
        # the header is fine, but the first chunk the reader decodes holds a Latin-1 byte
        trace, out = tmp_path / "latin1.csv", tmp_path / "p"
        trace.write_bytes(",".join(COLUMNS).encode() + b"\ncaf\xe9\n")
        position = trace.read_bytes().index(b"\xe9")
        message = (f"{trace}: 'utf-8' codec can't decode byte 0xe9 in position {position}: "
                   "invalid continuation byte")
        result = CliRunner().invoke(main, ["plots", str(trace), "--out", str(out)])
        assert result.exit_code == 1
        assert result.output.splitlines() == [f"plotting failed: {message}"]
        assert not out.exists()
        with pytest.raises(InvalidParameterError) as refused:
            TraceLog.from_csv(trace)
        assert str(refused.value) == message

    def test_figures_plot_trace_columns(self):
        # plots reads its column indices off COLUMNS, which a checked header matches
        assert {c for _, cols, _ in FIGURE_SET for c in cols} <= set(COLUMNS)


def test_yaml_exponents_read_as_numbers(tmp_path):
    # YAML 1.1 reads 1e-3, 1e+3 and 1.0e180 as strings; the loader reads them as floats
    cfg = tmp_path / "c.yaml"
    cfg.write_text("scenario: {duration: 0.05, dt: 0.005}\n"
                   "tuner:\n  options: {fd_eps_rel: 1e-3, max_iterations: 1}\n"
                   "  weights: {bound_penalty: 1e+3}\n"
                   "controller:\n  u_limits: {yaw: [-1.0e180, 1.0e180]}\n")
    loaded = load(str(cfg))
    assert loaded.tuner_options.fd_eps_rel == 0.001
    assert loaded.tuner_weights.bound_penalty == 1000.0
    assert loaded.gains.u_limits["yaw"] == (-1e180, 1e180)
    result = CliRunner().invoke(main, ["tune", "--config", str(cfg),
                                       "--out", str(tmp_path / "tuned.yaml")])
    assert result.exit_code == 0, result.output


class TestTuneCommand:
    def test_start_outside_box_exit_2(self, tmp_path, monkeypatch):
        # without tuner.initial the start is the controller gains: only tune checks them
        calls = []
        monkeypatch.setattr(tuner_mod, "run", lambda *a, **k: calls.append(a))
        cfg = write_yaml(tmp_path / "c.yaml", {"scenario": {"duration": 0.05},
                                               "controller": {"pd": {"roll": {"kp": 1.0e180}}}})
        result = CliRunner().invoke(main, ["tune", "--config", cfg,
                                           "--out", str(tmp_path / "t.yaml")])
        assert result.exit_code == 2, result.output
        assert "  controller: kp_roll outside the tuner box" in result.output
        assert calls == []
        result = CliRunner().invoke(main, ["simulate", "--config", cfg,
                                           "--out", str(tmp_path / "t.csv")])
        assert result.exit_code == 0, result.output

    def test_shared_layout_eso_override_exit_2(self, tmp_path, monkeypatch):
        # a shared-layout start from the controller gains would drop the override
        calls = []
        monkeypatch.setattr(tuner_mod, "run", lambda *a, **k: calls.append(a))
        cfg = write_yaml(tmp_path / "c.yaml", {
            "scenario": {"duration": 0.05},
            "controller": {"eso_overrides": {"yaw": {"p1": 40.0}}}})
        result = CliRunner().invoke(main, ["tune", "--config", cfg,
                                           "--out", str(tmp_path / "t.yaml")])
        assert result.exit_code == 2, result.output
        assert ("  controller.eso_overrides: the shared layout tunes one observer"
                in result.output)
        assert calls == []
        result = CliRunner().invoke(main, ["simulate", "--config", cfg,
                                           "--out", str(tmp_path / "t.csv")])
        assert result.exit_code == 0, result.output

    def test_shared_layout_eso_override_with_given_start_exit_2(self, tmp_path, monkeypatch):
        # a given start tunes the shared observer too: the override would be dropped
        calls = []
        monkeypatch.setattr(tuner_mod, "run", lambda *a, **k: calls.append(a))
        cfg = write_yaml(tmp_path / "c.yaml", {
            "scenario": {"duration": 0.05},
            "controller": {"eso_overrides": {"yaw": {"p1": 40.0}}},
            "tuner": {"initial": table_gains_vector().tolist(),
                      "options": {"max_iterations": 0}}})
        result = CliRunner().invoke(main, ["tune", "--config", cfg,
                                           "--out", str(tmp_path / "t.yaml")])
        assert result.exit_code == 2, result.output
        assert ("  controller.eso_overrides: the shared layout tunes one observer"
                in result.output)
        assert calls == [] and not (tmp_path / "t.yaml").exists()
        result = CliRunner().invoke(main, ["simulate", "--config", cfg,
                                           "--out", str(tmp_path / "t.csv")])
        assert result.exit_code == 0, result.output

    def test_null_eso_override_still_tunes(self, tmp_path):
        # a null override is controller.eso, which the shared layout tunes
        cfg = write_yaml(tmp_path / "c.yaml", {"scenario": {"duration": 0.05},
                                               "controller": {"eso_overrides": {"yaw": None}},
                                               "tuner": {"options": {"max_iterations": 0}}})
        result = CliRunner().invoke(main, ["tune", "--config", cfg,
                                           "--out", str(tmp_path / "t.yaml")])
        assert result.exit_code == 0, result.output

    def test_round_trip_into_simulate(self, tmp_path):
        cfg = write_yaml(tmp_path / "c.yaml", {
            "scenario": {"duration": 0.5, "dt": 0.005},
            "tuner": {"options": {"max_iterations": 1}},
        })
        tuned = tmp_path / "tuned.yaml"
        runner = CliRunner()
        result = runner.invoke(main, ["tune", "--config", cfg,
                                      "--out", str(tuned)])
        assert result.exit_code == 0, result.output
        assert tuned.exists()
        history = tmp_path / "tuned_history.csv"
        assert history.exists()
        header = history.read_text().splitlines()[0]
        assert header.startswith("iteration,cost,p1,p2,p3")

        # the emitted config must load and simulate without edits
        result = runner.invoke(main, ["simulate", "--config", str(tuned),
                                      "--out", str(tmp_path / "t.csv")])
        assert result.exit_code == 0, result.output

    def test_infeasible_initial_exit_1(self, tmp_path):
        cfg = write_yaml(tmp_path / "c.yaml", {
            "scenario": {"duration": 0.2, "dt": 0.005},
            "tuner": {"initial": [29.5659, 0.001, 3000.0,
                                  90.0, 19.0, 79.0, 21.0, 69.0, 16.0, 10.0, 9.0]},
        })
        result = CliRunner().invoke(main, ["tune", "--config", cfg])
        assert result.exit_code == 1
        assert "tuning failed" in result.output

    def test_overflowing_initial_cost_named(self, tmp_path):
        # the start runs (feasible), but its weighted cost is past the sentinel
        cfg = write_yaml(tmp_path / "c.yaml", {"scenario": {"duration": 0.05},
                                               "tuner": {"weights": {"tracking": 1.0e308}}})
        result = CliRunner().invoke(main, ["tune", "--config", cfg,
                                           "--out", str(tmp_path / "t.yaml")])
        assert result.exit_code == 1
        assert result.output.strip().splitlines() == [
            "tuning failed: initial vector is infeasible: cost 1.274e+308 is not below 1e+12"]

    def test_missing_out_dir_exit_1_before_run(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(tuner_mod, "run", lambda *a, **k: calls.append(a))
        out = tmp_path / "absent" / "tuned.yaml"
        result = CliRunner().invoke(main, ["tune", "--out", str(out)])
        assert result.exit_code == 1
        assert result.output.strip().splitlines() == [
            f"output directory does not exist: {tmp_path / 'absent'}"]
        assert calls == []

    def test_out_is_directory_exit_1_before_run(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(tuner_mod, "run", lambda *a, **k: calls.append(a))
        result = CliRunner().invoke(main, ["tune", "--out", str(tmp_path)])
        assert result.exit_code == 1
        assert result.output.strip().splitlines() == [f"output path is a directory: {tmp_path}"]
        assert calls == []

    def test_history_path_is_directory_exit_1_before_run(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(tuner_mod, "run", lambda *a, **k: calls.append(a))
        (tmp_path / "t_history.csv").mkdir()
        result = CliRunner().invoke(main, ["tune", "--out", str(tmp_path / "t.yaml")])
        assert result.exit_code == 1
        assert result.output.strip().splitlines() == [
            f"output path is a directory: {tmp_path / 't_history.csv'}"]
        assert calls == []

    def test_runtime_error_one_line_exit_1(self, tmp_path, monkeypatch):
        def fail(*args, **kwargs):
            raise DivergenceError(0.5)

        monkeypatch.setattr(tuner_mod, "tune", fail)
        result = CliRunner().invoke(main, ["tune", "--out", str(tmp_path / "t.yaml")])
        assert result.exit_code == 1
        assert result.output.strip().splitlines() == [
            "tuning failed: simulation diverged at t=0.5 s"]


def enospc(*args, **kwargs):
    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


# id: (command, its arguments in the scratch directory ``d``, the function made
# to fail with ENOSPC or None, exit code, refused before the run)
BAD_PATHS = {
    "simulate-out-empty": ("simulate", lambda d: ["--out", ""], None, 1, True),
    "simulate-out-ends-in-separator":
        ("simulate", lambda d: ["--out", f"{d / 'nodir'}{os.sep}"], None, 1, True),
    "simulate-out-name-too-long":
        ("simulate", lambda d: ["--out", str(d / ("n" * 300))], None, 1, False),
    "simulate-out-disk-full":
        ("simulate", lambda d: ["--out", str(d / "t.csv")], (TraceLog, "to_csv"), 1, False),
    "simulate-config-directory": ("simulate", lambda d: ["--config", str(d)], None, 2, True),
    "simulate-config-not-utf8":
        ("simulate", lambda d: ["--config", str(d / "bom.yaml")], None, 2, True),
    "tune-out-empty": ("tune", lambda d: ["--out", ""], None, 1, True),
    "tune-out-ends-in-separator":
        ("tune", lambda d: ["--out", f"{d / 'nodir'}{os.sep}"], None, 1, True),
    "tune-out-name-too-long": ("tune", lambda d: ["--out", str(d / ("n" * 300))], None, 1, False),
    "tune-out-disk-full":
        ("tune", lambda d: ["--out", str(d / "t.yaml")], (config_mod, "dump"), 1, False),
    "tune-config-directory": ("tune", lambda d: ["--config", str(d)], None, 2, True),
    "tune-config-not-utf8": ("tune", lambda d: ["--config", str(d / "bom.yaml")], None, 2, True),
    "plots-out-empty": ("plots", lambda d: [str(d / "trace.csv"), "--out", ""], None, 1, True),
    "plots-out-name-too-long":
        ("plots", lambda d: [str(d / "trace.csv"), "--out", str(d / ("n" * 300))], None, 1,
         False),
    "plots-trace-directory": ("plots", lambda d: [str(d), "--out", str(d / "p")], None, 1, False),
    "plots-trace-not-utf8":
        ("plots", lambda d: [str(d / "bom.yaml"), "--out", str(d / "p")], None, 1, False),
}


@pytest.mark.parametrize("command, args, failing, code, refused", BAD_PATHS.values(),
                         ids=BAD_PATHS)
def test_bad_path_exits_with_one_line(tmp_path, monkeypatch, command, args, failing, code,
                                      refused):
    calls = []
    real_run, real_tune = cli.run, tuner_mod.tune
    monkeypatch.setattr(cli, "run", lambda *a, **k: calls.append(a) or real_run(*a, **k))
    monkeypatch.setattr(tuner_mod, "tune", lambda *a, **k: calls.append(a) or real_tune(*a, **k))
    if failing:
        monkeypatch.setattr(*failing, enospc)
    (tmp_path / "bom.yaml").write_bytes(b"\xff\xfe" + "scenario: {}\n".encode("utf-16-le"))
    (tmp_path / "trace.csv").write_text(",".join(COLUMNS) + "\n" + ",".join("0" * len(COLUMNS))
                                        + "\n")
    argv = args(tmp_path)
    if command != "plots" and "--config" not in argv:
        argv += ["--config", write_yaml(tmp_path / "short.yaml", {
            "scenario": {"duration": 0.01}, "tuner": {"options": {"max_iterations": 1}}})]
    result = CliRunner().invoke(main, [command, *argv])
    assert result.exit_code == code, result.output
    assert result.exception is None or isinstance(result.exception, SystemExit), (
        repr(result.exception))
    lines = result.output.splitlines()
    if code == cli.EXIT_CONFIG:
        # a config error prints its header, then here the one problem: the file
        config_path = argv[argv.index("--config") + 1]
        assert lines[0] == "invalid configuration:"
        assert len(lines) == 2 and lines[1].startswith(f"  {config_path}: "), result.output
    else:
        assert len(lines) == 1, result.output
    if refused:
        assert calls == []


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_simulate_failed_part_exits_with_one_line(tmp_path, monkeypatch):
    # a 2 s trace is written in two halves when two CPUs are usable; the child's
    # half goes to a device that is always full
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    if not sim_mod.csv_split(2001):
        pytest.skip("this platform writes a trace in one process")
    monkeypatch.setattr(os, "memfd_create",
                        lambda name: os.open("/dev/full", os.O_WRONLY | os.O_CLOEXEC))
    out = tmp_path / "t.csv"
    config = write_yaml(tmp_path / "two.yaml", {"scenario": {"duration": 2.0}})
    result = CliRunner().invoke(main, ["simulate", "--config", config, "--out", str(out)])
    assert result.exit_code == 1
    assert result.output.splitlines() == [
        f"simulation failed: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}: '{out}'"]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


GEOMETRY = {"R_q": 0.1, "L_q": 0.1, "L_r": 0.1, "W_r": 0.1, "H_r": 0.1, "D_r": 0.1}
#: a bad leaf of a section whose default names no keys, and the problem it reads as
FREE_FORM_LEAF_ERRORS = [
    ({"physical": {"geometry": {**GEOMETRY, "D_r": "abc"}}},
     "physical.geometry.D_r: expected a finite number"),
    ({"physical": {"geometry": {k: v for k, v in GEOMETRY.items() if k != "D_r"}}},
     "physical.geometry: missing 'D_r'"),
    ({"tuner": {"bounds": [{"signal": "z", "segments": [[0.0, 1.0, "a", 10.0]]}]}},
     "tuner.bounds[0]: bound segment needs [t_start, t_end, lower, upper] as four numbers"),
    ({"tuner": {"bounds": [None]}}, "tuner.bounds[0]: expected a mapping"),
    ({"tuner": {"bounds": [{"signal": "z", "segments": [1]}]}},
     "tuner.bounds[0]: bound segment needs [t_start, t_end, lower, upper] as four numbers"),
    ({"tuner": {"bounds": [{"signal": "z", "segments": [[0.0, 1.0, 2.0]]}]}},
     "tuner.bounds[0]: bound segment needs [t_start, t_end, lower, upper] as four numbers"),
    ({"controller": {"eso_overrides": {"bogus": {"p1": 1.0}}}},
     "controller.eso_overrides.bogus: unknown key"),
    ({"scenario": {"references": {"z": [[0, 5, 1]]}}},
     "scenario.references.z: profile segment needs [t_start, value] as two finite numbers"),
    ({"scenario": {"references": {"z": [5]}}},
     "scenario.references.z: profile segment needs [t_start, value] as two finite numbers"),
    ({"scenario": {"references": {"z": [[0]]}}},
     "scenario.references.z: profile segment needs [t_start, value] as two finite numbers"),
    ({"scenario": {"references": {"roll_deg": [[0, 5], [1, 2, 3]]}}},
     "scenario.references.roll_deg: profile segment needs [t_start, value] as two finite numbers"),
    ({"scenario": {"d1_profile": [[0, "a"]]}},
     "scenario.d1_profile: profile segment needs [t_start, value] as two finite numbers"),
]


@pytest.mark.parametrize("data, message", FREE_FORM_LEAF_ERRORS)
def test_free_form_leaf_named(data, message):
    with pytest.raises(ConfigError) as refused:
        resolve(data)
    assert refused.value.problems == [message]


#: a numeric list of the wrong width or with a non-number, and the problems it reads as
NUMERIC_LIST_ERRORS = [
    ({"controller": {"u_limits": {"roll": []}}},
     ["controller.u_limits.roll: expected an increasing [lower, upper] pair of numbers"]),
    ({"controller": {"u_limits": {"roll": [0, 1, 2]}}},
     ["controller.u_limits.roll: expected an increasing [lower, upper] pair of numbers"]),
    ({"controller": {"u_limits": {"roll": [[0], 1]}}},
     ["controller.u_limits.roll: expected an increasing [lower, upper] pair of numbers"]),
    ({"disturbances": {"drag": {"k": ["a"] * 6}}},
     ["disturbances.drag: need six non-negative finite drag coefficients"]),
    ({"disturbances": {"drag": {"k": [0.1] * 5}}},
     ["disturbances.drag: need six non-negative finite drag coefficients"]),
    ({"disturbances": {"drag": {"k": [-1] * 6}, "wind": {"n": -1}}},
     ["disturbances.drag: need six non-negative finite drag coefficients",
      "disturbances.wind: n must be positive and finite"]),
]


@pytest.mark.parametrize("data, problems", NUMERIC_LIST_ERRORS)
def test_numeric_list_problems(data, problems):
    with pytest.raises(ConfigError) as refused:
        resolve(data)
    assert refused.value.problems == problems


@pytest.mark.parametrize("data, path", [
    ({"tuner": {"layout": "foo"}}, "tuner.layout"),
    ({"tuner": {"box": {"lower": [1e-3] * 2, "upper": [1e5] * 11}}}, "tuner.box.lower"),
    ({"tuner": {"box": {"upper": [1e5] * 11}}}, "tuner.box.lower"),
    ({"tuner": {"box": {"lower": [1e-3] * 11}}}, "tuner.box.upper"),
    ({"tuner": {"box": {"lower": [1e5] * 11, "upper": [1e-3] * 11}}}, "tuner.box"),
    ({"tuner": {"initial": [1.0] * 5}}, "tuner.initial"),
    ({"tuner": {"layout": "per_subsystem", "initial": [1.0] * 11}}, "tuner.initial"),
    ({"controller": {"u_limits": {"roll": 3}}}, "controller.u_limits.roll"),
    ({"controller": {"u_limits": {"roll": [5, -5]}}}, "controller.u_limits.roll"),
    ({"physical": {"g": "abc"}}, "physical.g"),
    ({"disturbances": {"enable": {"drag": "false"}}}, "disturbances.enable.drag"),
    ({"disturbances": {"strict_signs": 0}}, "disturbances.strict_signs"),
    ({"scenario": {"open_loop": None}}, "scenario.open_loop"),
    ({"tuner": {"options": {"max_iterations": -3}}}, "tuner.options"),
    ({"tuner": {"options": {"max_iterations": 2.5}}}, "tuner.options"),
    ({"tuner": {"options": {"max_backtracks": 0}}}, "tuner.options"),
    ({"tuner": {"options": {"fd_eps_rel": 0.0}}}, "tuner.options"),
    ({"tuner": {"options": {"fd_eps_floor": -1e-6}}}, "tuner.options"),
    ({"tuner": {"options": {"initial_step": math.inf}}}, "tuner.options.initial_step"),
    ({"tuner": {"options": {"rel_tol": -1.0}}}, "tuner.options"),
    ({"tuner": {"initial": [1e6, 2907.0, 3000.0, 90.0, 19.0, 79.0, 21.0, 69.0, 16.0, 10.0, 9.0]}},
     "tuner.initial"),
    ({"tuner": {"initial": [29.5659, 2907.0, 3000.0, 90.0, 19.0, 79.0, 21.0, 69.0, 16.0, 10.0,
                            9.0], "box": {"lower": [1e-3] * 11, "upper": [50.0] * 11}}},
     "tuner.initial"),
    ({"physical": {"mixer": {"k_m": 1.0e-300}}}, "physical.mixer"),
    ({"physical": {"inertia": {"l": 0.0005}}}, "physical.inertia"),
    ({"physical": {"geometry": {"R_q": 3.0, "L_q": 3.0, "L_r": 1.0, "W_r": 1.0, "H_r": 1.0,
                                "D_r": 1.0}}}, "physical.inertia"),
    ({"physical": {"m_q": "1.8"}}, "physical.m_q"),
    ({"physical": {"g": "9.81"}}, "physical.g"),
    ({"physical": {"mixer": {"k_f": True}}}, "physical.mixer.k_f"),
    ({"physical": {"m_q": 10 ** 400}}, "physical.m_q"),
    ({"scenario": {"initial_state": [10 ** 400] * 12}}, "scenario.initial_state"),
    ({"tuner": {"bounds": 1}}, "tuner.bounds"),
    ({"scenario": {"duration": 0.0105, "dt": 0.001}}, "scenario.duration"),
    ({"scenario": {"dt": math.inf}}, "scenario.dt"),
    ({"controller": {"eso_overrides": {"roll": {"p1": "29"}}}}, "controller.eso_overrides.roll.p1"),
    ({"controller": {"eso_overrides": {"roll": {"p4": 1.0}}}}, "controller.eso_overrides.roll.p4"),
    ({"tuner": {"bounds": [{"signal": "nope", "segments": [[0.0, 1.0, 0.0, 1.0]]}]}},
     "tuner.bounds[0]"),
    ({"controller": {"pd": {"roll": {"kp": math.nan}}}}, "controller.pd.roll.kp"),
    ({"physical": {"m_q": math.nan}}, "physical.m_q"),
    ({"physical": {"d1": math.nan}}, "physical.d1"),
    ({"physical": {"mixer": {"k_f": math.nan}}}, "physical.mixer.k_f"),
    ({"disturbances": {"ground_effect": {"rho": math.nan}}}, "disturbances.ground_effect.rho"),
    ({"disturbances": {"drag": {"k": [0.3729] * 5 + [math.nan]}}}, "disturbances.drag"),
    ({"disturbances": {"drag": {"k": [math.inf] * 6}}}, "disturbances.drag"),
    ({"scenario": {"references": {"z": [[0.0, 0.0], [math.nan, 5.0]]}}},
     "scenario.references.z"),
    ({"physical": {"g": -math.inf}}, "physical.g"),
    ({"tuner": {"box": {"lower": [math.nan] * 11, "upper": [1e5] * 11}}}, "tuner.box.lower"),
    ({"tuner": {"box": {"lower": [-math.inf] * 11, "upper": [1e5] * 11}}}, "tuner.box.lower"),
    ({"tuner": {"box": {"lower": [1e-3] * 11, "upper": [math.nan] * 11}}}, "tuner.box.upper"),
    ({"scenario": {"duration": 1.0e300}}, "scenario.duration"),
    ({"tuner": {"box": {"lower": [1e-3] * 11, "upper": [1e5] * 11, "uper": 1}}},
     "tuner.box.uper"),
    ({"tuner": {"bounds": [{"signal": "z", "segments": [[0.0, 1.0, 0.0, 10.0]], "bogus": 1}]}},
     "tuner.bounds[0].bogus"),
    ({"physical": {"geometry": {"R_q": 0.1, "L_q": 0.1, "L_r": 0.1, "W_r": 0.1, "H_r": 0.1,
                                "D_r": 0.1, "x": 1}}}, "physical.geometry.x"),
    *((data, message.split(": ")[0]) for data, message in FREE_FORM_LEAF_ERRORS),
    *((data, problems[-1].split(": ")[0]) for data, problems in NUMERIC_LIST_ERRORS),
    ({"scenario": {"d1_profile": 5}}, "scenario.d1_profile"),
    ({"physical": {"g": 0}}, "physical"),
    ({"physical": {"g": -1}}, "physical"),
    ({"physical": {"inertia": {"l": -1}}}, "physical"),
    ({"physical": {"inertia": {"J_r": -1}}}, "physical"),
])
def test_schema_error_exit_2_names_key_path(tmp_path, monkeypatch, data, path):
    calls = []
    for module in (cli, tuner_mod):
        monkeypatch.setattr(module, "run", lambda *a, **k: calls.append(a))
    cfg = write_yaml(tmp_path / "c.yaml", data)
    for command in ("simulate", "tune"):
        result = CliRunner().invoke(main, [command, "--config", cfg,
                                           "--out", str(tmp_path / "out")])
        assert result.exit_code == 2, result.output
        assert f"  {path}: " in result.output
    assert calls == []


LEAVES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.sampled_from(["1e-3", "false", "9.81", "abc", "", 10 ** 400]),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner,
                                                                 max_size=3),
    max_leaves=6)


def config_tree(default, path=""):
    """Mappings over the key tree of ``default``: each key optional, each node the
    default, an arbitrary leaf or (for a mapping) a mapping over its own keys."""
    if path == "controller.eso_overrides":
        keys = st.sampled_from([*SUBSYSTEMS, "bogus"])
        return st.dictionaries(keys, config_tree(DEFAULTS["controller"]["eso"]) | LEAVES,
                               max_size=2)
    if not isinstance(default, dict):
        return st.just(default) | LEAVES
    return LEAVES | st.fixed_dictionaries({}, optional={
        key: config_tree(value, f"{path}.{key}" if path else key)
        for key, value in default.items()})


@settings(max_examples=300, deadline=None)
@given(config_tree(DEFAULTS))
def test_resolve_resolves_or_raises_config_error(data):
    try:
        resolve(data)
    except ConfigError:
        pass


#: where each numeric-list leaf sits in a config
NUMERIC_LISTS = {
    "u_limits": lambda v: {"controller": {"u_limits": {"roll": v}}},
    "drag": lambda v: {"disturbances": {"drag": {"k": v}}},
    "reference": lambda v: {"scenario": {"references": {"z": v}}},
    "d1_profile": lambda v: {"scenario": {"d1_profile": v}},
    "open_loop_u1": lambda v: {"scenario": {"open_loop_u1": v}},
    "bound": lambda v: {"tuner": {"bounds": [{"signal": "z", "segments": v}]}},
}
NUMERIC_ENTRIES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.sampled_from(["1", "abc", 10 ** 400]),
    lambda inner: st.lists(inner, max_size=5), max_leaves=8)
#: words of Python's own errors, which name no rule of the config
PYTHON_WORDS = ("unpack", "not supported between", "is not iterable", "is not subscriptable",
                "could not convert", "float() argument", "too large to convert")


@pytest.mark.parametrize("place", NUMERIC_LISTS.values(), ids=NUMERIC_LISTS)
@settings(max_examples=100, deadline=None)
@given(entries=st.lists(NUMERIC_ENTRIES, max_size=7))
def test_numeric_list_loads_or_states_its_rule(place, entries):
    try:
        resolve(place(entries))
    except ConfigError as exc:
        assert [p for p in exc.problems if any(w in p for w in PYTHON_WORDS)] == []


def leaf_paths(tree, path=()):
    """Key paths of the leaves of a default mapping (an empty mapping is a leaf)."""
    if not isinstance(tree, dict) or not tree:
        return [path]
    return [leaf for key, value in tree.items() for leaf in leaf_paths(value, (*path, key))]


def nested(path, value):
    """The config that sets only the leaf at the key path ``path``, to ``value``."""
    for key in reversed(path):
        value = {key: value}
    return value


#: where the sweep puts a value: every default leaf, each side of a tuner box, a bound's segments
SWEPT = {**{".".join(p): functools.partial(nested, p) for p in leaf_paths(DEFAULTS)},
         "tuner.box.lower": lambda v: {"tuner": {"box": {"lower": v, "upper": [1e5] * 11}}},
         "tuner.box.upper": lambda v: {"tuner": {"box": {"lower": [1e-3] * 11, "upper": v}}},
         "tuner.bounds[0].segments": lambda v: {"tuner": {"bounds": [{"signal": "z",
                                                                      "segments": v}]}}}
SWEEP_VALUES = [None, True, False, "abc", "1", "5", [], [1], [[1]], {"x": 1}, {"a": {"b": 1}},
                math.inf, -math.inf, math.nan, 10 ** 400, 1e300, -1e300, -1, 0, 5, [True, False],
                ["-5", "5"], [[0, "a"]], [[0, True]], [None] * 12, ["0"] * 12, [True] * 11,
                [[0, 1, 2, 3]], [0.0] * 11, [0.0] * 20, [[0, math.inf, 0, 1]]]


def test_every_leaf_loads_or_states_its_rule():
    # each value alone at each place: a config loads, or is a ConfigError whose
    # problems name the program's own rules
    worded = []
    for where, place in SWEPT.items():
        for value in SWEEP_VALUES:
            try:
                resolve(place(value))
            except ConfigError as exc:
                worded += [(where, value, p) for p in exc.problems
                           if any(w in p for w in PYTHON_WORDS)]
    assert worded == []


# scenario.duration stays at 0.01 s, so no example integrates more than ten steps
FUZZED_LEAVES = [p for p in leaf_paths(DEFAULTS) if p != ("scenario", "duration")]
BAD_VALUES = ["abc", True, None, {"x": 1.0}, math.nan, math.inf, -math.inf, 1e300, -1e300,
              1e180, [-1e200, 1e200], [], [0.5], [1.0] * 25]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(FUZZED_LEAVES), st.sampled_from(BAD_VALUES)),
                min_size=1, max_size=3))
def test_simulate_exits_cleanly_on_any_leaf(tmp_path_factory, leaves):
    # CliRunner turns an escaped exception into exit code 1 and prints no
    # traceback, so the exception itself is what tells an escape apart
    data = {"scenario": {"duration": 0.01}}
    for path, value in leaves:
        node = data
        for key in path[:-1]:
            node = node.setdefault(key, {})
        node[path[-1]] = value
    tmp = tmp_path_factory.mktemp("fuzz")
    result = CliRunner().invoke(main, ["simulate", "--config", write_yaml(tmp / "c.yaml", data),
                                       "--out", str(tmp / "trace.csv")])
    assert result.exit_code in (0, 1, 2), result.output
    assert result.exception is None or isinstance(result.exception, SystemExit), (
        repr(result.exception))
