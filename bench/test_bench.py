"""Tests of the benchmark itself: a smoke run of every workload at a tiny
size, and each correctness check fed a corrupted output.

Run with ``python -m pytest bench``; the package's own suite (``tests/``)
does not collect this file.
"""

import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import run as bench  # noqa: E402
import tracing  # noqa: E402
from checks import CheckError  # noqa: E402

END_TO_END = {"setup_s", "wall_s", "peak_rss_mb"}
PER_LAYER = set(tracing.PER_LAYER) | {"trace.wall_s", "trace.overhead_pct"}


@pytest.fixture(scope="module")
def q():
    return bench.load_program()


# --- smoke runs -----------------------------------------------------------

@pytest.mark.parametrize("name", sorted(bench.WORKLOADS))
def test_smoke_untraced(name):
    result = bench.run_workload(name, seed=3, seconds=0, trace=False, size="tiny")
    assert result["correct"], result["detail"]["problems"]
    assert result["failed"] == 0
    assert result["attempted"] >= bench.MIN_OPS
    assert set(result["metrics"]) == END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", sorted(bench.WORKLOADS))
def test_smoke_traced(name):
    result = bench.run_workload(name, seed=3, seconds=0, trace=True, size="tiny")
    assert result["correct"], result["detail"]["problems"]
    assert result["failed"] == 0
    assert set(result["metrics"]) == PER_LAYER
    assert result["detail"]["absent"] == []
    assert result["metrics"]["config.load.s"]["value"] > 0


def test_missing_name_is_reported_absent(monkeypatch):
    monkeypatch.setitem(tracing.SPANS, "sim.to_csv", ("quadarm.sim", "TraceLog.gone"))
    result = bench.run_workload("flight", seed=3, seconds=0, trace=True, size="tiny")
    assert result["detail"]["absent"] == ["sim.to_csv"]
    assert "sim.to_csv.s" not in result["metrics"]
    assert "sim.to_csv.mb" not in result["metrics"]
    assert "sim.run.self_s" in result["metrics"]


def test_without_program_exits_nonzero_and_prints_no_result(tmp_path):
    here = os.path.dirname(os.path.abspath(__file__))
    shutil.copytree(here, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("_out", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "flight",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# --- corrupted outputs ----------------------------------------------------

@pytest.fixture(scope="module")
def flight(q, tmp_path_factory):
    wl = bench.Flight(1, "full", str(tmp_path_factory.mktemp("flight")))
    wl.setup(q)
    trace = wl.operation()
    wl.check(trace)
    return wl, list(trace.columns), trace.as_array()


def _with(arr, cols, name, row, delta):
    bad = arr.copy()
    bad[row, cols.index(name)] += delta
    return bad


def test_flight_checks_pass_on_a_real_flight(flight):
    wl, cols, arr = flight
    checks.check_rotors(arr, cols, wl.cfg.params.mixer.k_f, wl.cfg.params.mixer.k_m)
    checks.check_trapezoid(arr, cols, bench.DT)


@pytest.mark.parametrize("name", ["z", "phi", "x"])
def test_perturbed_position_breaks_trapezoid(flight, name):
    _, cols, arr = flight
    with pytest.raises(CheckError, match="trapezoid"):
        checks.check_trapezoid(_with(arr, cols, name, 5000, 1e-4), cols, bench.DT)


def test_dropped_row_breaks_time_grid(flight):
    _, cols, arr = flight
    with pytest.raises(CheckError, match="rows"):
        checks.check_time_grid(np.delete(arr, 100, axis=0), cols, 10.0, bench.DT)


def test_shifted_time_breaks_time_grid(flight):
    _, cols, arr = flight
    with pytest.raises(CheckError, match="k\\*dt"):
        checks.check_time_grid(_with(arr, cols, "t", 7, 1e-6), cols, 10.0, bench.DT)


# omega_r is odd in U4 but, to first order, blind to U2 and U3 away from saturation
@pytest.mark.parametrize("name, delta", [("omega_r", 1e-2), ("u_yaw", 1e-3)])
def test_perturbed_rotor_inputs_break_allocation(flight, name, delta):
    wl, cols, arr = flight
    mixer = wl.cfg.params.mixer
    with pytest.raises(CheckError, match="omega_r"):
        checks.check_rotors(_with(arr, cols, name, 4000, delta), cols, mixer.k_f, mixer.k_m)


def test_flipped_rotor_saturation_breaks_allocation(flight):
    wl, cols, arr = flight
    mixer = wl.cfg.params.mixer
    row = int(np.flatnonzero(arr[:, cols.index("rotor_sat")] == 0.0)[-1])
    with pytest.raises(CheckError, match="rotor_sat"):
        checks.check_rotors(_with(arr, cols, "rotor_sat", row, 1.0), cols,
                            mixer.k_f, mixer.k_m)


@pytest.mark.parametrize("name, delta", [("z", 0.06), ("psi", np.radians(0.11))])
def test_unsettled_end_breaks_settling(flight, name, delta):
    wl, cols, arr = flight
    with pytest.raises(CheckError, match="set-point"):
        checks.check_settled(_with(arr, cols, name, -1, delta), cols, wl.setpoints)


def test_one_ulp_breaks_determinism(flight):
    _, cols, arr = flight
    bad = arr.copy()
    bad[1234, 5] = np.nextafter(bad[1234, 5], np.inf)
    with pytest.raises(CheckError, match="bit-identical"):
        checks.check_identical(bad, arr, "two flights of one run")


def test_altered_csv_breaks_read_back(flight, tmp_path):
    wl, cols, arr = flight
    lines = open(wl.csv_path, encoding="utf-8").read().splitlines()
    fields = lines[500].split(",")
    fields[3] = repr(float(np.nextafter(float(fields[3]), np.inf)))
    lines[500] = ",".join(fields)
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(CheckError, match="bit-identical"):
        checks.check_csv_roundtrip(bad, cols, arr)


@pytest.fixture(scope="module")
def tune_step(q, tmp_path_factory):
    wl = bench.TuneStep(1, "full", str(tmp_path_factory.mktemp("tune")))
    wl.setup(q)
    output = wl.operation()
    wl.check(output)
    return wl, output


def _tune_check(wl, evaluations, vector, cost, iterations=1):
    p, o = wl.problem, wl.cfg.tuner_options
    return checks.check_tune_step(evaluations, vector, cost, iterations, wl.x0,
                                  p.box_lower, p.box_upper, o.fd_eps_rel, o.fd_eps_floor)


@pytest.mark.parametrize("term", ["tracking", "effort"])
def test_cost_term_off_by_one_percent_breaks_report(tune_step, term):
    wl, (_, result) = tune_step
    report = dict(result.report, **{term: result.report[term] * 1.01})
    fresh = wl.q.sim.run(wl.cfg.scenario, wl.cfg.params, wl.cfg.dist_params,
                         bench.gains_from_vector(wl.q, result.vector))
    tracking, effort = checks.cost_terms(fresh.as_array(), list(fresh.columns), bench.DT)
    weights = {k: getattr(wl.cfg.tuner_weights, k)
               for k in ("tracking", "estimation", "effort", "bound_penalty")}
    checks.check_cost_report(result.report, result.cost, weights, tracking, effort)
    with pytest.raises(CheckError, match=term):
        checks.check_cost_report(report, result.cost, weights, tracking, effort)
    with pytest.raises(CheckError, match="weighted sum"):
        checks.check_cost_report(result.report, result.cost * 1.01, weights, tracking, effort)


def test_no_decrease_breaks_tune_step(tune_step):
    wl, (evaluations, result) = tune_step
    with pytest.raises(CheckError, match="not below the start"):
        _tune_check(wl, evaluations, result.vector, evaluations[0][1])


def test_extra_or_missing_evaluation_breaks_tune_step(tune_step):
    wl, (evaluations, result) = tune_step
    assert _tune_check(wl, evaluations, result.vector, result.cost) >= 1
    with pytest.raises(CheckError, match="twice"):
        _tune_check(wl, evaluations + [evaluations[3]], result.vector, result.cost)
    with pytest.raises(CheckError, match="never evaluated"):
        _tune_check(wl, evaluations[:5] + evaluations[6:], result.vector, result.cost)
    with pytest.raises(CheckError, match="iterations"):
        _tune_check(wl, evaluations, result.vector, result.cost, iterations=2)


def test_ascent_try_breaks_tune_step(tune_step):
    wl, (evaluations, result) = tune_step
    x0 = evaluations[0][0]
    uphill = (2 * x0 - result.vector, result.cost)
    with pytest.raises(CheckError, match="descent"):
        _tune_check(wl, evaluations + [uphill], result.vector, result.cost)


def test_gains_outside_box_or_routh_break(tune_step):
    wl, (_, result) = tune_step
    lower, upper = wl.problem.box_lower, wl.problem.box_upper
    checks.check_box_routh(result.vector, lower, upper)
    outside = result.vector.copy()
    outside[4] = upper[4] * 2
    with pytest.raises(CheckError, match="box"):
        checks.check_box_routh(outside, lower, upper)
    unstable = result.vector.copy()
    unstable[2] = unstable[0] * unstable[1] * 2
    with pytest.raises(CheckError, match="Routh"):
        checks.check_box_routh(unstable, lower, upper)


@pytest.fixture(scope="module")
def replay(q, tmp_path_factory):
    wl = bench.Replay(1, "full", str(tmp_path_factory.mktemp("replay")))
    wl.setup(q)
    wl.make_input()
    wl.load_input()
    wl.prepare()
    output = wl.operation()
    wl.check(output)
    return wl, output


def test_perturbed_delta_d_breaks_altitude_truth(replay):
    wl, (trace, oracle) = replay
    cols, arr = list(trace.columns), trace.as_array()
    bad = _with(arr, cols, "delta_d", 2000, 1e-6)
    with pytest.raises(CheckError, match="g \\+ delta_d"):
        checks.check_altitude_truth(oracle["altitude"]["f_true"],
                                    checks.column(bad, cols, "delta_d"), wl.cfg.params.g)


@pytest.mark.parametrize("name", checks.SUBSYSTEMS)
def test_biased_estimate_breaks_estimation(replay, name):
    wl, (trace, oracle) = replay
    cols, arr = list(trace.columns), trace.as_array()
    t = checks.column(arr, cols, "t")
    f_true = {n: oracle[n]["f_true"] for n in checks.SUBSYSTEMS}
    f_hat = {n: checks.column(arr, cols, f"f_hat_{n}") for n in checks.SUBSYSTEMS}
    checks.check_estimation(t, f_true, f_hat, 5.0)
    late = t >= 5.0
    bias = 0.1 * np.sqrt(np.mean(f_true[name][late] ** 2))
    with pytest.raises(CheckError, match=name):
        checks.check_estimation(t, f_true, dict(f_hat, **{name: f_hat[name] + bias}), 5.0)


def test_missing_or_wrong_plot_script_breaks_plots(replay, tmp_path):
    wl, (trace, _) = replay
    cols = list(trace.columns)
    plots = tmp_path / "plots"
    shutil.copytree(wl.plots_dir, plots)
    checks.check_plot_scripts(plots, wl.csv_path, cols, bench.PLOT_SCRIPTS)
    first, *_ = sorted(plots.iterdir())
    text = first.read_text(encoding="utf-8")
    first.write_text(text.replace("using 1:", "using 1:999"), encoding="utf-8")
    with pytest.raises(CheckError, match="column"):
        checks.check_plot_scripts(plots, wl.csv_path, cols, bench.PLOT_SCRIPTS)
    first.unlink()
    with pytest.raises(CheckError, match="12 plot scripts"):
        checks.check_plot_scripts(plots, wl.csv_path, cols, bench.PLOT_SCRIPTS)


def test_altered_read_breaks_replay(replay):
    wl, (trace, _) = replay
    arr = trace.as_array()
    bad = arr.copy()
    bad[10, 10] += 1e-9
    checks.check_identical(arr, wl.recorded, "from_csv values and the CSV's values")
    with pytest.raises(CheckError, match="bit-identical"):
        checks.check_identical(bad, wl.recorded, "from_csv values and the CSV's values")
