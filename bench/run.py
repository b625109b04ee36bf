#!/usr/bin/env python3
"""Benchmark of quadarm's simulation, tuning and replay paths.

Run from the repository root:

    python3 bench/run.py --workload flight --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all          # every workload in turn

Workloads (see README.md): ``flight``, ``tune_step`` and ``replay``.  Each
runs in one process with one compute thread, drives the public calls of
``quadarm simulate``, ``quadarm tune`` and ``quadarm plots`` in-process,
repeats its operation for ``--seconds`` and checks every output.  With
``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
run that alternates untraced and traced operations.
"""

import time

_T0 = time.perf_counter()  # set-up is timed from here, before the heavy imports

import os  # noqa: E402
import sys  # noqa: E402

# one compute thread: the figures should measure the program, not the scheduler
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402

import numpy as np  # noqa: E402
import yaml  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
from tracing import Tracer  # noqa: E402

ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "_out")

DEFAULT_SEED = 1
DEFAULT_SECONDS = 25
DT = 0.001
#: simulated seconds per workload input; ``tiny`` serves the smoke tests
SIZES = {
    "full": {"flight": 10.0, "tune_step": 0.25, "replay": 10.0},
    "tiny": {"flight": 0.5, "tune_step": 0.02, "replay": 0.5},
}
#: the settling and late-window estimation checks need a flight this long
SETTLED_AFTER_S = 8.0
MIN_OPS = 3          # untraced operations per run, at least
MIN_TRACED_OPS = 2   # of each kind in a traced run, at least
PLOT_SCRIPTS = 13

#: seed draws: attitude set-points in degrees, altitude in m, and factors
#: on the stock observer and PD gains for tune_step's start vector; every
#: check holds across these ranges
SETPOINT_RANGES = {"roll_deg": (3.0, 6.0), "pitch_deg": (3.0, 6.0),
                   "yaw_deg": (3.0, 6.0), "z": (3.0, 7.0)}
ESO_FACTOR = (0.9, 1.1)
PD_FACTOR = (0.6, 1.4)


class OperationFailed(Exception):
    """The program reported a failure instead of producing an output."""


def load_program():
    """Import quadarm from this checkout's src/, or exit if it has none."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "quadarm", "__init__.py")):
        sys.exit(f"bench: no quadarm package under {src}")
    sys.path.insert(0, src)
    import quadarm
    import quadarm.cli
    import quadarm.config
    import quadarm.errors
    import quadarm.sim
    import quadarm.tuner
    if not os.path.realpath(quadarm.__file__).startswith(os.path.realpath(src) + os.sep):
        sys.exit(f"bench: quadarm was imported from {quadarm.__file__}, not from {src}")
    return quadarm


def draw(seed: int):
    """Set-points and start-gain factors of one seed."""
    rng = random.Random(seed)
    setpoints = {key: rng.uniform(lo, hi) for key, (lo, hi) in SETPOINT_RANGES.items()}
    factors = ([rng.uniform(*ESO_FACTOR) for _ in range(3)]
               + [rng.uniform(*PD_FACTOR) for _ in range(8)])
    return setpoints, factors


def gains_vector(gains) -> list:
    """ControllerGains in the tuner's shared 11-gain order."""
    vector = [gains.eso.p1, gains.eso.p2, gains.eso.p3]
    for pd in (gains.pd_roll, gains.pd_pitch, gains.pd_yaw, gains.pd_altitude):
        vector += [pd.kp, pd.kd]
    return vector


def gains_from_vector(q, v):
    pd = [q.adrc.PdGains(v[i], v[i + 1]) for i in range(3, 11, 2)]
    return q.sim.ControllerGains(eso=q.adrc.EsoGains(v[0], v[1], v[2]), pd_roll=pd[0],
                                 pd_pitch=pd[1], pd_yaw=pd[2], pd_altitude=pd[3])


class Workload:
    """One workload's inputs, operation and output checks."""

    name = ""
    setups = 5  # set-ups timed per untraced run

    def __init__(self, seed: int, size: str, workdir: str):
        self.duration = SIZES[size][self.name]
        self.setpoints, self.factors = draw(seed)
        self.workdir = workdir
        self.config_path = os.path.join(workdir, "config.yaml")
        self.csv_path = os.path.join(workdir, "trace.csv")

    def config_data(self, q) -> dict:
        refs = {key: [[0.0, value]] for key, value in self.setpoints.items()}
        return {"scenario": {"duration": self.duration, "dt": DT, "references": refs}}

    def setup(self, q) -> None:
        """Write the workload's config and load it as the CLI does."""
        self.q = q
        with open(self.config_path, "w", encoding="utf-8") as fh:
            yaml.safe_dump(self.config_data(q), fh)
        self.cfg = q.config.load(self.config_path)

    def make_input(self) -> None:
        """Produce the recorded input a workload reads (set-up only)."""

    def load_input(self) -> None:
        """Read what the checks need from the recorded input."""

    def prepare(self) -> None:
        """Remove the previous operation's files so each is checked afresh."""

    def operation(self):
        raise NotImplementedError

    def check(self, output) -> None:
        raise NotImplementedError

    def _flight(self):
        cfg = self.cfg
        return self.q.sim.run(cfg.scenario, cfg.params, cfg.dist_params, cfg.gains)


class Flight(Workload):
    """The stock simulate scenario, then the CSV write of its trace."""

    name = "flight"
    previous = None

    def prepare(self):
        with contextlib.suppress(FileNotFoundError):
            os.remove(self.csv_path)

    def operation(self):
        trace = self._flight()
        trace.to_csv(self.csv_path)
        return trace

    def check(self, trace):
        cols, arr = list(trace.columns), trace.as_array()
        mixer = self.cfg.params.mixer
        checks.check_time_grid(arr, cols, self.duration, DT)
        if self.duration >= SETTLED_AFTER_S:
            checks.check_settled(arr, cols, self.setpoints)
        checks.check_trapezoid(arr, cols, DT)
        checks.check_rotors(arr, cols, mixer.k_f, mixer.k_m)
        if self.previous is not None:
            checks.check_identical(arr, self.previous, "two flights of one run")
        self.previous = arr
        checks.check_csv_roundtrip(self.csv_path, cols, arr)


class Recorder:
    """Tuning problem that records each evaluation; ``tune`` asks a problem
    only for ``box_lower``, ``box_upper`` and ``evaluate``."""

    def __init__(self, problem):
        self.problem = problem
        self.box_lower, self.box_upper = problem.box_lower, problem.box_upper
        self.evaluations = []

    def evaluate(self, vector):
        cost, report = self.problem.evaluate(vector)
        self.evaluations.append((np.array(vector, dtype=float), cost))
        return cost, report


class TuneStep(Workload):
    """One tune iteration on the 11-gain shared layout, short horizon."""

    name = "tune_step"

    def config_data(self, q):
        data = super().config_data(q)
        stock = gains_vector(q.sim.ControllerGains())
        data["tuner"] = {"layout": "shared",
                         "initial": [g * f for g, f in zip(stock, self.factors)],
                         "options": {"max_iterations": 1}}
        return data

    def setup(self, q):
        super().setup(q)
        self.problem = self.cfg.tune_problem()
        self.x0 = self.cfg.tune_initial()

    def operation(self):
        recorder = Recorder(self.problem)
        result = self.q.tuner.tune(recorder, self.x0, self.cfg.tuner_options)
        return recorder.evaluations, result

    def check(self, output):
        evaluations, result = output
        cfg, p = self.cfg, self.problem
        options, w = cfg.tuner_options, cfg.tuner_weights
        checks.check_tune_step(evaluations, result.vector, result.cost, result.iterations,
                               self.x0, p.box_lower, p.box_upper,
                               options.fd_eps_rel, options.fd_eps_floor)
        checks.check_box_routh(result.vector, p.box_lower, p.box_upper)
        fresh = self.q.sim.run(cfg.scenario, cfg.params, cfg.dist_params,
                               gains_from_vector(self.q, result.vector))
        tracking, effort = checks.cost_terms(fresh.as_array(), list(fresh.columns), DT)
        weights = {k: getattr(w, k) for k in ("tracking", "estimation", "effort",
                                              "bound_penalty")}
        checks.check_cost_report(result.report, result.cost, weights, tracking, effort)


class Replay(Workload):
    """Read a recorded flight, rebuild its true disturbances, write the plots."""

    name = "replay"
    setups = 3  # each simulates and writes a full flight

    def __init__(self, seed, size, workdir):
        super().__init__(seed, size, workdir)
        self.plots_dir = os.path.join(workdir, "plots")

    def make_input(self):
        self._flight().to_csv(self.csv_path)

    def load_input(self):
        self.columns, self.recorded = checks.read_csv(self.csv_path)

    def prepare(self):
        shutil.rmtree(self.plots_dir, ignore_errors=True)

    def operation(self):
        q, cfg = self.q, self.cfg
        trace = q.sim.TraceLog.from_csv(self.csv_path)
        oracle = q.sim.estimation_oracle(trace, cfg.params, cfg.dist_params, cfg.scenario.flags)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                q.cli.main(["plots", self.csv_path, "--out", self.plots_dir],
                           prog_name="quadarm", standalone_mode=False)
        except SystemExit as exc:
            raise OperationFailed(f"quadarm plots exited with {exc.code}") from None
        return trace, oracle

    def check(self, output):
        trace, oracle = output
        cols, arr = list(trace.columns), trace.as_array()
        if cols != self.columns:
            raise checks.CheckError("from_csv columns differ from the CSV header")
        checks.check_identical(arr, self.recorded, "from_csv values and the CSV's values")
        checks.check_time_grid(arr, cols, self.duration, DT)
        checks.check_altitude_truth(oracle["altitude"]["f_true"],
                                    checks.column(arr, cols, "delta_d"), self.cfg.params.g)
        if self.duration >= SETTLED_AFTER_S:
            checks.check_estimation(
                checks.column(arr, cols, "t"),
                {n: oracle[n]["f_true"] for n in checks.SUBSYSTEMS},
                {n: checks.column(arr, cols, f"f_hat_{n}") for n in checks.SUBSYSTEMS},
                window_start=self.duration / 2)
        checks.check_plot_scripts(self.plots_dir, self.csv_path, cols, PLOT_SCRIPTS)


WORKLOADS = {w.name: w for w in (Flight, TuneStep, Replay)}


def timed_setup(name, seed, size, workdir) -> float:
    """Set up in a fresh process; returns its imports-to-input seconds."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-only", "--workload", name,
           "--seed", str(seed), "--size", size, "--workdir", workdir]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up of {name} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def setup_only(name, seed, size, workdir) -> None:
    workload = WORKLOADS[name](seed, size, workdir)
    workload.setup(load_program())
    workload.make_input()
    print(json.dumps({"setup_s": time.perf_counter() - _T0}))


def run_workload(name: str, seed: int, seconds: float, trace: bool, size: str = "full") -> dict:
    """Set up, run operations for ``seconds`` and return the result object
    (with extra detail under ``detail``)."""
    q = load_program()
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=OUT)
    tracer = Tracer() if trace else None
    try:
        workload = WORKLOADS[name](seed, size, workdir)
        # an untraced run times several set-ups; a traced replay still needs its input
        n_setups = 0 if trace else workload.setups
        first = timed_setup(name, seed, size, workdir) if n_setups or name == "replay" else 0.0
        setups = [first][:n_setups]
        spare = os.path.join(workdir, "setup")
        os.makedirs(spare)
        if tracer:
            tracer.install()
        try:
            workload.setup(q)
        finally:
            if tracer:
                tracer.uninstall()
        workload.load_input()

        durations, traced_durations, problems = [], [], []
        attempted = failed = wrong = 0
        start, paused = time.perf_counter(), 0.0
        min_attempts = 2 * MIN_TRACED_OPS if tracer else MIN_OPS
        while attempted < min_attempts or time.perf_counter() - paused < start + seconds:
            # the other set-ups are spread over the run, so that they meet the
            # machine at different times; the run's clock stops meanwhile
            if len(setups) < n_setups and (time.perf_counter() - paused - start
                                           >= len(setups) * seconds / n_setups):
                t0 = time.perf_counter()
                setups.append(timed_setup(name, seed, size, spare))
                paused += time.perf_counter() - t0
            traced_op = tracer is not None and attempted % 2 == 1
            workload.prepare()
            attempted += 1
            if traced_op:
                tracer.install(op=attempted - 1)
            try:
                t0 = time.perf_counter()
                output = workload.operation()
                elapsed = time.perf_counter() - t0
            except (q.errors.QuadArmError, OperationFailed) as exc:
                failed += 1
                problems.append(f"operation {attempted - 1} failed: {exc}")
                continue
            finally:
                if traced_op:
                    tracer.uninstall()
            (traced_durations if traced_op else durations).append(elapsed)
            try:
                workload.check(output)
            except checks.CheckError as exc:
                wrong += 1
                problems.append(f"operation {attempted - 1}: {exc}")
            del output  # so that the next operation's peak memory is its own
        while len(setups) < n_setups:
            setups.append(timed_setup(name, seed, size, spare))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # failed operations produced no output; correct speaks of the others
    correct = wrong == 0
    metrics = {}
    if not trace:
        if setups:
            metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        if durations:
            metrics["wall_s"] = {"value": statistics.median(durations), "unit": "s"}
        metrics["peak_rss_mb"] = {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"}
    elif traced_durations and durations:
        metrics = tracer.layer_metrics(len(traced_durations))
        traced, untraced = statistics.median(traced_durations), statistics.median(durations)
        metrics["trace.wall_s"] = {"value": traced, "unit": "s"}
        metrics["trace.overhead_pct"] = {"value": 100.0 * (traced / untraced - 1.0), "unit": "%"}
    detail = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "size": size, "setups_s": setups, "durations_s": durations,
              "traced_durations_s": traced_durations, "problems": problems,
              "absent": tracer.absent if tracer else []}
    if tracer:
        tracer.save(os.path.join(OUT, f"spans-{name}-seed{seed}.npz"))
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics, "detail": detail}


def report(result: dict) -> None:
    """Print the result for a reader, then the JSON line for a machine."""
    d = result["detail"]
    print(f"quadarm bench: workload {d['workload']}, seed {d['seed']}, "
          f"{d['seconds']:g} s, trace {d['trace']}")
    notes = {"wall_s": f"median of {len(d['durations_s'])} operations",
             "setup_s": f"median of {len(d['setups_s'])} set-ups",
             "trace.wall_s": f"median of {len(d['traced_durations_s'])} traced operations"}
    for name, m in result["metrics"].items():
        print(f"  {name:30s} {m['value']:14.6g} {m['unit']:6s} {notes.get(name, '')}")
    if d["absent"]:
        print("  absent from the program: " + ", ".join(d["absent"]))
    for problem in d["problems"]:
        print(f"  {problem}")
    print(f"  attempted {result['attempted']}, failed {result['failed']}, "
          f"correct {str(result['correct']).lower()}")
    line = {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}
    with open(os.path.join(OUT, f"result-{d['workload']}-seed{d['seed']}-trace{d['trace']}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    print(json.dumps(line), flush=True)


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Run every workload, each in its own process, and sum the results."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            code = 1
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            combined["correct"] = False
            continue
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full",
                        help="input size; tiny is for the smoke tests")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_only:
        setup_only(args.workload, args.seed, args.size, args.workdir)
        return 0
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    report(result)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
