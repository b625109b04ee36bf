"""Command-line interface: simulate, tune, plots.

Exit codes: 0 success, 1 runtime failure (divergence, infeasible start, an
unreadable trace, a failed output write), 2 configuration error (including an
unreadable config file). The commands only raise; the group's ``invoke`` alone
turns an error into its exit code and message, so a programming error still
shows its traceback.
"""

from __future__ import annotations

import os
import sys

import click

from . import config as config_mod
from . import tuner as tuner_mod
from .errors import QuadArmError
from .sim import COLUMNS, TraceLog, run, write_rows

EXIT_RUNTIME = 1
EXIT_CONFIG = 2

# the label that opens each command's one-line runtime failure
FAILURE_LABELS = {"simulate": "simulation failed", "tune": "tuning failed",
                  "plots": "plotting failed"}


def _fail(message, code=EXIT_RUNTIME):
    """Print ``message`` to stderr and exit with ``code``: the CLI's only exit."""
    click.echo(message, err=True)
    sys.exit(code)


class _Commands(click.Group):
    """The command group; its ``invoke`` turns a command's error into an exit code."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except config_mod.ConfigError as exc:
            _fail(str(exc), EXIT_CONFIG)
        except (QuadArmError, OSError, UnicodeDecodeError) as exc:
            _fail(f"{FAILURE_LABELS[ctx.invoked_subcommand]}: {exc}")


@click.group(cls=_Commands)
def main():
    """Quadrotor-manipulator simulator, ADRC control stack and gain tuner."""


def _check_out_dir(path, is_dir=False):
    """Exit before any work when the output ``path`` cannot be written: an empty
    path, a file path that ends in a separator, names a directory or lies in a
    missing one, or a directory path (``is_dir``) that names a file."""
    directory = os.path.dirname(os.path.abspath(path))
    if is_dir and os.path.exists(path) and not os.path.isdir(path):
        _fail(f"output directory is a file: {path}")
    elif not is_dir and os.path.isdir(path):
        _fail(f"output path is a directory: {path}")
    elif not path or not is_dir and path.endswith(os.sep):
        _fail(f"output path names no {'directory' if is_dir else 'file'}: '{path}'")
    elif not is_dir and not os.path.isdir(directory):
        _fail(f"output directory does not exist: {directory}")


@main.command()
@click.option("--config", "config_path", type=click.Path(exists=True), default=None,
              help="YAML config; omit for the stock tracking scenario.")
@click.option("--out", "out_path", type=click.Path(), default="trace.csv",
              show_default=True, help="Output CSV trace.")
def simulate(config_path, out_path):
    """Run one scenario and write the trace log as CSV."""
    cfg = config_mod.load(config_path)
    _check_out_dir(out_path)
    trace = run(cfg.scenario, cfg.params, cfg.dist_params, cfg.gains)
    trace.to_csv(out_path)
    click.echo(f"wrote {len(trace)} records to {out_path}")


@main.command()
@click.option("--config", "config_path", type=click.Path(exists=True), default=None,
              help="YAML config with a tuner section.")
@click.option("--out", "out_path", type=click.Path(), default="tuned.yaml",
              show_default=True, help="Output config with the tuned gains.")
def tune(config_path, out_path):
    """Optimize the controller gains against the configured scenario."""
    cfg = config_mod.load(config_path)
    problem, x0 = cfg.tune_problem(), cfg.tune_initial()
    history_path = os.path.splitext(out_path)[0] + "_history.csv"
    _check_out_dir(out_path)
    _check_out_dir(history_path)
    result = tuner_mod.tune(problem, x0, cfg.tuner_options)
    tuned = config_mod.config_with_gains(cfg, result.vector, problem.layout)
    config_mod.dump(tuned, out_path)

    write_rows(history_path, ["iteration", "cost", *tuner_mod.LAYOUTS[problem.layout]],
               ((i, cost, *vec.tolist()) for i, (vec, cost) in enumerate(result.history)))

    click.echo(f"final cost {result.cost:.6g} after {result.iterations} iterations "
               f"({'converged' if result.converged else 'iteration limit'})")
    click.echo(f"wrote {out_path} and {history_path}")


# each entry: (script name, plotted columns of ``COLUMNS``, y-axis label)
FIGURE_SET = [
    ("openloop_altitude", ["z"], "altitude [m]"),
    ("tracking_roll", ["ref_roll", "phi", "x1_hat_roll"], "roll [rad]"),
    ("tracking_pitch", ["ref_pitch", "theta", "x1_hat_pitch"], "pitch [rad]"),
    ("tracking_yaw", ["ref_yaw", "psi", "x1_hat_yaw"], "yaw [rad]"),
    ("tracking_altitude", ["ref_z", "z", "x1_hat_altitude"], "altitude [m]"),
    ("disturbance_roll", ["f_hat_roll"], "estimated disturbance"),
    ("disturbance_pitch", ["f_hat_pitch"], "estimated disturbance"),
    ("disturbance_yaw", ["f_hat_yaw"], "estimated disturbance"),
    ("disturbance_altitude", ["f_hat_altitude"], "estimated disturbance"),
    ("control_roll", ["u_roll"], "control input"),
    ("control_pitch", ["u_pitch"], "control input"),
    ("control_yaw", ["u_yaw"], "control input"),
    ("control_altitude", ["u_altitude"], "control input"),
]


@main.command()
@click.argument("trace_path", type=click.Path(exists=True))
@click.option("--out", "out_dir", type=click.Path(), default="plots",
              show_default=True, help="Directory for the plot scripts.")
def plots(trace_path, out_dir):
    """Emit one gnuplot script per figure class from a trace CSV."""
    _check_out_dir(out_dir, is_dir=True)
    # the scripts need only the header; the records stay in the file
    with open(trace_path, newline="", encoding="utf-8") as fh:
        TraceLog.read_header(fh, trace_path)
        if not fh.read(1):
            _fail("trace contains no records")

    os.makedirs(out_dir, exist_ok=True)
    # a gnuplot single-quoted string doubles each quote it holds
    quoted = "'" + os.path.abspath(trace_path).replace("'", "''") + "'"
    t_idx = COLUMNS.index("t") + 1  # gnuplot columns are 1-based
    for name, cols, ylabel in FIGURE_SET:
        lines = [
            "set datafile separator ','",
            f"set title '{name.replace('_', ' ')}'",
            "set xlabel 'time [s]'",
            f"set ylabel '{ylabel}'",
            "set key autotitle columnhead",
        ]
        plot_parts = [f"{quoted} using {t_idx}:{COLUMNS.index(c) + 1} with lines" for c in cols]
        lines.append("plot " + ", \\\n     ".join(plot_parts))
        with open(os.path.join(out_dir, f"{name}.gp"), "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
    click.echo(f"wrote {len(FIGURE_SET)} plot scripts to {out_dir}")


if __name__ == "__main__":
    main()
