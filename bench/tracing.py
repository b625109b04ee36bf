"""Span tracing of quadarm's layers from outside the package.

While installed, the tracer's wrappers replace the public names where
callers look them up: module globals (``quadarm.sim.lump`` and every other
module global bound to the same function), class attributes
(``TraceLog.append``) and the ``plots`` command's callback.  Each call
records a span (name, start, end, parent span, operation); spans stay in
memory and are written once, by ``save``.  A name that no longer exists in
the program is reported as absent.
"""

from __future__ import annotations

import importlib
import os
import sys
import time
from array import array
from collections import Counter

import numpy as np

MB = 1024.0 * 1024.0

#: span name -> (module, dotted attribute path) of the traced callable
SPANS = {
    "config.load": ("quadarm.config", "load"),
    "sim.run": ("quadarm.sim", "run"),
    "sim.rk4_step": ("quadarm.sim", "rk4_step"),
    "model.state_derivative": ("quadarm.model", "state_derivative"),
    "model.rotor_speeds": ("quadarm.model", "rotor_speeds"),
    "disturbances.lump": ("quadarm.disturbances", "lump"),
    "adrc.step": ("quadarm.adrc", "AdrcController.step"),
    "adrc.eso_step": ("quadarm.adrc", "eso_step"),
    "sim.trace_append": ("quadarm.sim", "TraceLog.append"),
    "sim.to_csv": ("quadarm.sim", "TraceLog.to_csv"),
    "sim.from_csv": ("quadarm.sim", "TraceLog.from_csv"),
    "sim.column": ("quadarm.sim", "TraceLog.column"),
    "sim.estimation_oracle": ("quadarm.sim", "estimation_oracle"),
    "tuner.cost": ("quadarm.tuner", "cost"),
    "cli.plots": ("quadarm.cli", "plots.callback"),
}
#: counter name -> (module, dotted path) of a callable counted without a span
COUNTED = {
    "model.QuadState.built": ("quadarm.model", "QuadState.__post_init__"),
}

#: per-layer metric -> (source, statistic, unit).  Statistics: ``calls``
#: and counters are per operation; ``us``/``self_us`` are the mean per call;
#: ``s``/``self_s`` are the total per operation; ``per_call_s`` is the mean
#: per call; ``mb`` is the mean size over the recorded objects.
PER_LAYER = {
    "model.state_derivative.calls": ("model.state_derivative", "calls", "count"),
    "model.state_derivative.us": ("model.state_derivative", "us", "us"),
    "model.rotor_speeds.us": ("model.rotor_speeds", "us", "us"),
    "model.QuadState.built": ("model.QuadState.built", "counter", "count"),
    "disturbances.lump.calls": ("disturbances.lump", "calls", "count"),
    "disturbances.lump.us": ("disturbances.lump", "us", "us"),
    "adrc.step.calls": ("adrc.step", "calls", "count"),
    "adrc.step.us": ("adrc.step", "us", "us"),
    "adrc.eso_step.us": ("adrc.eso_step", "us", "us"),
    "sim.rk4_step.self_us": ("sim.rk4_step", "self_us", "us"),
    "sim.run.steps": ("sim.run.steps", "counter", "count"),
    "sim.run.self_s": ("sim.run", "self_s", "s"),
    "sim.trace_append.us": ("sim.trace_append", "us", "us"),
    "sim.trace.mb": ("sim.trace.mb", "mb", "MB"),
    "sim.to_csv.s": ("sim.to_csv", "s", "s"),
    "sim.to_csv.mb": ("sim.to_csv.mb", "mb", "MB"),
    "sim.from_csv.s": ("sim.from_csv", "s", "s"),
    "sim.column.calls": ("sim.column", "calls", "count"),
    "sim.column.s": ("sim.column", "s", "s"),
    "sim.estimation_oracle.s": ("sim.estimation_oracle", "s", "s"),
    "tuner.cost.calls": ("tuner.cost", "calls", "count"),
    "tuner.cost.sentinel": ("tuner.cost.sentinel", "counter", "count"),
    "tuner.cost.self_s": ("tuner.cost", "self_s", "s"),
    "config.load.s": ("config.load", "per_call_s", "s"),
    "cli.plots.s": ("cli.plots", "s", "s"),
}


FLOAT_SIZE = sys.getsizeof(0.0)


def deep_size(obj) -> int:
    """Bytes held by a trace: the object, its containers and their items."""
    if isinstance(obj, np.ndarray):
        return sys.getsizeof(obj) if obj.base is None else obj.nbytes
    if isinstance(obj, (list, tuple)):
        if all(type(x) is float for x in obj):
            return sys.getsizeof(obj) + FLOAT_SIZE * len(obj)
        return sys.getsizeof(obj) + sum(map(deep_size, obj))
    if isinstance(obj, dict):
        return sys.getsizeof(obj) + sum(map(deep_size, obj.values()))
    if hasattr(obj, "__dict__"):
        return sys.getsizeof(obj) + deep_size(vars(obj))
    return sys.getsizeof(obj)


class Tracer:
    """Records spans and counts of the wrapped layers while installed."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.excluded = array("d")  # time spent in the tracer's own hooks
        self.counters: Counter = Counter()
        self.sizes: dict[str, list] = {}
        self.absent: list[str] = []
        self._stack = [-1]
        self._op = -1
        self._saved: list = []
        self._sentinel = None

    # -- recording --------------------------------------------------------

    def _span(self, name: str, fn, after=None):
        if name not in self.names:
            self.names.append(name)
        nid, op = self.names.index(name), self._op
        stack, name_id, parent = self._stack, self.name_id, self.parent
        start, end, excluded = self.start, self.end, self.excluded
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            self.op.append(op)
            start.append(0.0)
            end.append(0.0)
            excluded.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                start[idx] = t0
                stack.pop()
            if after is not None and op >= 0:
                t1 = clock()
                after(args, result)
                spent = clock() - t1
                for enclosing in stack[1:]:
                    excluded[enclosing] += spent
            return result
        return traced

    def _count(self, name: str, fn):
        counters, op = self.counters, self._op

        def counted(*args, **kwargs):
            if op >= 0:
                counters[name] += 1
            return fn(*args, **kwargs)
        return counted

    def _size(self, name: str, nbytes: int) -> None:
        self.sizes.setdefault(name, []).append(nbytes / MB)

    def _after_run(self, args, trace):
        self.counters["sim.run.steps"] += len(trace) - 1
        self._size("sim.trace.mb", deep_size(trace))

    def _after_from_csv(self, args, trace):
        self._size("sim.trace.mb", deep_size(trace))

    def _after_to_csv(self, args, result):
        self._size("sim.to_csv.mb", os.path.getsize(args[1]))

    def _after_cost(self, args, result):
        if result[0] >= self._sentinel:
            self.counters["tuner.cost.sentinel"] += 1

    # -- installing -------------------------------------------------------

    def install(self, op: int = -1) -> None:
        """Replace every traced name; ``op`` tags the spans recorded.

        Counts and sizes are kept only inside operations (``op >= 0``).
        """
        self._op = op
        tuner = importlib.import_module("quadarm.tuner")
        self._sentinel = getattr(tuner, "SENTINEL_COST", float("inf"))
        after = {"sim.run": self._after_run, "sim.from_csv": self._after_from_csv,
                 "sim.to_csv": self._after_to_csv, "tuner.cost": self._after_cost}
        self.absent = []
        for name, target in SPANS.items():
            self._replace(name, target, lambda fn, n=name: self._span(n, fn, after.get(n)))
        for name, target in COUNTED.items():
            self._replace(name, target, lambda fn, n=name: self._count(n, fn))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []
        self._op = -1

    def _replace(self, name, target, make) -> None:
        module_name, path = target
        owner = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        try:
            for part in parents:
                owner = getattr(owner, part)
            # a class attribute is read raw, so a classmethod stays one
            raw = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
        except (AttributeError, KeyError):
            self.absent.append(name)
            return
        if isinstance(raw, classmethod):
            self._set(owner, attr, raw, classmethod(make(raw.__func__)))
        elif parents:
            self._set(owner, attr, raw, make(raw))
        else:
            # a module function: rebind it wherever a package module holds it
            wrapped = make(raw)
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").partition(".")[0] != "quadarm":
                    continue
                for key, value in list(vars(mod).items()):
                    if value is raw:
                        self._set(mod, key, raw, wrapped)

    def _set(self, owner, attr, original, replacement) -> None:
        self._saved.append((owner, attr, original))
        setattr(owner, attr, replacement)

    # -- reporting --------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "op": np.frombuffer(self.op, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "excluded": np.frombuffer(self.excluded, dtype=np.float64),
        }

    def layer_metrics(self, n_ops: int) -> dict:
        """Per-layer metrics over the traced operations (``n_ops`` of them).

        A layer's self time is its span's duration minus its child spans'.
        Durations leave out the time the tracer's hooks took inside them.
        """
        a = self.arrays()
        dur = a["end"] - a["start"] - a["excluded"]
        child = np.zeros_like(dur)
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        own = dur - child
        in_op = a["op"] >= 0

        metrics = {}
        for metric, (source, stat, unit) in PER_LAYER.items():
            if source.rsplit(".", 1)[0] in self.absent or source in self.absent:
                continue
            if stat == "counter":
                value = self.counters[source] / n_ops
            elif stat == "mb":
                sizes = self.sizes.get(source, [])
                value = sum(sizes) / len(sizes) if sizes else 0.0
            else:
                nid = self.names.index(source) if source in self.names else -1
                sel = a["name_id"] == nid
                if stat != "per_call_s":
                    sel &= in_op
                calls = int(np.count_nonzero(sel))
                total, total_self = float(np.sum(dur[sel])), float(np.sum(own[sel]))
                value = {
                    "calls": calls / n_ops,
                    "us": 1e6 * total / calls if calls else 0.0,
                    "self_us": 1e6 * total_self / calls if calls else 0.0,
                    "s": total / n_ops,
                    "self_s": total_self / n_ops,
                    "per_call_s": total / calls if calls else 0.0,
                }[stat]
            metrics[metric] = {"value": value, "unit": unit}
        return metrics

    def save(self, path) -> None:
        """Write every span once, with the name table, as an .npz file."""
        np.savez(path, names=np.array(self.names), **self.arrays())
