"""Static checks over the package source."""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from quadarm import adrc, disturbances, model, sim
from quadarm.config import Config
from quadarm.sim import TraceLog

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "quadarm"
# __init__.py imports names to re-export them through __all__
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))


def unused_imports(source: str) -> list:
    """Names a module imports and never refers to."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used)


def test_detects_an_unused_import():
    assert unused_imports("import math\nfrom os import path, sep\nprint(sep)\n") == [
        "math", "path"]


@pytest.mark.parametrize("path", MODULES + TESTS, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def module_imports(source: str) -> set:
    """Top-level names of the modules a source imports."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names |= {a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_detects_module_imports():
    assert module_imports("import csv.x as c\nfrom os import path\nfrom . import csv\n") == {
        "csv", "os"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_csv_module(path):
    # a trace and a tune history are written by one rule: comma-joined reprs, CRLF ends
    assert "csv" not in module_imports(path.read_text(encoding="utf-8"))


def names_used(source: str, names) -> set:
    """Which of ``names`` a source refers to as a bare name (not an attribute)."""
    return {n.id for n in ast.walk(ast.parse(source)) if isinstance(n, ast.Name)} & set(names)


def test_detects_names_used():
    assert names_used("exec(x)\nre.compile(y)\nf = compile\n", {"exec", "compile", "eval"}) == {
        "exec", "compile"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_code_is_compiled_only_by_the_renderer(path):
    # generated code has one home: ``render`` compiles the formula texts, once each
    used = names_used(path.read_text(encoding="utf-8"), {"exec", "eval", "compile"})
    assert used == ({"exec", "compile"} if path.name == "render.py" else set())


def attributes_used(source: str, names) -> set:
    """Which of the dotted ``names`` a source refers to, such as ``os.fork``."""
    return {ast.unparse(n) for n in ast.walk(ast.parse(source))
            if isinstance(n, ast.Attribute)} & set(names)


def test_detects_attributes_used():
    assert attributes_used("os.fork()\nf = os._exit\nfork()\n", {"os.fork", "os._exit"}) == {
        "os.fork", "os._exit"}


def naming_functions(source: str, names) -> list:
    """The functions whose own bodies name one of the dotted ``names``, such as
    ``sys.exit``; ``<module>`` for a name outside every function."""
    callers = set()

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Attribute) and ast.unparse(child) in names:
                callers.add(owner)
            is_def = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if is_def else owner)

    visit(ast.parse(source), "<module>")
    return sorted(callers)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_processes_are_forked_only_by_the_csv_writer(path):
    # a forked child leaves only through ``os._exit``, and only ``sim.halves`` forks: the
    # one helper that the CSV writer and the CSV reader share
    source = path.read_text(encoding="utf-8")
    used = attributes_used(source, {"os.fork", "os._exit"})
    assert used == ({"os.fork", "os._exit"} if path.name == "sim.py" else set())
    assert set(naming_functions(source, used)) == ({"halves"} if used else set())


def test_loop_takes_the_control_period_whole():
    # one period's order of observe, PD and cancel has one home: ``adrc.CONTROL``
    used = attributes_used((PACKAGE / "sim.py").read_text(encoding="utf-8"), {
        "adrc.START", "adrc.OBSERVE", "adrc.PD", "adrc.CANCEL", "adrc.CONTROL"})
    assert used == {"adrc.CONTROL"}


def assigned_string_lists(source: str) -> list:
    """The string lists and tuples a source assigns to a name, each as a list."""
    return [[e.value for e in node.value.elts] for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Assign) and isinstance(node.value, (ast.List, ast.Tuple))
            and node.value.elts and all(isinstance(e, ast.Constant) and isinstance(e.value, str)
                                        for e in node.value.elts)]


def test_detects_assigned_string_lists():
    assert assigned_string_lists('A = ["u", "sat"]\nB = ("x",)\nC = [1, "y"]\nf(["z"])\n') == [
        ["u", "sat"], ["x"]]


def test_trace_takes_the_loop_signals_whole():
    # a record's per-loop columns have one home: ``adrc.SIGNALS``, what a period returns
    source = (PACKAGE / "sim.py").read_text(encoding="utf-8")
    assert attributes_used(source, {"adrc.SIGNALS"}) == {"adrc.SIGNALS"}
    assert [names for names in assigned_string_lists(source)
            if set(names) & set(adrc.SIGNALS)] == []
    assert adrc.StepDiagnostics._fields == tuple(adrc.SIGNALS)


def test_loop_logs_the_record_table():
    # a record's order has one home: ``sim.RECORD``, whose loop names fill the one record line
    assert "pack_into(" not in sim.LOOP
    text = sim.loop_text()
    line = f"pack_into(records, k * row_bytes, {', '.join(sim.RECORD[c] for c in sim.COLUMNS)})\n"
    assert text.count("pack_into(") == text.count(line) == 1
    # each name it logs is one the loop binds
    bound = {n.id for n in ast.walk(ast.parse(text))
             if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
    assert set(sim.RECORD.values()) <= bound


def test_loop_computes_each_period_term_once():
    # what holds over a period is computed once in it, and the state's bounds are one
    # chained test: a formula edit that undoes a hoist fails here
    tree = ast.parse(sim.loop_text())
    assigned = [n.id for n in ast.walk(tree) if isinstance(n, ast.Name)
                and isinstance(n.ctx, ast.Store)]
    calls = [ast.unparse(n) for n in ast.walk(tree) if isinstance(n, ast.Call)]
    assert assigned.count("thrust") == 1
    assert calls.count("sin(n * (t + h))") == 1
    assert "max(" not in sim.loop_text() and "isfinite(y1 + " not in sim.loop_text()


def test_records_take_their_kernels_names():
    # the lump's results, the plant's inputs and the rotor speed each have one
    # home, which the one-call records and the loop's text read
    assert disturbances.DisturbanceOutputs._fields == disturbances.OUTPUTS
    assert model.ControlInputs._fields[:5] == model.INPUTS
    assert model.SPEED in sim.loop_text()
    assert [names for names in assigned_string_lists((PACKAGE / "sim.py").read_text(
        encoding="utf-8")) if set(names) & set(disturbances.OUTPUTS)] == []


def compared_strings(source: str, function: str) -> list:
    """String literals that ``function``'s body compares anything with."""
    tree = ast.parse(source)
    body = next(n for n in ast.walk(tree)
                if isinstance(n, ast.FunctionDef) and n.name == function)
    return [operand.value for node in ast.walk(body) if isinstance(node, ast.Compare)
            for operand in (node.left, *node.comparators)
            if isinstance(operand, ast.Constant) and isinstance(operand.value, str)]


def test_detects_compared_strings():
    source = "def f(p):\n    if p == 'a' or 'b' in p or p is None:\n        return 'c'\n"
    assert compared_strings(source, "f") == ["a", "b"]


def test_merge_has_no_per_path_branch():
    # a section's own check belongs in ``_SECTION_KEYS``, not in a branch on its key path
    assert compared_strings((PACKAGE / "config.py").read_text(encoding="utf-8"), "_merge") == []


def raised_names(source: str) -> list:
    """What each ``raise`` in a source raises, in line order: the exception
    class, or None for a bare re-raise."""
    raises = sorted((n for n in ast.walk(ast.parse(source)) if isinstance(n, ast.Raise)),
                    key=lambda n: n.lineno)
    return [None if n.exc is None else ast.unparse(getattr(n.exc, "func", n.exc))
            for n in raises]


def test_detects_raised_names():
    source = ("def f(x):\n    if x:\n        raise errors.Bad('x') from None\n"
              "    try:\n        g()\n    except E:\n        raise\n    raise E\n")
    assert raised_names(source) == ["errors.Bad", None, "E"]


def test_config_raises_only_config_error():
    # a rule the library checks is reported through ``_build``, not checked again here
    assert set(raised_names((PACKAGE / "config.py").read_text(encoding="utf-8"))) == {
        "ConfigError"}


def test_detects_exit_callers():
    source = ("import sys\ndef f():\n    def g():\n        sys.exit(1)\n    sys.exit(2)\n"
              "def h():\n    g()\nsys.exit(0)\n")
    assert naming_functions(source, {"sys.exit"}) == ["<module>", "f", "g"]


def test_cli_exits_in_one_function():
    # the commands raise; one helper turns an error into the exit code
    assert naming_functions((PACKAGE / "cli.py").read_text(encoding="utf-8"),
                            {"sys.exit"}) == ["_fail"]


def traced_targets() -> dict:
    """``SPANS`` and ``COUNTED`` of the benchmark's tracer, read from ``bench/tracing.py``."""
    path = PACKAGE.parent.parent / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return {**tracing.SPANS, **tracing.COUNTED}


TRACED = traced_targets()


@pytest.mark.parametrize("name", sorted(TRACED))
def test_traced_name_exists(name):
    # the per-layer benchmark wraps these names; one the package lost is reported absent
    module, path = TRACED[name]
    owner = importlib.import_module(module)
    for part in path.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


def package_calls(source: str) -> list:
    """Calls ``q.<module>.<name>(...)`` and ``self.q.<module>.<name>(...)``, ``q``
    being the package: (dotted path below the package, positional count,
    keyword names, line)."""
    calls = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        parts, owner = [], node.func
        while isinstance(owner, ast.Attribute):
            parts.insert(0, owner.attr)
            owner = owner.value
        if isinstance(owner, ast.Name) and owner.id == "self" and parts[:1] == ["q"]:
            parts = parts[1:]
        elif not (isinstance(owner, ast.Name) and owner.id == "q"):
            continue
        if len(parts) < 2:
            continue
        calls.append((".".join(parts), len(node.args), tuple(k.arg for k in node.keywords),
                      node.lineno))
    return sorted(calls, key=lambda call: call[3])


def test_detects_package_calls():
    source = "q.sim.run(a, b, gains=g)\nself.q.tuner.tune(x)\nq.run(a)\nother.sim.run(a)\n"
    assert package_calls(source) == [("sim.run", 2, ("gains",), 1), ("tuner.tune", 1, (), 2)]


BENCH_CALLS = package_calls((PACKAGE.parent.parent / "bench" / "run.py").read_text(
    encoding="utf-8"))


def test_bench_calls_found():
    assert BENCH_CALLS


@pytest.mark.parametrize("path, n_args, keywords, line", BENCH_CALLS,
                         ids=[f"{c[0]}@{c[3]}" for c in BENCH_CALLS])
def test_bench_call_binds(path, n_args, keywords, line):
    # the benchmark's program calls would otherwise fail only when it runs
    module, *attrs = path.split(".")
    target = importlib.import_module(f"quadarm.{module}")
    for attr in attrs:
        target = getattr(target, attr)
    inspect.signature(target).bind(*[None] * n_args, **dict.fromkeys(keywords))


def owner_reads(source: str, owners) -> list:
    """Attributes read off the names ``owners`` and off ``self.<owner>``:
    (owner, attribute, line)."""
    reads = set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Attribute):
            continue
        owner = node.value
        if (isinstance(owner, ast.Attribute) and isinstance(owner.value, ast.Name)
                and owner.value.id == "self"):
            name = owner.attr
        elif isinstance(owner, ast.Name):
            name = owner.id
        else:
            continue
        if name in owners:
            reads.add((name, node.attr, node.lineno))
    return sorted(reads, key=lambda read: (read[2], read[1]))


def test_detects_owner_reads():
    source = "cfg.a.b\nself.cfg.c()\nx = trace.d\nself.trace\nother.cfg.e\n"
    assert owner_reads(source, {"cfg", "trace"}) == [
        ("cfg", "a", 1), ("cfg", "c", 2), ("trace", "d", 3)]


#: the benchmark's names for a loaded config and for a trace
BENCH_OWNERS = {"cfg": Config, "trace": TraceLog, "fresh": TraceLog}
BENCH_READS = owner_reads((PACKAGE.parent.parent / "bench" / "run.py").read_text(
    encoding="utf-8"), BENCH_OWNERS)


def test_bench_reads_found():
    assert {owner for owner, _, _ in BENCH_READS} == set(BENCH_OWNERS)


@pytest.mark.parametrize("owner, attr, line", BENCH_READS,
                         ids=[f"{o}.{a}@{n}" for o, a, n in BENCH_READS])
def test_bench_read_exists(owner, attr, line):
    # a config field or trace member the package lost would fail only when the benchmark runs
    cls = BENCH_OWNERS[owner]
    assert attr in {*dir(cls), *getattr(cls, "__dataclass_fields__", ())}
