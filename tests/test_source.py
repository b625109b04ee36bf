"""Static checks over the package source."""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from quadarm.config import Config
from quadarm.sim import TraceLog

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "quadarm"
# __init__.py imports names to re-export them through __all__
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


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


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
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


def exit_callers(source: str) -> list:
    """The functions whose own bodies call ``sys.exit``; ``<module>`` for a call
    outside every function."""
    callers = set()

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and ast.unparse(child.func) == "sys.exit":
                callers.add(owner)
            is_def = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if is_def else owner)

    visit(ast.parse(source), "<module>")
    return sorted(callers)


def test_detects_exit_callers():
    source = ("import sys\ndef f():\n    def g():\n        sys.exit(1)\n    sys.exit(2)\n"
              "def h():\n    g()\nsys.exit(0)\n")
    assert exit_callers(source) == ["<module>", "f", "g"]


def test_cli_exits_in_one_function():
    # the commands raise; one helper turns an error into the exit code
    assert exit_callers((PACKAGE / "cli.py").read_text(encoding="utf-8")) == ["_fail"]


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
