"""The renderer: formula texts renamed, filled in, compiled once and shown."""

import builtins
import inspect
import linecache
import symtable
import textwrap
import traceback

import pytest

from quadarm import (AdrcController, ControlInputs, ControllerGains, DisturbanceFlags,
                     DisturbanceOutputs, DisturbanceParams, EsoGains, EsoState, MassProperties,
                     PdGains, QuadParams, QuadState, Scenario, mix, render, run, state_derivative)
from quadarm.adrc import b_hat_altitude, eso_step, pd
from quadarm.disturbances import lump
from quadarm.errors import IntegrationError
from quadarm.model import rotor_speeds


def test_rename_replaces_whole_identifiers():
    # an exponent's e and an attribute are no identifiers
    text = "e = x1 + x12 * 1e-5 + a.x1\n"
    assert render.rename(text, {"e": "e_roll", "x1": "y1", "x12": "(t + h)"}) == (
        "e_roll = y1 + (t + h) * 1e-5 + a.x1\n")


def test_fill_indents_each_part():
    template = "if k:\n    @body\nelse:\n    pass\n"
    assert render.fill(template, body="a = 1\nif a:\n    b = 2\n") == (
        "if k:\n    a = 1\n    if a:\n        b = 2\nelse:\n    pass\n")


def test_one_compile_per_text():
    # constants reach the code as ``make`` arguments, never as text
    double = render.kernel("scale", {"c": 2.0}, "x", "return c * x\n")
    triple = render.kernel("scale", {"c": 3.0}, "x", "return c * x\n")
    assert (double(1.5), triple(1.5)) == (3.0, 4.5)
    assert double.__code__ is triple.__code__


def test_constants_are_the_kernels_locals():
    # bound as keyword-only defaults, a constant is read as a local, not a closure cell
    f = render.kernel("scale", {"c": 2.0}, "x", "return c * x\n")
    assert f.__code__.co_freevars == () and f.__kwdefaults__ == {"c": 2.0}
    assert "c" in f.__code__.co_varnames


def test_rendered_source_is_shown():
    f = render.kernel("scale", {"c": 2.0}, "x", "return c * x\n")
    assert inspect.getsource(f) == "    def scale(x, *, c=c):\n        return c * x\n"
    filename = f.__code__.co_filename
    assert filename.startswith("<quadarm.scale ") and linecache.getline(filename, 1) == (
        "def make(c):\n")


def test_loop_traceback_shows_its_line():
    gains = ControllerGains(pd_roll=PdGains(1e180, 1.0),
                            u_limits={**ControllerGains().u_limits, "roll": (-1e200, 1e200)})
    with pytest.raises(IntegrationError) as exc_info:
        run(Scenario(duration=0.01), QuadParams(), gains=gains)
    shown = "".join(traceback.format_exception(exc_info.value))
    assert "<quadarm.loop " in shown and "raise IntegrationError(t) from None" in shown


def misbound(f) -> tuple:
    """The kernel ``f``'s constants its body never reads, and the names the body reads
    that are neither a constant, a parameter, assigned, nor a builtin."""
    def scopes(table):  # ``table`` and each scope nested in it
        yield table
        for child in table.get_children():
            yield from scopes(child)
    (body,) = symtable.symtable(textwrap.dedent(inspect.getsource(f)), "kernel",
                                "exec").get_children()
    symbols = [symbol for scope in scopes(body) for symbol in scope.get_symbols()
               if symbol.is_referenced()]
    read = {symbol.get_name() for symbol in symbols}
    free = {symbol.get_name() for symbol in symbols if symbol.is_global()}
    return set(f.__kwdefaults__ or ()) - read, free - set(dir(builtins))


def test_detects_misbound_names():
    f = render.kernel("scale", {"c": 2.0, "stale": 1.0}, "x", "return c * x + y + abs(x)\n")
    assert misbound(f) == ({"stale"}, {"y"})


def test_kernels_bind_exactly_the_names_they_read(monkeypatch):
    kernels, kernel = [], render.kernel
    monkeypatch.setattr(render, "kernel", lambda *a: kernels.append(kernel(*a)) or kernels[-1])
    params = QuadParams()
    run(Scenario(duration=0.01), params)
    run(Scenario(duration=0.01, open_loop=True), params)
    lump(QuadState(), 0.0, DisturbanceParams(), DisturbanceFlags.all_on(), MassProperties())
    state_derivative(QuadState(), ControlInputs(), DisturbanceOutputs(), params)
    rotor_speeds([20.0, 0.0, 0.0, 0.0], params.mixer)
    mix([1.0] * 4, params.mixer)
    eso_step(EsoState(), 0.0, 0.0, 1.0, EsoGains(), 0.001)
    pd(0.0, 0.0, 0.0, 0.0, PdGains(1.0, 1.0))
    b_hat_altitude(0.0, 0.0, 1.0, 2.0)
    AdrcController(ControllerGains().loops(params)[0], 0.001)
    monkeypatch.undo()
    assert {f.__name__ for f in kernels} == {
        "loop", "lump", "derivative", "mixer", "speed", "control", "observe", "pd", "b_hat"}
    assert [(f.__name__, *misbound(f)) for f in kernels] == [
        (f.__name__, set(), set()) for f in kernels]
