"""The renderer: formula texts renamed, filled in, compiled once and shown."""

import inspect
import linecache
import traceback

import pytest

from quadarm import ControllerGains, PdGains, QuadParams, Scenario, render, run
from quadarm.errors import IntegrationError


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
