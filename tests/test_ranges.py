"""Every numeric field of a record built in code loads or is refused by its range, by name."""

import math
import re
from dataclasses import fields

import numpy as np
import pytest

from quadarm import (CostWeights, DisturbanceFlags, DisturbanceParams, DragParams, EsoGains,
                     GeometryParams, GroundEffectParams, InertiaParams, MassProperties,
                     MixerParams, PdGains, PiecewiseConstant, QuadParams, QuadState, Scenario,
                     TuneOptions, WindParams)
from quadarm.errors import InvalidParameterError, QuadArmError, floats, in_range

GEOMETRY = dict(R_q=0.1, L_q=0.45, L_r=0.2, W_r=0.05, H_r=0.05, D_r=0.1)

#: each record with the arguments it needs besides the field under test
RECORDS = [(MassProperties, {}), (GeometryParams, GEOMETRY), (InertiaParams, {}),
           (MixerParams, {}), (QuadParams, {}), (PdGains, {"kp": 1.0, "kd": 1.0}),
           (EsoGains, {}), (WindParams, {}), (GroundEffectParams, {}), (CostWeights, {}),
           (TuneOptions, {}), (Scenario, {})]

#: each record's numeric fields: those annotated as a float or an int
FIELDS = [(record, given, f.name) for record, given in RECORDS for f in fields(record)
          if f.type in ("float", "int")]

#: what a sweep sets each field to, one value at a time
VALUES = [None, "1", True, math.nan, math.inf, -math.inf, -1, 0]


def test_fields_found():
    assert len(FIELDS) == 41
    assert {record for record, _, _ in FIELDS} == {record for record, _ in RECORDS}


@pytest.mark.parametrize("record, given, name", FIELDS,
                         ids=[f"{record.__name__}.{name}" for record, _, name in FIELDS])
def test_field_loads_or_is_refused_by_name(record, given, name):
    for value in VALUES:
        try:
            made = record(**{**given, name: value})
        except QuadArmError as exc:  # any other error fails the test
            assert re.search(rf"\b{name}\b", str(exc)), (value, str(exc))
        else:
            assert type(value) is int and getattr(made, name) == value, value


#: each record's switches: the fields annotated as a bool
SWITCHES = [(record, f.name) for record in (DisturbanceFlags, DisturbanceParams, Scenario)
            for f in fields(record) if f.type == "bool"]


def test_switches_found():
    assert len(SWITCHES) == 6


@pytest.mark.parametrize("record, name", SWITCHES,
                         ids=[f"{record.__name__}.{name}" for record, name in SWITCHES])
def test_switch_is_true_or_false(record, name):
    for value in (True, False):
        assert getattr(record(**{name: value}), name) is value
    for value in [*VALUES, "no", "false", 1]:  # a non-empty string is truthy
        if value is not True:
            with pytest.raises(InvalidParameterError, match=f"^{name} must be true or false$"):
                record(**{name: value})


#: each list record, the list it builds from a number ``x`` in one entry, and its refusal
LISTS = {
    "state": (lambda x: QuadState([0.0] * 11 + [x]), "state vector needs 12 finite numbers"),
    "lagged": (lambda x: QuadState(lagged_accel=[x] + [0.0] * 5),
               "lagged_accel needs 6 finite numbers"),
    "drag": (lambda x: DragParams((0.1,) * 5 + (x,)),
             "need six non-negative finite drag coefficients"),
    "profile": (lambda x: PiecewiseConstant(((0.0, 1.0), (2.0, x))),
                r"profile segment needs \[t_start, value\] as two finite numbers"),
}


@pytest.mark.parametrize("name", LISTS)
def test_list_entry_loads_or_is_refused(name):
    make, refusal = LISTS[name]
    for value in VALUES:
        try:
            make(value)
        except InvalidParameterError as exc:
            assert re.fullmatch(refusal, str(exc)), (value, str(exc))
        else:
            assert type(value) is int, value


@pytest.mark.parametrize("make, loads", [
    (lambda: MassProperties(m_q=0), False),  # positive
    (lambda: MassProperties(m_r=0), True),  # non-negative
    (lambda: MassProperties(m_r=-1), False),
    (lambda: MassProperties(d1=-1), True),  # finite
    (lambda: DragParams((0,) * 6), True),  # non-negative, as a list
    (lambda: QuadState([-1] * 12), True),  # finite, as a list
], ids=["positive_zero", "non_negative_zero", "non_negative_minus_one", "finite_minus_one",
        "non_negative_list_zero", "finite_list_minus_one"])
def test_range_boundary(make, loads):
    if loads:
        make()
    else:
        with pytest.raises(InvalidParameterError):
            make()


@pytest.mark.parametrize("range_, value, words", [
    ("positive", 0, "positive and finite"), ("positive", math.inf, "positive and finite"),
    ("non-negative", -1e-300, "non-negative and finite"), ("finite", math.nan, "finite"),
    ("finite", 10 ** 400, "finite"), ("finite", False, "finite")])
def test_in_range_names_the_value_and_its_range(range_, value, words):
    in_range(range_, a=1.0, b=1)
    with pytest.raises(InvalidParameterError, match=f"^b must be {words}$"):
        in_range(range_, a=1.0, b=value, c=math.nan)  # the first refused value is named


def test_floats_applies_the_range_to_every_entry():
    assert floats(np.array([0.0, 2]), 2, "no", "non-negative") == (0.0, 2.0)
    assert floats([math.inf, -1], 2, "no") == (math.inf, -1.0)  # no range: any number
    for entries in ([0.0, -1], [0.0, math.inf], [0.0, "1"]):
        with pytest.raises(InvalidParameterError, match="^no$"):
            floats(entries, 2, "no", "non-negative")
