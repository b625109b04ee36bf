"""Every numeric field of a record built in code loads or is refused by its range, by name."""

import math
import re
import typing
from dataclasses import MISSING, fields, is_dataclass

import numpy as np
import pytest

import quadarm
from quadarm import (ControllerGains, CostWeights, DisturbanceFlags, DisturbanceParams,
                     DragParams, EsoGains, GeometryParams, GroundEffectParams, InertiaParams,
                     MassProperties, MixerParams, PdGains, PiecewiseConstant, QuadParams,
                     QuadState, Scenario, SignalBound, SubsystemConfig, TuneOptions, TuneProblem,
                     TuneResult, WindParams)
from quadarm.errors import (RANGES, InvalidParameterError, QuadArmError, Record, admits, floats,
                            in_range, kinds)

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


def record_fields(record) -> dict:
    """Each field of ``record`` whose annotation names a package record: that record's class,
    and whether the annotation admits None too."""
    found = {}
    for name, hint in typing.get_type_hints(record).items():
        kinds = typing.get_args(hint) or (hint,)
        named = [kind for kind in kinds if is_dataclass(kind)
                 and kind.__module__.startswith("quadarm.")]
        if named:
            found[name] = named[0], type(None) in kinds
    return found


def test_detects_record_fields():
    assert record_fields(Scenario)["d1_profile"] == (PiecewiseConstant, True)
    assert record_fields(ControllerGains)["eso"] == (EsoGains, False)
    assert record_fields(TuneProblem).keys() == {"scenario", "params", "dist_params", "weights"}
    assert record_fields(MassProperties) == {}


#: each record field of every record the package exports: those annotated as a record
RECORD_FIELDS = [(record, name, kind, optional) for record in vars(quadarm).values()
                 if isinstance(record, type) and is_dataclass(record)
                 for name, (kind, optional) in record_fields(record).items()]

#: what a record needs besides the field under test
GIVEN = {SubsystemConfig: dict(which="roll", b_hat=1.0, eso=EsoGains(), pd=PdGains(1.0, 1.0),
                               u_limits=(-1.0, 1.0))}


def test_record_fields_found():
    assert len(RECORD_FIELDS) == 25
    assert {record for record, _, _, _ in RECORD_FIELDS} == {
        Scenario, QuadParams, DisturbanceParams, ControllerGains, SubsystemConfig, TuneProblem}


@pytest.mark.parametrize("record, name, kind, optional", RECORD_FIELDS,
                         ids=[f"{r.__name__}.{name}" for r, name, _, _ in RECORD_FIELDS])
def test_record_field_refuses_anything_else(record, name, kind, optional):
    given = GIVEN.get(record, {})
    assert isinstance(getattr(record(**given), name), kind) or optional
    other = WindParams() if kind is MixerParams else MixerParams()  # a record of another class
    for value in (5, None, "a", other):
        if value is None and optional:
            assert getattr(record(**{**given, name: None}), name) is None
            continue
        with pytest.raises(InvalidParameterError,
                           match=rf"^{name} must be an? {kind.__name__}$"):
            record(**{**given, name: value})


#: every record the package exports
EXPORTED = [record for record in vars(quadarm).values()
            if isinstance(record, type) and is_dataclass(record)]

#: the scalar fields whose kind is not in ``kinds``: an output record's, and the b_hat whose
#: refusal names its loop
UNKINDED = {(TuneResult, name) for name in ("cost", "iterations", "converged")} | {
    (SubsystemConfig, "b_hat")}


def test_every_scalar_field_has_a_kind():
    scalars = {(record, f.name) for record in EXPORTED for f in fields(record)
               if f.type in ("float", "int", "bool")}
    kinded = {(record, name) for record in EXPORTED for name, _, _ in kinds(record)}
    assert scalars - kinded == UNKINDED
    assert len(scalars & kinded) == 47


def test_records_with_kinds_ask_them():
    assert {record for record in EXPORTED if kinds(record)} == {
        record for record in EXPORTED if issubclass(record, Record)}


def test_kinds_find_the_record_fields():
    found = {(record, name, kind, optional) for record in EXPORTED
             for name, kind, optional in kinds(record) if isinstance(kind, type)}
    assert found == set(RECORD_FIELDS)


def test_kinds_follow_field_order():
    assert [name for name, _, _ in kinds(InertiaParams)] == ["I_xx", "I_yy", "I_zz", "J_r", "l"]
    assert [name for name, _, _ in kinds(Scenario)][:3] == ["duration", "dt", "initial_state"]
    with pytest.raises(InvalidParameterError, match="^J_r must be non-negative and finite$"):
        InertiaParams(J_r=-1.0, l=-1.0)  # the first refusal is the first field's
    with pytest.raises(InvalidParameterError, match="^duration must be non-negative and finite$"):
        Scenario(duration=-1.0, dt=0.0)


REQUIRED, FACTORY = "<required>", "<factory>"

#: each exported record's fields in order, with their defaults: positional calls rely on both
ORDER = {
    EsoGains: [("p1", 29.5659), ("p2", 2907.0), ("p3", 3000.0)],
    PdGains: [("kp", REQUIRED), ("kd", REQUIRED)],
    SubsystemConfig: [("which", REQUIRED), ("b_hat", REQUIRED), ("eso", REQUIRED),
                      ("pd", REQUIRED), ("u_limits", REQUIRED)],
    DisturbanceFlags: [("drag", False), ("ground_effect", False), ("wind", False),
                       ("com", False)],
    DisturbanceParams: [("drag", FACTORY), ("ground_effect", FACTORY), ("wind", FACTORY),
                        ("strict_signs", True)],
    DragParams: [("k", (0.3729,) * 6)],
    GroundEffectParams: [("rho", 8.6), ("r", 0.1905), ("z_min", 0.2)],
    WindParams: [("alpha", 0.1), ("beta", 1.0), ("n", 0.002)],
    GeometryParams: [("R_q", REQUIRED), ("L_q", REQUIRED), ("L_r", REQUIRED),
                     ("W_r", REQUIRED), ("H_r", REQUIRED), ("D_r", REQUIRED)],
    InertiaParams: [("I_xx", 0.018), ("I_yy", 0.018), ("I_zz", 0.035), ("J_r", 6e-3),
                    ("l", 0.45)],
    MassProperties: [("m_q", 1.8), ("m_r", 0.2), ("d0", 0.0), ("d1", 0.8)],
    MixerParams: [("k_f", 1e-5), ("k_m", 1.5e-6)],
    QuadParams: [("masses", FACTORY), ("inertia", FACTORY), ("mixer", FACTORY), ("g", 9.81)],
    QuadState: [("vector", FACTORY), ("lagged_accel", FACTORY)],
    ControllerGains: [("eso", FACTORY), ("pd_roll", FACTORY), ("pd_pitch", FACTORY),
                      ("pd_yaw", FACTORY), ("pd_altitude", FACTORY), ("eso_overrides", FACTORY),
                      ("u_limits", FACTORY)],
    PiecewiseConstant: [("segments", ((0.0, 0.0),))],
    Scenario: [("duration", 10.0), ("dt", 0.001), ("initial_state", FACTORY),
               ("ref_roll", FACTORY), ("ref_pitch", FACTORY), ("ref_yaw", FACTORY),
               ("ref_z", FACTORY), ("flags", FACTORY), ("d1_profile", None),
               ("open_loop", False), ("open_loop_u1", FACTORY)],
    CostWeights: [("tracking", 1.0), ("estimation", 1.0), ("effort", 0.01),
                  ("bound_penalty", 1e3)],
    SignalBound: [("signal", REQUIRED), ("segments", REQUIRED)],
    TuneOptions: [("max_iterations", 20), ("fd_eps_rel", 1e-4), ("fd_eps_floor", 1e-6),
                  ("initial_step", 1.0), ("max_backtracks", 25), ("rel_tol", 1e-6)],
    TuneProblem: [("scenario", FACTORY), ("params", FACTORY), ("dist_params", FACTORY),
                  ("weights", FACTORY), ("bounds", ()), ("layout", "shared"),
                  ("box_lower", None), ("box_upper", None)],
    TuneResult: [("vector", REQUIRED), ("cost", REQUIRED), ("report", REQUIRED),
                 ("history", REQUIRED), ("iterations", REQUIRED), ("converged", REQUIRED)],
}


def test_field_order_and_defaults_are_pinned():
    assert {record: [(f.name, f.default if f.default is not MISSING else FACTORY
                      if f.default_factory is not MISSING else REQUIRED)
                     for f in fields(record)] for record in EXPORTED} == ORDER


@pytest.mark.parametrize("make, refusal", [
    (lambda: ControllerGains(eso_overrides=5), "eso_overrides must be a dict"),
    (lambda: ControllerGains(u_limits=5), "u_limits must be a dict"),
    (lambda: ControllerGains(eso_overrides={"roll": 5}), "eso_overrides.roll must be an EsoGains"),
    (lambda: ControllerGains(eso_overrides={"bogus": EsoGains()}),
     "unknown subsystem 'bogus' in eso_overrides"),
    (lambda: ControllerGains(u_limits={"roll": (-1.0, 1.0)}), "u_limits lacks the pitch loop"),
    (lambda: TuneProblem(bounds=5), "bounds must be a list of SignalBound"),
    (lambda: TuneProblem(bounds=(5,)), r"bounds\[0\] must be a SignalBound"),
    (lambda: TuneProblem(bounds=[SignalBound("z", [[0, 1, 0, 1]]), None]),
     r"bounds\[1\] must be a SignalBound"),
], ids=["overrides_not_a_dict", "limits_not_a_dict", "override_not_eso", "override_unknown_loop",
        "limits_lack_a_loop", "bounds_not_a_list", "bound_not_a_bound", "second_bound_none"])
def test_record_table_entry_is_refused_by_name(make, refusal):
    with pytest.raises(InvalidParameterError, match=f"^{refusal}$"):
        make()


def test_bounds_are_kept_as_a_tuple():
    bound = SignalBound("z", [[0, 1, 0, 1]])
    assert TuneProblem(bounds=[bound]).bounds == (bound,)


#: each kind of ``RANGES`` with values it admits and values it refuses
KINDS = {
    "positive": ([1e-300, 1], [0, -1, math.inf, math.nan, True, "1", None]),
    "non-negative": ([0, 0.0, 2.5], [-1e-300, math.inf, math.nan, False, "0", None]),
    "finite": ([-1, 0.0, 1e308], [math.inf, -math.inf, math.nan, 10 ** 400, True, "1", None]),
    "switch": ([True, False], [1, 0, 1.0, "false", None, np.bool_(True)]),
    "count": ([0, 7], [-1, 1.0, True, "1", None, 10 ** 400, math.inf]),
    "positive count": ([1, 7], [0, 1.0, True, "1", None]),
}


def test_every_kind_is_tabled():
    assert KINDS.keys() == RANGES.keys()


@pytest.mark.parametrize("kind", KINDS)
def test_kind_admits_and_refuses(kind):
    admitted, refused = KINDS[kind]
    assert [admits(kind, x) for x in admitted + refused] == [True] * len(admitted) + [
        False] * len(refused)
    with pytest.raises(InvalidParameterError, match=f"^x must be {RANGES[kind][0]}$"):
        in_range(kind, **{f"a{i}": x for i, x in enumerate(admitted)}, x=refused[0])


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
