"""Every number list a one-call function takes returns numbers or is refused in its own words."""

import math

import numpy as np
import pytest

from quadarm import (ControlInputs, DisturbanceFlags, DisturbanceOutputs, DisturbanceParams,
                     MassProperties, QuadParams, QuadState, Scenario, TuneOptions, TuneResult,
                     run, tune)
from quadarm.disturbances import lump
from quadarm.errors import InvalidParameterError, QuadArmError
from quadarm.model import mix, rotor_speeds, state_derivative, unmix

PARAMS = QuadParams()
SHORT = Scenario(duration=0.01)
SPEEDS = "squared rotor speeds need 4 non-negative finite numbers"
INPUTS = "generalized inputs need 4 finite numbers"
STATE = "state vector needs 12 finite numbers"
LAGGED = "lagged_accel needs 6 finite numbers"
CONTROLS = "control inputs need 5 finite numbers"
DISTURBANCES = "disturbances need 7 finite numbers"
START = "initial vector outside box bounds"


def changed(**vectors) -> QuadState:
    """A state at rest whose ``vector`` or ``lagged_accel`` changed after it was built."""
    state = QuadState()
    for name, entries in vectors.items():
        setattr(state, name, entries)
    return state


class Bowl:
    """An analytic tuning problem: the squared norm in the box [-1, 1]^3."""

    box_lower, box_upper = np.full(3, -1.0), np.full(3, 1.0)

    def evaluate(self, vector):
        return float(np.sum(np.square(vector))), {}


#: each one-call function on a list of numbers: the call, the width it reads, its
#: refusal, whether its range admits a negative entry, and whether it reads the
#: leading entries of a longer list
CALLS = {
    "mix": (lambda v: mix(v, PARAMS.mixer), 4, SPEEDS, False, False),
    "unmix": (lambda v: unmix(v, PARAMS.mixer), 4, INPUTS, True, True),
    "rotor_speeds": (lambda v: rotor_speeds(v, PARAMS.mixer), 4, INPUTS, True, True),
    "state_derivative": (lambda v: state_derivative(
        changed(vector=v), ControlInputs(), DisturbanceOutputs(), PARAMS), 12, STATE, True, False),
    "state_derivative_u": (lambda v: state_derivative(
        QuadState(), v, DisturbanceOutputs(), PARAMS), 5, CONTROLS, True, True),
    "state_derivative_dist": (lambda v: state_derivative(
        QuadState(), ControlInputs(), v, PARAMS), 7, DISTURBANCES, True, False),
    "lump": (lambda v: lump(changed(vector=v), 0.0, DisturbanceParams(),
                            DisturbanceFlags.all_on(), MassProperties()), 12, STATE, True, False),
    "lump_lagged": (lambda v: lump(changed(lagged_accel=v), 0.0, DisturbanceParams(),
                                   DisturbanceFlags.all_on(), MassProperties()),
                    6, LAGGED, True, False),
    "tune": (lambda v: tune(Bowl(), v, TuneOptions(max_iterations=1)), 3, START, True, False),
}

#: what a sweep sets one entry to, one value at a time
VALUES = [None, "1", True, math.nan, math.inf, -math.inf, -1]


def numbers(result) -> list:
    """The numbers a call returned, its tuples, arrays and tuned vector opened."""
    if isinstance(result, TuneResult):
        return numbers(result.vector)
    if isinstance(result, (tuple, list, np.ndarray)):
        return [x for part in result for x in numbers(part)]
    return [result]


def test_numbers_opens_every_container():
    assert numbers(((1.0, np.array([2.0, 3.0])), False)) == [1.0, 2.0, 3.0, False]


@pytest.mark.parametrize("name", CALLS)
def test_list_returns_numbers_or_is_refused(name):
    call, width, refusal, negatives, lead = CALLS[name]
    cases = {**{repr(value): ([0.5] * (width - 1) + [value], value == -1 and negatives)
                for value in VALUES},
             "width 2": ([0.5] * 2, False), f"width {width + 1}": ([0.5] * (width + 1), lead)}
    for case, (entries, loads) in cases.items():
        try:
            result = call(entries)
        except QuadArmError as exc:  # a TypeError, ValueError or AttributeError fails the test
            assert not loads and str(exc) == refusal, (case, str(exc))
        else:
            assert loads, case
            assert all(isinstance(x, (float, bool)) and math.isfinite(x)
                       for x in numbers(result)), case


@pytest.mark.parametrize("call, refusal", [
    (lambda: mix(["1"] * 4, PARAMS.mixer), SPEEDS),
    (lambda: mix([True] * 4, PARAMS.mixer), SPEEDS),
    (lambda: unmix([1.0, 2.0], PARAMS.mixer), INPUTS),
    (lambda: rotor_speeds("abcd", PARAMS.mixer), INPUTS),
    (lambda: tune(Bowl(), ["a", "b"]), START),
    (lambda: state_derivative(QuadState(), [1.0], DisturbanceOutputs(), PARAMS), CONTROLS),
    (lambda: state_derivative(QuadState(), ControlInputs(), None, PARAMS), DISTURBANCES),
    (lambda: state_derivative(QuadState(), ["1"] * 5, DisturbanceOutputs(), PARAMS), CONTROLS),
    (lambda: lump(QuadState(), "a", DisturbanceParams(), DisturbanceFlags(), MassProperties()),
     "t must be finite"),
    (lambda: lump(QuadState(), None, DisturbanceParams(), DisturbanceFlags(), MassProperties()),
     "t must be finite"),
    (lambda: unmix(None, PARAMS.mixer), INPUTS),
    (lambda: rotor_speeds(5, PARAMS.mixer), INPUTS),
    (lambda: run(5, PARAMS), "scenario must be a Scenario"),
    (lambda: run(SHORT, 5), "params must be a QuadParams"),
    (lambda: run(SHORT, PARAMS, 5), "dist_params must be a DisturbanceParams"),
    (lambda: run(SHORT, PARAMS, None, 5), "gains must be a ControllerGains"),
], ids=["mix_strings", "mix_booleans", "unmix_two", "rotor_speeds_string", "tune_strings",
        "state_derivative_one_input", "state_derivative_no_disturbances",
        "state_derivative_string_inputs", "lump_string_time", "lump_no_time", "unmix_none",
        "rotor_speeds_scalar", "run_scenario", "run_params", "run_dist_params", "run_gains"])
def test_input_once_let_through_is_refused(call, refusal):
    with pytest.raises(InvalidParameterError, match=f"^{refusal}$"):
        call()


def test_state_is_read_as_it_is_now():
    # a vector changed in place after the state was built is read again, not trusted
    state = QuadState()
    state.vector[6] = math.nan
    with pytest.raises(InvalidParameterError, match=f"^{STATE}$"):
        lump(state, 0.0, DisturbanceParams(), DisturbanceFlags(), MassProperties())
