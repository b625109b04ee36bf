"""``sim.run`` against a reference loop built from the public functions alone.

``run`` renders its whole loop from the formula texts into one function.
``reference`` steps the same closed loop one public call at a time: ``lump``,
``b_hat_altitude``, four ``AdrcController``s, ``rotor_speeds``,
``state_derivative`` and ``rk4_step``.  The property asserts that both give the
same records, bit for bit, so a loop that drifts from the library's own
functions fails here.
"""

import math
from dataclasses import asdict, replace

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quadarm import (AdrcController, ControlInputs, ControllerGains, QuadState, rk4_step, run,
                     state_derivative)
from quadarm.adrc import SUBSYSTEMS, b_hat_altitude
from quadarm.config import resolve
from quadarm.disturbances import lump
from quadarm.model import rotor_speeds


def reference(scenario, params, dist_params, gains) -> np.ndarray:
    """The records of ``run(scenario, params, dist_params, gains)``, one row each."""
    n, dt, masses, flags = scenario.n_steps, scenario.dt, params.masses, scenario.flags
    refs = (scenario.ref_roll, scenario.ref_pitch, scenario.ref_yaw, scenario.ref_z)
    loops = () if scenario.open_loop else tuple(
        AdrcController(c, dt) for c in gains.loops(params))
    state, inputs, signals, rows = scenario.initial_state, ControlInputs(), [0.0] * 24, []
    for k in range(n + 1):
        t = k * dt
        arm = masses if scenario.d1_profile is None else replace(
            masses, d1=scenario.d1_profile(t))
        dist, s, ref = lump(state, t, dist_params, flags, arm), state.vector.tolist(), [
            profile(t) for profile in refs]
        if scenario.open_loop:
            inputs = ControlInputs(U1=scenario.open_loop_u1(t))
        elif k < n:
            b_altitude, _ = b_hat_altitude(s[0], s[2], dist.G, params.m)
            steps = [loop.step(s[2 * i], ref[i], 0.0, b_altitude if i == 3 else None)
                     for i, loop in enumerate(loops)]
            signals = [x for d in steps for x in d]
            roll, pitch, yaw, altitude = (d.u for d in steps)
            inputs = rotor_speeds([altitude, roll, pitch, yaw], params.mixer)
        rows.append([t, *s, *state.lagged_accel.tolist(), *ref, *signals, dist.G,
                     *dist[:6], inputs.omega_r, inputs.rotor_saturated])
        if k < n:
            def derivative(tau, vector, lagged, u=inputs, arm=arm):
                x = QuadState(vector, lagged)
                return state_derivative(x, u, lump(x, tau, dist_params, flags, arm), params)
            state = rk4_step(state, derivative, t, dt)
    return np.array(rows, dtype=float)


def matches_run(raw: dict) -> bool:
    """Whether ``run`` and ``reference`` give the same bytes for the config ``raw``."""
    c = resolve(raw)
    args = (c.scenario, c.params, c.dist_params, c.gains)
    return run(*args).as_array().tobytes() == reference(*args).tobytes()


STOCK = ControllerGains()


@st.composite
def configs(draw):
    """A short run's raw config: references, gains, disturbances, step, start, arm, fixture."""
    dt = draw(st.sampled_from((0.001, 0.002, 0.004)))
    duration = dt * draw(st.integers(round(0.2 / dt), round(0.5 / dt)))

    def profile(low, high):  # one or two segments
        segments = [[0.0, draw(st.floats(low, high))]]
        if draw(st.booleans()):
            segments.append([draw(st.floats(0.0, duration)), draw(st.floats(low, high))])
        return segments

    def scaled(gains, low, high):
        return {name: value * draw(st.floats(low, high)) for name, value in asdict(gains).items()}

    angles = [draw(st.floats(-0.1, 0.1)) for _ in range(3)]
    return {
        "scenario": {
            "duration": duration, "dt": dt,
            "initial_state": [angles[0], 0, angles[1], 0, angles[2], 0,
                              draw(st.floats(3.0, 7.0)), 0, 0, 0, 0, 0],
            "references": {**{f"{name}_deg": profile(-10.0, 10.0)
                              for name in ("roll", "pitch", "yaw")}, "z": profile(3.0, 7.0)},
            "d1_profile": profile(0.2, 0.8) if draw(st.booleans()) else None,
            "open_loop": draw(st.booleans()), "open_loop_u1": profile(15.0, 25.0)},
        "controller": {
            "eso": scaled(STOCK.eso, 0.8, 1.25),  # p1 p2 >= 55 000 > 3750 >= p3: Hurwitz
            "pd": {name: scaled(STOCK.pd_for(name), 0.5, 2.0) for name in SUBSYSTEMS}},
        "disturbances": {
            "enable": {flag: draw(st.booleans())
                       for flag in ("drag", "ground_effect", "wind", "com")},
            "strict_signs": draw(st.booleans())},
    }


#: the scenario keys that give each stepped profile its segments, and the values it steps to
PROFILES = {
    "reference": (lambda segments: {"references": {"roll_deg": segments}}, (5.0, -3.0, 2.0)),
    "arm": (lambda segments: {"d1_profile": segments}, (0.8, 0.2, 0.5)),
    "thrust": (lambda segments: {"open_loop": True, "open_loop_u1": segments,
                                 "initial_state": [0, 0, 0, 0, 0, 0, 1.0, 0, 0, 0, 0, 0]},
               (19.62, 25.0, 15.0)),
}


def stepped(profile, *starts):
    """A 0.4 s run at dt 0.001 whose ``profile`` takes its next value at each of ``starts``."""
    keys, values = PROFILES[profile]
    return {"scenario": {"duration": 0.4, "dt": 0.001,
                         **keys([[t, v] for t, v in zip(starts, values)])}}


BELOW, ABOVE = math.nextafter(0.1, 0.0), math.nextafter(0.1, 1.0)  # one ulp off 100 dt
PAST_120 = math.nextafter(120 * 0.001, 1.0)  # past 120 dt, though its quotient by dt is 120.0


# each profile steps on a step (0.1 is 100 dt), one ulp to either side of 100 dt and past
# 120 dt, between two steps (101 dt < 0.102 < 102 dt = 0.10200000000000001), before 0,
# past the end, and together with a second segment's start
@example(stepped("reference", 0.0, 0.1))
@example(stepped("reference", 0.0, BELOW))
@example(stepped("reference", 0.0, ABOVE))
@example(stepped("reference", 0.0, PAST_120))
@example(stepped("reference", 0.0, 0.102))
@example(stepped("reference", -0.2, -0.1))
@example(stepped("reference", 0.0, 0.5))
@example(stepped("reference", 0.0, 0.3, 0.3))
@example(stepped("arm", 0.0, 0.1))
@example(stepped("arm", 0.0, BELOW))
@example(stepped("arm", 0.0, ABOVE))
@example(stepped("arm", 0.0, PAST_120))
@example(stepped("arm", 0.0, 0.102))
@example(stepped("arm", -0.2, -0.1))
@example(stepped("arm", 0.0, 0.5))
@example(stepped("arm", 0.0, 0.3, 0.3))
@example(stepped("thrust", 0.0, 0.1))
@example(stepped("thrust", 0.0, BELOW))
@example(stepped("thrust", 0.0, ABOVE))
@example(stepped("thrust", 0.0, PAST_120))
@example(stepped("thrust", 0.0, 0.102))
@example(stepped("thrust", -0.2, -0.1))
@example(stepped("thrust", 0.0, 0.5))
@example(stepped("thrust", 0.0, 0.3, 0.3))
# the golden configurations, the later ones shortened with their switches kept inside
@example({"scenario": {"duration": 2.0}})
@example({"scenario": {"duration": 1.0, "d1_profile": [[0, 0.8], [0.3, 0.2], [0.7, 0.5]]},
          "disturbances": {"strict_signs": False}})
@example({"scenario": {"duration": 1.0, "references": {"roll_deg": [[0, 5], [0.5, -3]],
                                                       "z": [[0, 5], [0.3, 4]]}}})
@example({"scenario": {"duration": 1.0, "open_loop": True,
                       "initial_state": [0, 0, 0, 0, 0, 0, 1.0, 0, 0, 0, 0, 0],
                       "open_loop_u1": [[0, 19.62], [0.25, 25], [0.6, 15]]}})
@example({"scenario": {"duration": 2.0, "dt": 0.002},  # pitch saturates in 83 records
          "controller": {"eso_overrides": {"roll": {"p1": 40.0, "p2": 2000.0}},
                         "u_limits": {"pitch": [-0.2, 0.2]}}})
@given(configs())
@settings(deadline=None, max_examples=8)
def test_run_is_the_reference(raw):
    assert matches_run(raw)
