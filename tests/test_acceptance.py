"""Acceptance suite: one test per release criterion.

Each test prints a single PASS/FAIL line for the criterion it covers and
then asserts it, so a plain pytest run doubles as the acceptance report.
"""

import math
import time

import numpy as np

from quadarm import (DisturbanceFlags, EsoGains, GroundEffectParams, MixerParams,
                     PdGains, PiecewiseConstant, QuadState, Scenario,
                     TuneOptions, TuneProblem, ground_effect_factor, mix, run,
                     rk4_step, tune, unmix)
from quadarm.adrc import AdrcController, SubsystemConfig, is_hurwitz
from quadarm.config import config_with_gains, resolve
from quadarm.errors import ConfigurationError
from quadarm.sim import estimation_oracle
from quadarm.tuner import table_gains_vector

DEG = math.pi / 180.0


def report(number, label, ok):
    print(f"criterion {number} ({label}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({label}) failed"


def test_criterion_1_observer_stability_gate():
    stock_ok = is_hurwitz(29.5659, 2907.0, 3000.0)
    try:
        EsoGains(1.0, 1.0, 3000.0)  # p1*p2 < p3
        rejected = False
    except ConfigurationError:
        rejected = True
    report(1, "observer stability gate", stock_ok and rejected)


def test_criterion_2_hover_equilibrium(params):
    from quadarm import ControlInputs, DisturbanceOutputs, state_derivative
    u = ControlInputs(U1=params.m * params.g)
    deriv, acc = state_derivative(QuadState(), u, DisturbanceOutputs(), params)
    report(2, "hover equilibrium", bool(np.all(deriv == 0.0) and np.all(acc == 0.0)))


def test_criterion_3_disturbance_cancellation():
    # bench plant with a time-varying forcing term: once the observer has
    # converged, the disturbed loop must ride the same trajectory as an
    # ideal undisturbed PD double integrator
    b, ref, dt = 3.0, 1.0, 0.001
    gains = PdGains(25.0, 10.0)
    ctrl = AdrcController(SubsystemConfig(
        which="roll", b_hat=b, eso=EsoGains.from_bandwidth(50.0),
        pd=gains, u_limits=(-100.0, 100.0)), dt)
    from quadarm.adrc import pd as pd_law
    x1 = x2 = 0.0
    i1 = i2 = 0.0  # ideal companion: x'' = kp e + kd e'
    worst = 0.0
    for k in range(2000):
        t = k * dt
        diag = ctrl.step(x1, ref, 0.0)
        acc = 2.0 + math.sin(2.0 * t) + b * diag.u
        x1 += x2 * dt + 0.5 * acc * dt * dt
        x2 += acc * dt
        ideal_acc = pd_law(ref, 0.0, i1, i2, gains)
        i1 += i2 * dt + 0.5 * ideal_acc * dt * dt
        i2 += ideal_acc * dt
        if t >= 0.5:
            worst = max(worst, abs(x1 - i1))
    report(3, "active disturbance cancellation", worst < 0.02 * ref)


def test_criterion_4_estimation_accuracy(estimation_trace, params):
    oracle = estimation_oracle(
        estimation_trace, params,
        flags=DisturbanceFlags(drag=True, wind=True, com=True))
    ok = True
    for name in ("roll", "pitch", "yaw", "altitude"):
        err = oracle[name]["error"][5000:]
        truth = oracle[name]["f_true"][5000:]
        rms = lambda v: float(np.sqrt(np.mean(v ** 2)))
        ok = ok and rms(err) <= 0.05 * max(rms(truth), 1e-3)
    report(4, "disturbance estimation within 5%", ok)


def test_criterion_5_set_point_tracking(standard_trace):
    ok = abs(standard_trace.column("z")[-1] - 5.0) <= 0.05
    for angle in ("phi", "theta", "psi"):
        final = standard_trace.column(angle)[-1]
        ok = ok and abs(final - 5 * DEG) <= 0.1 * DEG
    report(5, "set-point tracking", ok)


def test_criterion_6_ground_effect_behaviors(params):
    # open loop, slightly under-thrusted descent: proximity lift must turn
    # the sink around below 4 m instead of letting it fall through
    descent = Scenario(
        duration=10.0, open_loop=True,
        initial_state=QuadState(np.array(
            [0, 0, 0, 0, 0, 0, 5.0, -1.8, 0, 0, 0, 0], float)),
        open_loop_u1=PiecewiseConstant.constant(0.95 * params.m * params.g),
        flags=DisturbanceFlags(ground_effect=True))
    z = run(descent, params).column("z")
    i = int(np.argmin(z))
    bounce_ok = z[i] < 4.0 and 0 < i < len(z) - 1 and z[-1] > z[i]

    # closed loop landing: after the set-point drop the vehicle must
    # descend without bouncing back up
    landing = Scenario(
        duration=20.0,
        initial_state=QuadState(np.array(
            [0, 0, 0, 0, 0, 0, 5.0, 0, 0, 0, 0, 0], float)),
        ref_roll=PiecewiseConstant.constant(0.0),
        ref_pitch=PiecewiseConstant.constant(0.0),
        ref_yaw=PiecewiseConstant.constant(0.0),
        ref_z=PiecewiseConstant(((0.0, 5.0), (5.0, 0.3))),
        flags=DisturbanceFlags(ground_effect=True))
    trace = run(landing, params)
    t = trace.column("t")
    z = trace.column("z")[t >= 5.5]
    running_min = np.minimum.accumulate(z)
    excursion = float(np.max(z - running_min))
    landing_ok = excursion <= 0.02 and abs(z[-1] - 0.3) <= 0.02
    report(6, "ground effect bounce and clean landing", bounce_ok and landing_ok)


def test_criterion_7_integrator_order():
    def deriv(t, y, lagged):
        return -y, np.zeros(6)

    def err(dt):
        state = QuadState(np.ones(12))
        for k in range(int(round(1.0 / dt))):
            state = rk4_step(state, deriv, k * dt, dt)
        return abs(state.vector[0] - math.exp(-1.0))

    report(7, "fourth-order integration", err(0.1) / err(0.05) >= 15.0)


def test_criterion_8_mixer_round_trip():
    rng = np.random.default_rng(0)
    p = MixerParams()
    ok = True
    for _ in range(1000):
        w2 = rng.uniform(10.0, 1e4, size=4)
        back, saturated = unmix(mix(w2, p), p)
        ok = ok and not saturated
        ok = ok and bool(np.all(np.abs(back - w2) <= 1e-10 * w2))
    report(8, "mixer round trip to 1e-10", ok)


def test_criterion_9_tuner(params):
    start = time.monotonic()

    # analytic bowl: must land on the known minimum
    class Bowl:
        box_lower = np.full(3, -10.0)
        box_upper = np.full(3, 10.0)

        @staticmethod
        def evaluate(v):
            return float(np.sum((np.asarray(v) - [2.0, -3.0, 0.5]) ** 2)), {}

    r = tune(Bowl, np.ones(3), TuneOptions(max_iterations=300, rel_tol=1e-14))
    analytic_ok = bool(np.allclose(r.vector, [2.0, -3.0, 0.5], atol=1e-4))

    # simulation-backed descent from softened gains
    problem = TuneProblem(scenario=Scenario(
        duration=2.0, dt=0.005,
        flags=DisturbanceFlags(drag=True, ground_effect=True)), params=params)
    x0 = table_gains_vector()
    x0[3:] *= 0.5
    f0, _ = problem.evaluate(x0)
    result = tune(problem, x0, TuneOptions(max_iterations=2))
    costs = [c for _, c in result.history]
    sim_ok = result.cost <= f0 and all(b < a for a, b in zip(costs, costs[1:]))

    # the tuned vector must survive the config round trip
    back = resolve(config_with_gains(resolve(None), result.vector, "shared"))
    round_trip_ok = bool(np.allclose(back.tune_initial(), result.vector))

    elapsed = time.monotonic() - start
    report(9, "gain tuning", analytic_ok and sim_ok and round_trip_ok
           and elapsed < 60.0)


def test_criterion_10_ground_effect_values():
    p = GroundEffectParams()
    ok = (abs(ground_effect_factor(5.0, p) - 1.000781) <= 1e-5
          and abs(ground_effect_factor(0.5, p) - 1.08463) <= 1e-5)
    report(10, "ground effect reference values", ok)
