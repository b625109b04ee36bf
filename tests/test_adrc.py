import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from quadarm import EsoGains, EsoState, PdGains
from quadarm import adrc, render
from quadarm.adrc import (B_MIN, AdrcController, SubsystemConfig, b_hat_altitude,
                          control_kernel, eso_step, is_hurwitz, pd)
from quadarm.errors import ConfigurationError, InvalidParameterError

TABLE_GAINS = EsoGains(29.5659, 2907.0, 3000.0)


def cancel(u0, f_hat, b_hat, u_limits=(-math.inf, math.inf)):
    """The cancellation law of ``control_kernel``, which clamps ``b_hat`` first:
    the observer holds the estimates (0, 0, f_hat) when it measures 0 after an
    input whose b_hat * u is -f_hat, and unit PD gains and the reference u0
    make the PD term u0."""
    config = SubsystemConfig(which="altitude", b_hat=1.0, eso=TABLE_GAINS,
                             pd=PdGains(1.0, 1.0), u_limits=u_limits)
    obs, signals, degenerate = control_kernel(config, 1.0)(
        1, 0.0, 0.0, f_hat, -f_hat / b_hat, 0.0, u0, 0.0, b_hat)
    assert obs[:3] == (0.0, 0.0, f_hat)
    return obs[3], signals[5], degenerate


def expm(a, t):
    """Matrix exponential via eigendecomposition (diagonalizable input)."""
    vals, vecs = np.linalg.eig(a)
    return (vecs @ np.diag(np.exp(vals * t)) @ np.linalg.inv(vecs)).real


def run_eso_against_constant_accel(gains, c, duration, dt=0.001):
    """Plant: x'' = c, u = 0, observer fed the exact position output."""
    x1 = x2 = 0.0
    eso = EsoState()
    t = 0.0
    while t < duration - 0.5 * dt:
        eso = eso_step(eso, x1, 0.0, 1.0, gains, dt)
        # exact plant update over the step
        x1 += x2 * dt + 0.5 * c * dt * dt
        x2 += c * dt
        t += dt
    return eso, x1, x2


class TestHurwitz:
    def test_table_gains_accepted(self):
        g = TABLE_GAINS
        assert g.p1 * g.p2 == pytest.approx(85948.1, abs=0.1)
        assert is_hurwitz(g.p1, g.p2, g.p3)

    def test_violating_gains_rejected(self):
        with pytest.raises(ConfigurationError):
            EsoGains(1.0, 1.0, 3000.0)
        with pytest.raises(ConfigurationError):
            EsoGains(-1.0, 10.0, 1.0)

    @pytest.mark.parametrize("p", [(math.inf, math.inf, 1.0), (math.inf, 1.0, 1.0),
                                   (1.0, math.inf, 1.0)])
    def test_infinite_gains_rejected(self, p):
        # each passes the Routh inequalities (an infinite p1 or p2 makes p1 * p2 > p3), so
        # the finite range refuses it, at its first infinite gain
        name = f"p{p.index(math.inf) + 1}"
        with pytest.raises(InvalidParameterError, match=f"^{name} must be finite$"):
            EsoGains(*p)

    def test_bandwidth_form(self):
        g = EsoGains.from_bandwidth(50.0)
        assert (g.p1, g.p2, g.p3) == (150.0, 7500.0, 125000.0)


class TestEsoStep:
    def test_fixed_point(self):
        eso = EsoState(x1_hat=0.7, x2_hat=0.0, x3_hat=0.0)
        out = eso_step(eso, 0.7, 0.0, 1.0, TABLE_GAINS, 0.001)
        assert (out.x1_hat, out.x2_hat, out.x3_hat) == (0.7, 0.0, 0.0)

    def test_constant_disturbance_convergence(self):
        c = 4.0
        eso, x1, x2 = run_eso_against_constant_accel(TABLE_GAINS, c, duration=5.0)
        assert eso.x3_hat == pytest.approx(c, rel=0.02)
        assert eso.x1_hat == pytest.approx(x1, abs=0.02 * c)

    def test_error_matches_linear_oracle(self):
        # estimation error obeys e' = A e with e0 = (0, 0, c); compare the
        # simulated error against the matrix-exponential solution
        g = EsoGains.from_bandwidth(20.0)
        a = np.array([[-g.p1, 1.0, 0.0], [-g.p2, 0.0, 1.0], [-g.p3, 0.0, 0.0]])
        c = 3.0
        t_end = 0.25
        eso, x1, x2 = run_eso_against_constant_accel(g, c, duration=t_end, dt=1e-4)
        expected = expm(a, t_end) @ np.array([0.0, 0.0, c])
        simulated = np.array([x1 - eso.x1_hat, x2 - eso.x2_hat, c - eso.x3_hat])
        # the held measurement lags the plant by half a step, leaving a
        # residual offset of order dt in the error trajectory
        assert simulated == pytest.approx(expected, rel=0.01, abs=1e-3)

    def test_convergence_horizon(self):
        # for a triple pole at -w0 the disturbance-estimate error decays as
        # exp(-w0 t) (1 + w0 t + (w0 t)^2 / 2); below 1% needs w0 t >= 8.5,
        # i.e. roughly 30/p1 seconds, not less
        g = EsoGains.from_bandwidth(30.0)
        c = 5.0
        horizon = 30.0 / g.p1
        eso, x1, x2 = run_eso_against_constant_accel(g, c, duration=horizon)
        assert abs(c - eso.x3_hat) < 0.01 * c
        assert abs(x1 - eso.x1_hat) < 0.01 * c
        assert abs(x2 - eso.x2_hat) < 0.01 * c

    def test_bandwidth_scaling_speeds_convergence(self):
        c = 5.0

        def crossing_time(gains):
            dt = 0.0005
            x1 = x2 = 0.0
            eso = EsoState()
            for k in range(40000):
                eso = eso_step(eso, x1, 0.0, 1.0, gains, dt)
                x1 += x2 * dt + 0.5 * c * dt * dt
                x2 += c * dt
                if abs(c - eso.x3_hat) < 0.05 * c:
                    return (k + 1) * dt
            raise AssertionError("never crossed 5%")

        base = EsoGains(6.0, 12.0, 8.0)
        scaled = EsoGains(12.0, 48.0, 64.0)  # (c, c^2, c^3) with c = 2
        assert crossing_time(scaled) < crossing_time(base)

    def test_bad_dt_rejected(self):
        with pytest.raises(InvalidParameterError):
            eso_step(EsoState(), 0.0, 0.0, 1.0, TABLE_GAINS, 0.0)


class TestCancel:
    def test_identity(self):
        u, sat, deg = cancel(1.5, 0.0, 1.0)
        assert u == 1.5 and not sat and not deg

    def test_hover_thrust(self):
        u, _, _ = cancel(0.0, 9.81, -0.5)
        assert u == pytest.approx(19.62)

    def test_arithmetic(self):
        u, _, _ = cancel(1.0, 0.5, 0.25)
        assert u == pytest.approx(2.0)

    def test_degenerate_b_clamped(self):
        u, _, degenerate = cancel(1.0, 0.0, 1e-6)
        assert degenerate
        assert u == pytest.approx(1.0 / B_MIN)

    def test_saturation_flag(self):
        u, saturated, _ = cancel(100.0, 0.0, 1.0, u_limits=(-5.0, 5.0))
        assert saturated and u == 5.0


class TestBank:
    def test_signals_follow_the_trace_columns(self):
        config = SubsystemConfig(which="roll", b_hat=1.0, eso=TABLE_GAINS,
                                 pd=PdGains(2.0, 1.0), u_limits=(-1.0, 1.0))
        # the first period starts on the measurement: (0.5, 0, 0) and the last input ignored
        obs, signals, clamped = control_kernel(config, 0.001)(
            0, 9.0, 9.0, 9.0, 9.0, 0.5, 1.0, -0.25, 0.5)
        # u0 = 2 (1 - 0.5) + 1 (-0.25 - 0) = 0.75, u = 0.75 / 0.5 held at 1
        assert obs == (0.5, 0.0, 0.0, 1.0)
        assert signals == (1.0, 0.75, 0.0, 0.5, 0.0, True)
        assert not clamped


class TestSubsystemConfig:
    @pytest.mark.parametrize("which", adrc.SUBSYSTEMS)
    @pytest.mark.parametrize("b_hat", [None, "a", True, math.nan, math.inf, -math.inf])
    def test_b_hat_is_finite(self, which, b_hat):
        # every loop's, before the attitude loops' B_MIN rule; altitude's is recomputed
        with pytest.raises(InvalidParameterError, match=f"^b_hat of {which} must be finite$"):
            SubsystemConfig(which=which, b_hat=b_hat, eso=TABLE_GAINS, pd=PdGains(2.0, 1.0),
                            u_limits=(-1.0, 1.0))

    def test_small_b_hat_is_altitude_only(self):
        SubsystemConfig(which="altitude", b_hat=0.0, eso=TABLE_GAINS, pd=PdGains(2.0, 1.0),
                        u_limits=(-1.0, 1.0))
        with pytest.raises(InvalidParameterError, match=f"^b_hat of roll is below {B_MIN}$"):
            SubsystemConfig(which="roll", b_hat=0.0, eso=TABLE_GAINS, pd=PdGains(2.0, 1.0),
                            u_limits=(-1.0, 1.0))


class TestPd:
    def test_zero_errors(self):
        assert pd(1.0, 0.0, 1.0, 0.0, PdGains(10.0, 5.0)) == 0.0

    def test_altitude_gains(self):
        assert pd(1.0, 0.0, 0.0, 0.0, PdGains(10.5246, 9.5557)) == pytest.approx(10.5246)

    def test_roll_rate_error(self):
        assert pd(0.0, -1.0, 0.0, 0.0, PdGains(90.3979, 19.6321)) == pytest.approx(-19.6321)

    @given(e=st.floats(-10, 10), edot=st.floats(-10, 10), a=st.floats(-5, 5))
    def test_linearity(self, e, edot, a):
        g = PdGains(3.0, 2.0)
        assert pd(a * e, a * edot, 0.0, 0.0, g) == pytest.approx(
            a * pd(e, edot, 0.0, 0.0, g), rel=1e-12, abs=1e-12)

    def test_gain_validation(self):
        with pytest.raises(InvalidParameterError):
            PdGains(-1.0, 1.0)
        with pytest.raises(InvalidParameterError):
            PdGains(1.0, 0.0)

    @pytest.mark.parametrize("kp, kd", [(math.inf, 1.0), (1.0, math.inf)])
    def test_infinite_gain_rejected(self, kp, kd):
        name = "kp" if kp == math.inf else "kd"
        with pytest.raises(InvalidParameterError, match=f"^{name} must be positive and finite$"):
            PdGains(kp, kd)

    @given(ref=st.floats(-1e6, 1e6), rate=st.floats(-1e6, 1e6), x1=st.floats(-1e6, 1e6),
           x2=st.floats(-1e6, 1e6), kp=st.floats(1e-3, 1e4), kd=st.floats(1e-3, 1e4))
    def test_is_the_bank_u0(self, ref, rate, x1, x2, kp, kd):
        # the reference law of acceptance criterion 3 gives the bits the loop runs,
        # on the estimates the period's observer step leaves
        gains = PdGains(kp, kd)
        config = SubsystemConfig(which="roll", b_hat=1.0, eso=TABLE_GAINS, pd=gains,
                                 u_limits=(-math.inf, math.inf))
        _, (_, u0, _, x1_hat, x2_hat, _), _ = control_kernel(config, 0.001)(
            1, x1, x2, 0.0, 0.0, x1, ref, rate, 1.0)
        assert repr(pd(ref, rate, x1_hat, x2_hat, gains)) == repr(u0)


class TestBHatAltitude:
    def test_level_attitude(self):
        b, flag = b_hat_altitude(0.0, 0.0, 1.0, 2.0)
        assert b == pytest.approx(-0.5) and not flag

    def test_vertical_attitude_clamps(self):
        b, flag = b_hat_altitude(math.pi / 2, 0.0, 1.0, 2.0)
        assert flag and b == -B_MIN

    def test_ground_effect_scaling(self):
        b, _ = b_hat_altitude(0.0, 0.0, 1.08463, 2.0)
        assert b == pytest.approx(-0.54232, abs=1e-4)


def make_controller(dt=0.001, b_hat=1.0, eso=None, kp=25.0, kd=10.0, limits=(-100.0, 100.0)):
    return AdrcController(SubsystemConfig(
        which="roll", b_hat=b_hat, eso=eso or EsoGains.from_bandwidth(50.0),
        pd=PdGains(kp, kd), u_limits=limits), dt)


class TestController:
    def test_zero_equilibrium_angle_loop(self):
        ctrl = make_controller()
        d = ctrl.step(y=0.0, ref=0.0, ref_rate=0.0)
        assert d.u == 0.0 and d.u0 == 0.0 and d.f_hat == 0.0

    def test_constant_disturbance_rejection(self):
        # plant: x'' = d + b u; output must reach the reference and the
        # observer must recover the injected disturbance
        b, d_true, ref, dt = 2.0, 3.0, 1.0, 0.001
        ctrl = make_controller(dt, b_hat=b)
        x1 = x2 = 0.0
        for _ in range(4000):
            diag = ctrl.step(x1, ref, 0.0)
            acc = d_true + b * diag.u
            x1 += x2 * dt + 0.5 * acc * dt * dt
            x2 += acc * dt
        assert x1 == pytest.approx(ref, abs=1e-3)
        assert diag.f_hat == pytest.approx(d_true, abs=0.03)

    def test_first_step_initializes_on_measurement(self):
        ctrl = make_controller()
        diag = ctrl.step(y=0.42, ref=0.42, ref_rate=0.0)
        assert diag.x1_hat == 0.42

    def test_binds_its_kernel_once_at_construction(self, monkeypatch):
        bound = []

        def counting(config, dt):
            bound.append(dt)
            return control_kernel(config, dt)

        monkeypatch.setattr(adrc, "control_kernel", counting)
        ctrl = make_controller(0.002)
        assert bound == [0.002]
        for k in range(2000):
            ctrl.step(0.001 * k, 1.0, 0.0)
        assert bound == [0.002]

    def test_second_step_renders_nothing(self, monkeypatch):
        # the control kernel, the clamp inside, is bound once, not rendered again each period
        ctrl = make_controller()
        ctrl.step(0.1, 1.0, 0.0)
        rendered = []
        monkeypatch.setattr(render, "kernel", lambda *args: rendered.append(args[0]))
        ctrl.step(0.2, 1.0, 0.0, b_hat=1e-6)
        assert rendered == []

    def test_steps_run_the_bank(self):
        # a controller's steps give the bits of its control kernel, period k, fed b_hat
        ctrl = make_controller(0.01, b_hat=2.0, limits=(-3.0, 3.0))
        control, obs = control_kernel(ctrl.config, 0.01), (0.0, 0.0, 0.0, 0.0)
        for k, b_hat in enumerate((None, 1e-6, -0.5, None)):
            diag = ctrl.step(0.1 * k, 1.0, 0.2, b_hat=b_hat)
            obs, signals, _ = control(k, *obs, 0.1 * k, 1.0, 0.2, 2.0 if b_hat is None else b_hat)
            assert diag == signals

    def test_bad_dt_rejected(self):
        for dt in (math.nan, 0.0):
            with pytest.raises(InvalidParameterError, match="^dt must be positive and finite$"):
                make_controller(dt)

    def test_infinite_dt_rejected(self):
        # refused when the controller is made, not returned as all-NaN diagnostics
        with pytest.raises(InvalidParameterError, match="^dt must be positive and finite$"):
            make_controller(math.inf)

    def test_invalid_subsystem_rejected(self):
        with pytest.raises(InvalidParameterError):
            SubsystemConfig(which="surge", b_hat=1.0, eso=TABLE_GAINS,
                            pd=PdGains(1.0, 1.0), u_limits=(-1.0, 1.0))
        with pytest.raises(InvalidParameterError, match=r"^b_hat of pitch is below 0\.05$"):
            SubsystemConfig(which="pitch", b_hat=-0.01, eso=TABLE_GAINS,
                            pd=PdGains(1.0, 1.0), u_limits=(-1.0, 1.0))
        with pytest.raises(InvalidParameterError,
                           match=r"^expected an increasing \[lower, upper\] pair of numbers$"):
            SubsystemConfig(which="roll", b_hat=1.0, eso=TABLE_GAINS,
                            pd=PdGains(1.0, 1.0), u_limits=(1.0, 1.0))


@pytest.mark.parametrize("pair", [(0, 1, 2), 3], ids=["three_entries", "number"])
def test_limits_refuses_a_pair_of_another_width(pair):
    with pytest.raises(InvalidParameterError,
                       match=r"^expected an increasing \[lower, upper\] pair of numbers$"):
        adrc.limits(pair)
