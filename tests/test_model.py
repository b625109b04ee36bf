import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadarm import (ControlInputs, DisturbanceOutputs, GeometryParams, InertiaParams,
                     MassProperties, MixerParams, QuadParams, QuadState, WindParams,
                     compose_inertia, mix, state_derivative, unmix)
from quadarm.errors import InvalidParameterError
from quadarm.model import rotor_speeds


def make_state(**kw):
    names = ["phi", "phi_dot", "theta", "theta_dot", "psi", "psi_dot",
             "z", "z_dot", "x", "x_dot", "y", "y_dot"]
    vec = np.zeros(12)
    for k, v in kw.items():
        vec[names.index(k)] = v
    return QuadState(vec)


class TestInertia:
    def test_table_values(self):
        ia = InertiaParams()
        assert ia.a6 == pytest.approx(25.0)
        assert ia.a8 == pytest.approx(28.5714, abs=1e-4)
        assert ia.a1 == pytest.approx(-0.94444, abs=1e-5)

    def test_zero_arm_mass_adds_nothing(self):
        geom = GeometryParams(R_q=0.1, L_q=0.45, L_r=0.2, W_r=0.05, H_r=0.05, D_r=0.1)
        with_arm = compose_inertia(geom, MassProperties(m_q=1.8, m_r=0.0))
        quad_only = compose_inertia(geom, MassProperties(m_q=1.8, m_r=1e-12))
        assert with_arm.I_xx == pytest.approx(quad_only.I_xx)
        assert with_arm.I_zz == pytest.approx(quad_only.I_zz)

    def test_additivity(self):
        geom = GeometryParams(R_q=0.1, L_q=0.45, L_r=0.2, W_r=0.05, H_r=0.05, D_r=0.1)
        masses = MassProperties(m_q=1.8, m_r=0.2)
        composed = compose_inertia(geom, masses)
        quad_only = compose_inertia(geom, MassProperties(m_q=1.8, m_r=0.0))
        arm = masses.m_r * (geom.W_r ** 2 / 12 + geom.H_r ** 2 / 12 + geom.D_r ** 2)
        assert composed.I_xx - quad_only.I_xx == pytest.approx(arm)

    def test_bad_geometry_rejected(self):
        with pytest.raises(InvalidParameterError):
            GeometryParams(R_q=-0.1, L_q=0.45, L_r=0.2, W_r=0.05, H_r=0.05, D_r=0.1)
        with pytest.raises(InvalidParameterError):
            MassProperties(m_q=0.0)

    @given(ixx=st.floats(0.001, 10), iyy=st.floats(0.001, 10),
           izz=st.floats(0.001, 10), jr=st.floats(0, 1), l=st.floats(0.01, 2))
    def test_coefficient_identities(self, ixx, iyy, izz, jr, l):
        ia = InertiaParams(ixx, iyy, izz, jr, l)
        assert ia.a1 == pytest.approx((iyy - izz) / ixx)
        assert ia.a3 == pytest.approx((izz - ixx) / iyy)
        assert ia.a5 == pytest.approx((ixx - iyy) / izz)
        assert ia.a2 == pytest.approx(jr / ixx)
        assert ia.a4 == pytest.approx(jr / iyy)
        assert ia.a6 == pytest.approx(l / ixx)
        assert ia.a7 == pytest.approx(l / iyy)
        assert ia.a8 == pytest.approx(1 / izz)


class TestMixer:
    def test_hover_symmetry(self):
        p = MixerParams()
        u = mix([100.0] * 4, p)
        assert u.U1 == pytest.approx(4 * p.k_f * 100.0)
        assert u.U2 == u.U3 == u.U4 == 0.0
        assert u.omega_r == 0.0

    def test_single_rotor_column(self):
        u = mix([0, 0, 0, 1.0], MixerParams(k_f=1.0, k_m=1.0))
        assert (u.U1, u.U2, u.U3, u.U4) == pytest.approx((1.0, 1.0, 0.0, -1.0))

    def test_negative_speed_rejected(self):
        with pytest.raises(InvalidParameterError,
                           match="^squared rotor speeds need 4 non-negative finite numbers$"):
            mix([1, 1, -1, 1], MixerParams())

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_speed_rejected(self, bad):
        with pytest.raises(InvalidParameterError,
                           match="^squared rotor speeds need 4 non-negative finite numbers$"):
            mix([1.0, 1.0, bad, 1.0], MixerParams())

    def test_three_speeds_rejected(self):
        with pytest.raises(InvalidParameterError,
                           match="^squared rotor speeds need 4 non-negative finite numbers$"):
            mix(np.ones(3), MixerParams())

    def test_hover_inverse(self):
        p = MixerParams()
        w2, saturated = unmix([4 * p.k_f, 0, 0, 0], p)
        assert w2 == pytest.approx([1.0, 1.0, 1.0, 1.0])
        assert not saturated

    @given(st.lists(st.floats(0.1, 1e6), min_size=4, max_size=4))
    @settings(max_examples=200)
    def test_round_trip(self, w2):
        p = MixerParams()
        u = mix(w2, p)
        back, saturated = unmix(u, p)
        assert not saturated
        # tolerance scaled by the largest component: the inverse mixes
        # magnitudes across the whole vector
        assert np.allclose(back, w2, rtol=1e-10, atol=1e-10 * max(w2))

    @pytest.mark.parametrize("k_f, k_m", [(1e-5, 1.5e-6), (2.0, 3.0), (0.7, 1e-3)])
    def test_singularity_check_is_the_determinant(self, k_f, k_m):
        p = MixerParams(k_f, k_m)
        assert abs(np.linalg.det(p.matrix())) == pytest.approx(8 * k_f ** 3 * k_m, rel=1e-12)

    def test_huge_k_f_inverts_without_warning(self):
        # the determinant of this matrix overflows; its closed form goes to inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = MixerParams(k_f=1e300).inverse
        assert np.all(np.isfinite(rows))

    def test_huge_int_constant_reads_as_a_float(self):
        # an int past 2**63 would make numpy build an array of Python objects
        assert MixerParams(k_f=2 ** 1000).matrix().dtype == np.float64
        assert np.all(np.isfinite(MixerParams(k_f=2 ** 1000).inverse))

    def test_clamp_sets_flag(self):
        p = MixerParams()
        # pure roll torque with zero thrust forces a negative solution
        w2, saturated = unmix([0.0, 1.0, 0.0, 0.0], p)
        assert saturated
        assert np.all(w2 >= 0)

    def test_rotor_speeds_keeps_commanded_u(self):
        p = MixerParams()
        u = rotor_speeds([0.0, 1.0, 0.0, 0.0], p)
        assert u.rotor_saturated
        assert u.U2 == 1.0  # torque command passes through untouched

    def test_rotor_speeds_and_mix_share_the_relative_speed(self):
        # both evaluate ``SPEED`` on the squared rotor speeds
        p = MixerParams()
        u = rotor_speeds([20.0, 0.1, -0.2, 0.05], p)
        w2, _ = unmix(u, p)
        assert u.omega_r != 0.0
        assert u.omega_r == mix(w2, p).omega_r

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("call", [unmix, rotor_speeds], ids=["unmix", "rotor_speeds"])
    def test_non_finite_input_rejected(self, call, bad):
        # the mixer's clamp and saturation flag would pass a NaN through as unsaturated
        with pytest.raises(InvalidParameterError,
                           match="^generalized inputs need 4 finite numbers$"):
            call([bad, 1.0, 0.0, 0.0], MixerParams())


class TestStateDerivative:
    def test_hover_equilibrium(self, params):
        u = ControlInputs(U1=params.m * params.g)
        deriv, acc = state_derivative(QuadState(), u, DisturbanceOutputs(), params)
        assert np.all(deriv == 0.0)
        assert np.all(acc == 0.0)

    def test_free_fall(self, params):
        deriv, _ = state_derivative(QuadState(), ControlInputs(),
                                    DisturbanceOutputs(), params)
        assert deriv[7] == pytest.approx(9.81)

    def test_drag_contribution_to_roll(self, params):
        # drag channel alone: delta_a = -k*x2 with x2 = 2
        dist = DisturbanceOutputs(delta_a=-0.3729 * 2.0)
        state = make_state(phi_dot=2.0)
        deriv, _ = state_derivative(state, ControlInputs(), dist, params)
        assert deriv[1] == pytest.approx(-0.7458)

    def test_roll_pitch_symmetry(self, params):
        # I_xx == I_yy: the gyroscopic-free roll and pitch rows mirror each
        # other when the yaw rate sign is flipped along with the swap
        u_val, rate, yaw_rate = 0.7, 0.3, 0.2
        s_roll = make_state(theta_dot=rate, psi_dot=yaw_rate)
        d_roll, _ = state_derivative(s_roll, ControlInputs(U2=u_val),
                                     DisturbanceOutputs(), params)
        s_pitch = make_state(phi_dot=rate, psi_dot=-yaw_rate)
        d_pitch, _ = state_derivative(s_pitch, ControlInputs(U3=u_val),
                                      DisturbanceOutputs(), params)
        assert d_roll[1] == pytest.approx(d_pitch[3], rel=1e-12)

    def test_non_finite_state_rejected(self, params):
        state = QuadState()
        state.vector[0] = math.inf
        with pytest.raises(InvalidParameterError, match="^state vector needs 12 finite numbers$"):
            state_derivative(state, ControlInputs(), DisturbanceOutputs(), params)


@pytest.mark.parametrize("make", [
    lambda: MassProperties(m_q=math.nan),
    lambda: MassProperties(m_r=math.nan),
    lambda: InertiaParams(I_yy=math.nan),
    lambda: GeometryParams(R_q=0.1, L_q=0.45, L_r=0.2, W_r=math.nan, H_r=0.05, D_r=0.1),
    lambda: MixerParams(k_f=math.nan),
    lambda: WindParams(alpha=math.nan),
], ids=["m_q", "m_r", "I_yy", "W_r", "k_f", "wind_alpha"])
def test_nan_parameter_refused(make):
    # a comparison with nan is false, so each check asks for the admissible case
    with pytest.raises(InvalidParameterError):
        make()


GEOMETRY = dict(R_q=0.1, L_q=0.45, L_r=0.2, W_r=0.05, H_r=0.05, D_r=0.1)


@pytest.mark.parametrize("make, message", [
    (lambda: QuadParams(g=0.0), "g must be positive and finite"),
    (lambda: QuadParams(g=-1.0), "g must be positive and finite"),
    (lambda: QuadParams(g=math.inf), "g must be positive and finite"),
    (lambda: InertiaParams(l=0.0), "l must be positive and finite"),
    (lambda: InertiaParams(l=-1.0), "l must be positive and finite"),
    (lambda: InertiaParams(J_r=-1.0), "J_r must be non-negative and finite"),
    (lambda: InertiaParams(I_zz=math.inf), "I_zz must be positive and finite"),
    (lambda: compose_inertia(GeometryParams(**{**GEOMETRY, "L_q": 1e300}), MassProperties()),
     "principal inertias must be positive and finite"),
    (lambda: compose_inertia(GeometryParams(**{**GEOMETRY, "D_r": 2 ** 1000}), MassProperties()),
     "principal inertias must be positive and finite"),
], ids=["g_zero", "g_negative", "g_inf", "l_zero", "l_negative", "J_r_negative", "I_zz_inf",
        "geometry_float_overflow", "geometry_int_overflow"])
def test_physical_range_refused(make, message):
    with pytest.raises(InvalidParameterError, match=f"^{message}$"):
        make()


def test_physical_range_edges_accepted():
    assert InertiaParams(J_r=0.0).a2 == 0.0
    assert QuadParams(g=1e-3).g == 1e-3


def test_quadstate_validation():
    with pytest.raises(InvalidParameterError):
        QuadState(np.zeros(11))
    with pytest.raises(InvalidParameterError):
        QuadState(np.full(12, math.nan))
    with pytest.raises(InvalidParameterError):
        QuadState(lagged_accel=np.zeros(5))
    for entries in (["0"] * 12, [True] * 12, [[0.0]] * 12, np.zeros((12, 1))):
        with pytest.raises(InvalidParameterError, match="^state vector needs 12 finite numbers$"):
            QuadState(entries)


def test_quadstate_reads_numbers_as_a_float_vector():
    state = QuadState([0] * 11 + [2 ** 60], lagged_accel=(1, 2, 3, 4, 5, 6.5))
    assert state.vector.dtype == state.lagged_accel.dtype == np.float64
    assert state.vector[-1] == 2.0 ** 60 and state.lagged_accel.tolist() == [1, 2, 3, 4, 5, 6.5]


def test_mass_properties_com():
    mp = MassProperties(m_q=1.8, m_r=0.2, d0=0.0, d1=0.8)
    assert mp.m == pytest.approx(2.0)
    assert mp.z_G == pytest.approx(0.08)
