import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from quadarm import (DisturbanceFlags, DisturbanceParams, DragParams,
                     GroundEffectParams, MassProperties, QuadState, WindParams,
                     ground_effect_factor)
from quadarm.disturbances import lump, lump_kernel
from quadarm.errors import InvalidParameterError


def state_with(**kw):
    names = ["phi", "phi_dot", "theta", "theta_dot", "psi", "psi_dot",
             "z", "z_dot", "x", "x_dot", "y", "y_dot"]
    vec = np.zeros(12)
    for k, v in kw.items():
        vec[names.index(k)] = v
    return QuadState(vec)


class TestDrag:
    def test_negative_coefficient_rejected(self):
        with pytest.raises(InvalidParameterError):
            DragParams(k=(-0.1,) * 6)

    def test_coefficients_stored_as_a_float_tuple(self):
        drag = DragParams(k=[0.1] * 6)
        assert drag.k == (0.1,) * 6
        assert hash(drag) == hash(DragParams(k=(0.1,) * 6))


@pytest.mark.parametrize("make", [
    lambda: DragParams(k=(0.1,) * 5),
    lambda: GroundEffectParams(rho=-1.0),
    lambda: WindParams(n=0.0),
], ids=["drag_count", "rho", "wind_frequency"])
def test_invalid_parameter_refused(make):
    with pytest.raises(InvalidParameterError):
        make()


class TestGroundEffect:
    def test_reference_altitudes(self):
        p = GroundEffectParams()
        assert ground_effect_factor(5.0, p) == pytest.approx(1.000781, abs=1e-5)
        assert ground_effect_factor(0.5, p) == pytest.approx(1.08463, abs=1e-5)

    def test_far_field_limit(self):
        assert ground_effect_factor(1e9, GroundEffectParams()) == pytest.approx(1.0)

    def test_clamp_below_floor(self):
        p = GroundEffectParams()
        assert ground_effect_factor(-1.0, p) == ground_effect_factor(p.z_min, p)

    def test_z_min_must_clear_singularity(self):
        # singular altitude for the stock rho/r is about 0.1397 m
        with pytest.raises(InvalidParameterError):
            GroundEffectParams(z_min=0.13)

    @given(st.floats(0.2, 100.0), st.floats(0.2, 100.0))
    def test_monotone_and_bounded(self, z1, z2):
        p = GroundEffectParams()
        g1, g2 = ground_effect_factor(z1, p), ground_effect_factor(z2, p)
        assert g1 >= 1.0 and g2 >= 1.0
        if z1 < z2:
            assert g1 >= g2


def gust(t, p):
    """delta_a of a wind-only lump on the zero state: exactly the gust."""
    return lump(QuadState(), t, DisturbanceParams(wind=p), DisturbanceFlags(wind=True),
                MassProperties()).delta_a


class TestWind:
    def test_values(self):
        p = WindParams(alpha=0.1, beta=1.0, n=1.0)
        assert gust(0.0, p) == pytest.approx(0.1)
        assert gust(math.pi / 2, p) == pytest.approx(1.1)

    def test_zero_amplitude_is_constant(self):
        p = WindParams(alpha=0.3, beta=0.0, n=2.0)
        assert gust(0.0, p) == gust(17.3, p) == 0.3

    @given(st.floats(0.0, 100.0))
    def test_periodicity(self, t):
        p = WindParams(alpha=0.1, beta=1.0, n=0.7)
        assert abs(gust(t, p) - gust(t + 2 * math.pi / p.n, p)) < 1e-12


class TestComShift:
    def test_no_arm(self):
        assert MassProperties(m_q=2.0, m_r=0.0, d1=0.8).z_G == 0.0

    def test_table_split(self):
        assert MassProperties(1.8, 0.2, 0.0, 0.8).z_G == pytest.approx(0.08)

    def test_homogeneity(self):
        a = MassProperties(1.8, 0.2, 0.0, 0.8).z_G
        b = MassProperties(3.6, 0.4, 0.0, 0.8).z_G
        assert a == pytest.approx(b)


def com_of(state, z_G, m):
    """The CoM coupling terms q1..q6, read off a CoM-only lump kernel: under
    the published signs delta = -q, except the yaw row's +q."""
    delta = lump_kernel(DisturbanceParams(), DisturbanceFlags(com=True), m)(
        state.vector.tolist(), state.lagged_accel.tolist(), 0.0, z_G)
    return np.array(delta[:6]) * np.array([-1.0, -1.0, 1.0, -1.0, -1.0, -1.0])


class TestComEffect:
    def test_zero_shift(self):
        s = state_with(phi_dot=1.0, x_dot=2.0)
        s.lagged_accel[:] = 3.0
        assert np.all(com_of(s, 0.0, 2.0) == 0.0)

    def test_static_hover(self):
        assert np.all(com_of(QuadState(), 0.08, 2.0) == 0.0)

    def test_altitude_row(self):
        s = state_with(phi_dot=1.0, theta_dot=0.5)
        terms = com_of(s, 0.08, 2.0)
        assert terms[3] == pytest.approx(0.06)


class TestLump:
    def test_all_off(self):
        out = lump(QuadState(), 0.0, DisturbanceParams(), DisturbanceFlags(),
                   MassProperties())
        assert out[:6] == (0.0,) * 6
        assert out.G == 1.0

    def test_drag_only(self):
        s = state_with(phi_dot=1.0)
        out = lump(s, 0.0, DisturbanceParams(), DisturbanceFlags(drag=True),
                   MassProperties())
        assert out.delta_a == pytest.approx(-0.3729)

    def test_wind_only_uniform_offset(self):
        out = lump(QuadState(), 0.0, DisturbanceParams(),
                   DisturbanceFlags(wind=True), MassProperties())
        assert out[:6] == pytest.approx([0.1] * 6)

    def test_strict_sign_rows(self):
        # as published: the yaw CoM term adds, the altitude drag term adds
        s = state_with(phi_dot=0.4, theta_dot=0.2, psi_dot=0.3, z_dot=1.0)
        s.lagged_accel[:] = 0.0
        p = DisturbanceParams()
        out = lump(s, 0.0, p, DisturbanceFlags(drag=True, com=True),
                   MassProperties())
        com = com_of(s, 0.08, 2.0)
        assert out.delta_c == pytest.approx(+com[2] - 0.3729 * 0.3)
        assert out.delta_d == pytest.approx(-com[3] + 0.3729 * 1.0)

    @given(phi_dot=st.floats(-2, 2), z_dot=st.floats(-2, 2), t=st.floats(0, 10))
    def test_superposition(self, phi_dot, z_dot, t):
        s = state_with(phi_dot=phi_dot, z_dot=z_dot)
        p = DisturbanceParams()
        m = MassProperties()
        both = lump(s, t, p, DisturbanceFlags(drag=True, wind=True), m)
        only_drag = lump(s, t, p, DisturbanceFlags(drag=True), m)
        only_wind = lump(s, t, p, DisturbanceFlags(wind=True), m)
        assert both[:6] == pytest.approx(np.add(only_drag[:6], only_wind[:6]))

    def test_disabled_channel_contributes_nothing(self):
        s = state_with(phi_dot=1.2, x_dot=-0.4)
        s.lagged_accel[:] = 0.5
        p = DisturbanceParams()
        m = MassProperties()
        no_com = lump(s, 1.0, p, DisturbanceFlags(drag=True, wind=True), m)
        all_but_com = lump(s, 1.0, p,
                           DisturbanceFlags(drag=True, wind=True, com=False), m)
        assert no_com[:6] == pytest.approx(all_but_com[:6])
