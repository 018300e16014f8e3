"""Elliptic kernel: frozen references, invariants, and live oracles."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from kdvwaves.elliptic import M_ONE_CUTOFF, elliptic_E, elliptic_K, jacobi_sn_cn_dn, sech

# Frozen reference values (independent AGM implementation, cross-checked
# against scipy.special.ellipk/ellipe/ellipj at build time).
K_REF = {0.1: 1.6124413487202194, 0.5: 1.8540746773013719, 0.9: 2.5780921133481733}
E_REF = {0.1: 1.5307576368977632, 0.5: 1.3506438810476755, 0.9: 1.1047747327040733}
SN_CN_DN_REF = (0.8671832932902386, 0.4979890920876641, 0.6881825303557242)  # u=1.2, m=0.7


@pytest.mark.parametrize("m", sorted(K_REF))
def test_complete_integrals_frozen_values(m):
    assert_allclose(elliptic_K(m), K_REF[m], rtol=1e-14)
    # E's AGM sum carries a few more ulps of roundoff than K's
    assert_allclose(elliptic_E(m), E_REF[m], rtol=1e-13)


def test_limits_at_m_zero():
    assert_allclose(elliptic_K(0.0), math.pi / 2, rtol=1e-15)
    assert_allclose(elliptic_E(0.0), math.pi / 2, rtol=1e-15)


def test_jacobi_frozen_point():
    sn, cn, dn = jacobi_sn_cn_dn(1.2, 0.7)
    assert_allclose((float(sn), float(cn), float(dn)), SN_CN_DN_REF, atol=1e-14)


def test_jacobi_reduces_to_trig_at_m_zero():
    u = np.linspace(-7.0, 7.0, 101)
    sn, cn, dn = jacobi_sn_cn_dn(u, 0.0)
    assert_allclose(sn, np.sin(u), atol=1e-13)
    assert_allclose(cn, np.cos(u), atol=1e-13)
    assert_allclose(dn, np.ones_like(u), atol=1e-13)


def test_jacobi_reduces_to_hyperbolic_at_m_one():
    u = np.linspace(-5.0, 5.0, 101)
    sn, cn, dn = jacobi_sn_cn_dn(u, 1.0)
    assert_allclose(sn, np.tanh(u), atol=1e-13)
    assert_allclose(cn, 1.0 / np.cosh(u), atol=1e-13)
    assert_allclose(dn, 1.0 / np.cosh(u), atol=1e-13)


@settings(max_examples=200, deadline=None)
@given(u=st.floats(-30.0, 30.0), m=st.floats(0.0, 0.999))
def test_squares_identity(u, m):
    sn, cn, dn = jacobi_sn_cn_dn(u, m)
    assert abs(sn * sn + cn * cn - 1.0) < 1e-12
    assert abs(dn * dn - (1.0 - m * sn * sn)) < 1e-12


@settings(max_examples=100, deadline=None)
@given(u=st.floats(-10.0, 10.0), m=st.floats(0.0, 0.99))
def test_parity(u, m):
    sp, cp, dp = jacobi_sn_cn_dn(u, m)
    sm, cm, dm = jacobi_sn_cn_dn(-u, m)
    assert_allclose(float(sm), -float(sp), atol=1e-13)
    assert_allclose(float(cm), float(cp), atol=1e-13)
    assert_allclose(float(dm), float(dp), atol=1e-13)


@settings(max_examples=60, deadline=None)
@given(u=st.floats(-8.0, 8.0), m=st.floats(0.0, 0.99))
def test_periodicity(u, m):
    K = elliptic_K(m)
    sn, cn, dn = jacobi_sn_cn_dn(u, m)
    sn4, cn4, dn4 = jacobi_sn_cn_dn(u + 4.0 * K, m)
    assert_allclose(float(sn4), float(sn), atol=1e-10)
    assert_allclose(float(cn4), float(cn), atol=1e-10)
    sn2, _, dn2 = jacobi_sn_cn_dn(u + 2.0 * K, m)
    assert_allclose(float(sn2), -float(sn), atol=1e-10)
    assert_allclose(float(dn2), float(dn), atol=1e-10)


def test_quarter_period_values():
    # the hardest points for any recursion: sn = 1, cn = 0, dn = sqrt(1-m)
    for m in (0.1, 0.5, 0.9, 0.9999):
        K = elliptic_K(m)
        sn, cn, dn = jacobi_sn_cn_dn(K, m)
        assert_allclose(float(sn), 1.0, atol=1e-12)
        assert abs(float(cn)) < 1e-10
        assert_allclose(float(dn), math.sqrt(1.0 - m), rtol=1e-8)


def test_scipy_cross_check():
    special = pytest.importorskip("scipy.special")
    for m in (0.05, 0.3, 0.6, 0.95):
        assert_allclose(elliptic_K(m), special.ellipk(m), rtol=1e-14)
        assert_allclose(elliptic_E(m), special.ellipe(m), rtol=1e-14)
    u = np.linspace(-9.0, 9.0, 181)
    for m in (0.05, 0.5, 0.95):
        sn, cn, dn = jacobi_sn_cn_dn(u, m)
        s_ref, c_ref, d_ref, _ = special.ellipj(u, m)
        assert_allclose(sn, s_ref, atol=2e-13)
        assert_allclose(cn, c_ref, atol=2e-13)
        assert_allclose(dn, d_ref, atol=2e-13)


def test_quadrature_oracle():
    quad = pytest.importorskip("scipy.integrate").quad
    for m in (0.2, 0.5, 0.8):
        k_ref, _ = quad(lambda t: 1.0 / math.sqrt(1.0 - m * math.sin(t) ** 2),
                        0.0, math.pi / 2, epsabs=0.0, epsrel=1e-13)
        e_ref, _ = quad(lambda t: math.sqrt(1.0 - m * math.sin(t) ** 2),
                        0.0, math.pi / 2, epsabs=0.0, epsrel=1e-13)
        assert_allclose(elliptic_K(m), k_ref, rtol=1e-12)
        assert_allclose(elliptic_E(m), e_ref, rtol=1e-12)


def test_ode_oracle():
    # sn' = cn dn, cn' = -sn dn, dn' = -m sn cn with (0, 1, 1) at u = 0
    integrate = pytest.importorskip("scipy.integrate")
    for m in (0.1, 0.5, 0.9):

        def rhs(_, y, m=m):
            sn, cn, dn = y
            return [cn * dn, -sn * dn, -m * sn * cn]

        u_max = 4.0 * elliptic_K(m)
        u_eval = np.linspace(0.0, u_max, 100)
        sol = integrate.solve_ivp(rhs, (0.0, u_max), [0.0, 1.0, 1.0],
                                  t_eval=u_eval, method="DOP853",
                                  rtol=1e-12, atol=1e-13)
        assert sol.success
        sn, cn, dn = jacobi_sn_cn_dn(u_eval, m)
        assert np.max(np.abs(sn - sol.y[0])) < 1e-10
        assert np.max(np.abs(cn - sol.y[1])) < 1e-10
        assert np.max(np.abs(dn - sol.y[2])) < 1e-10


def test_domain_validation():
    with pytest.raises(ValueError):
        elliptic_K(1.0)
    with pytest.raises(ValueError):
        elliptic_K(-0.1)
    with pytest.raises(ValueError):
        jacobi_sn_cn_dn(0.5, 1.5)


@pytest.mark.parametrize("m", [1.0, 0.5 * (1.0 + M_ONE_CUTOFF)])
def test_hyperbolic_limit_is_overflow_free(m):
    u = np.array([-1000.0, -800.0, 800.0, 1000.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sn, cn, dn = jacobi_sn_cn_dn(u, m)
    assert np.array_equal(sn, np.sign(u))
    assert np.array_equal(cn, sech(u)) and np.array_equal(dn, cn)
    assert np.all(cn == 0.0)
