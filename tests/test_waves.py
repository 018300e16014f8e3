"""Catalog constructors: coefficient formulas, shapes, and limits."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from kdvwaves.elliptic import elliptic_E, elliptic_K
from kdvwaves.waves import (
    Frame,
    MediumParams,
    SolitonLadder,
    WaveFamily,
    make_fifth_order_soliton,
    make_gardner_soliton,
    make_kdv2_soliton,
    make_kdv_cnoidal,
    make_kdv_soliton,
    make_kdv_superposition,
    three_soliton,
    time_derivative,
    two_soliton,
)

P = MediumParams(alpha=0.1, beta=0.1)


def test_soliton_coefficients():
    w = make_kdv_soliton(P, 1.0)
    assert_allclose(w.B, math.sqrt(3 * 0.1 * 1.0 / (4 * 0.1)), rtol=1e-15)
    assert_allclose(w.v, 1.05, rtol=1e-15)
    assert w.D == 0.0
    assert w.wavelength() is None


def test_soliton_peak_and_decay():
    w = make_kdv_soliton(P, 2.0)
    assert_allclose(w.profile(0.0), 2.0, rtol=1e-15)
    assert abs(w.profile(40.0)) < 1e-25
    # translation: evaluate(x, t) is profile(x - v t)
    x = np.linspace(-5, 5, 11)
    assert_allclose(w.evaluate(x, 3.0), w.profile(x - w.v * 3.0), rtol=0, atol=0)


def test_cnoidal_coefficients():
    # frozen against the closed forms evaluated with the elliptic oracles
    w = make_kdv_cnoidal(P, 1.0, 0.9)
    assert_allclose(w.B, 0.9128709291752769, rtol=1e-14)
    assert_allclose(w.v, 0.9896904193662313, rtol=1e-12)
    assert_allclose(w.D, -0.3650268338547541, rtol=1e-12)
    assert_allclose(w.wavelength(), 2 * elliptic_K(0.9) / w.B, rtol=1e-15)


def test_cnoidal_zero_mean_over_period():
    w = make_kdv_cnoidal(P, 1.0, 0.6)
    lam = w.wavelength()
    xi = lam * np.arange(4096) / 4096
    assert abs(np.mean(w.profile(xi))) < 1e-12


def test_superposition_coefficients():
    B = math.sqrt(3 * P.alpha / (4 * P.beta))
    w = make_kdv_superposition(P, 1.0, 0.5, B, sign=+1)
    assert_allclose(w.v, 1.0016145032108326, rtol=1e-12)
    assert_allclose(w.D, -0.3642366452611159, rtol=1e-12)
    assert_allclose(w.wavelength(), 4 * elliptic_K(0.5) / B, rtol=1e-15)


def test_superposition_branches_sum():
    # the two branches differ by the sign of the cn*dn cross term, so
    # their sum is A dn^2 + 2D at every point
    B = math.sqrt(3 * P.alpha / (4 * P.beta))
    plus = make_kdv_superposition(P, 1.0, 0.5, B, sign=+1)
    minus = make_kdv_superposition(P, 1.0, 0.5, B, sign=-1)
    xi = np.linspace(-10, 10, 201)
    from kdvwaves.elliptic import jacobi_sn_cn_dn
    _, _, dn = jacobi_sn_cn_dn(B * xi, 0.5)
    assert_allclose(plus.profile(xi) + minus.profile(xi),
                    dn * dn + plus.D + minus.D, atol=1e-14)


def test_kdv2_soliton_frozen_coefficients():
    w = make_kdv2_soliton(P)
    assert_allclose(w.A, 2.423987402731441, rtol=1e-14)
    assert_allclose(w.B, 1.2047278049695553, rtol=1e-14)
    assert_allclose(w.v, 1.1145459265580113, rtol=1e-14)


def test_kdv2_amplitude_scales_inversely_with_alpha():
    # A = p/alpha with p independent of the medium
    w1 = make_kdv2_soliton(MediumParams(alpha=0.1, beta=0.1))
    w2 = make_kdv2_soliton(MediumParams(alpha=0.2, beta=0.1))
    assert_allclose(w1.A, 2.0 * w2.A, rtol=1e-14)


def test_fifth_order_soliton_frozen_coefficients():
    p = MediumParams(alpha=0.1, beta=0.1, tau=0.35)
    w = make_fifth_order_soliton(p)
    assert_allclose(w.A, -0.0346611868980711, rtol=1e-13)
    assert_allclose(w.B, 0.4394454767130271, rtol=1e-13)
    assert_allclose(w.v, 0.9982174246738135, rtol=1e-13)


def test_fifth_order_needs_opposite_dispersion_signs():
    # both dispersion coefficients positive at tau = 0: no real width
    with pytest.raises(ValueError, match="opposite-sign dispersion"):
        make_fifth_order_soliton(MediumParams(alpha=0.1, beta=0.1, tau=0.0))


def test_gardner_soliton_coefficients():
    p = MediumParams(alpha=0.1, beta=0.3, tau=0.0)
    w = make_gardner_soliton(p, Delta=1.0)
    bp = p.beta_prime()
    assert_allclose(w.A, 4 * bp / (p.alpha * 1.0), rtol=1e-15)
    assert_allclose(w.B, math.sqrt(1 - bp), rtol=1e-15)
    assert_allclose(w.v, 1 + bp, rtol=1e-15)


def test_gardner_tail_is_overflow_free():
    # cosh overflows beyond |xi|/Delta ~ 710; the profile's limit there is 0
    p = MediumParams(alpha=0.1, beta=0.3, tau=0.0)
    w = make_gardner_soliton(p, Delta=1.0)
    xi = np.array([-2000.0, -5.0, 0.0, 3.0, 2000.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        u = w.profile(xi)
    assert u[0] == u[-1] == 0.0
    assert np.array_equal(u[1:-1], w.A / (1.0 + w.B * np.cosh(xi[1:-1])))


def test_gardner_width_floor():
    # Delta^2 >= beta' keeps B real
    p = MediumParams(alpha=0.1, beta=0.3, tau=0.0)
    with pytest.raises(ValueError):
        make_gardner_soliton(p, Delta=0.1)


@settings(max_examples=50, deadline=None)
@given(a=st.floats(0.02, 3.0), t=st.floats(-20.0, 20.0))
def test_inverted_soliton_is_negated_upright(a, t):
    up = make_kdv_soliton(P, a)
    down = make_kdv_soliton(P.flipped(), -a)
    x = np.linspace(-30, 30, 101)
    # B and v coincide, so the two evaluations agree bit for bit
    assert np.all(down.evaluate(x, t) == -up.evaluate(x, t))


def test_ladder_validation():
    with pytest.raises(ValueError):
        SolitonLadder((2.0, 1.0))        # must increase
    with pytest.raises(ValueError):
        SolitonLadder((1.0, -2.0))       # mixed signs
    with pytest.raises(ValueError):
        SolitonLadder((1.0,))            # length 2 or 3
    inv = SolitonLadder((-1.0, -2.0))
    assert inv.inverted
    assert inv.magnitudes == (1.0, 2.0)


def _dense_peak(fn, x_coarse, u_coarse):
    """Re-evaluate around the coarse argmax so dx does not limit the peak."""
    x0 = x_coarse[int(np.argmax(u_coarse))]
    return float(np.max(fn(np.linspace(x0 - 0.5, x0 + 0.5, 2001))))


def test_two_soliton_asymptotic_separation():
    # far from the interaction the state is two single solitons (up to
    # the constant phase shifts produced by the collision)
    ladder = SolitonLadder((1.0, 2.0))
    x = np.linspace(-400.0, 400.0, 4001)
    u = two_soliton(x, -150.0, ladder, P)
    peaks = [x[i] for i in range(1, len(x) - 1)
             if u[i] >= u[i - 1] and u[i] >= u[i + 1] and u[i] > 0.1]
    assert len(peaks) == 2
    peak = _dense_peak(lambda xx: two_soliton(xx, -150.0, ladder, P), x, u)
    assert_allclose(peak, 2.0, atol=5e-4)


def test_two_soliton_negated_solves_flipped_medium():
    ladder_up = SolitonLadder((1.0, 2.0))
    ladder_dn = SolitonLadder((-1.0, -2.0))
    x = np.linspace(-40, 40, 201)
    for t in (-7.0, 0.0, 3.0):
        assert np.all(two_soliton(x, t, ladder_dn, P.flipped())
                      == -two_soliton(x, t, ladder_up, P))


def test_three_soliton_trails_tallest_peak():
    ladder = SolitonLadder((1.0, 2.0, 3.0))
    x = np.linspace(-300.0, 300.0, 6001)
    u = three_soliton(x, 60.0, ladder, P)
    peak = _dense_peak(lambda xx: three_soliton(xx, 60.0, ladder, P), x, u)
    assert_allclose(peak, 3.0, atol=5e-3)


def test_time_derivative_matches_travelling_translation():
    w = make_kdv_soliton(P, 1.0)
    x = np.linspace(-20, 20, 101)
    ut = time_derivative(lambda xx, t: w.evaluate(xx, t), x, 0.0)
    # analytic: u_t = -v f'(xi) = -v * (-2 A B sech^2 tanh)
    xi = x
    s = 1.0 / np.cosh(w.B * xi)
    exact = -w.v * (-2.0 * w.A * w.B * s * s * np.tanh(w.B * xi))
    assert_allclose(ut, exact, atol=1e-11)


def test_medium_validation():
    with pytest.raises(ValueError):
        MediumParams(alpha=0.0, beta=0.1)
    with pytest.raises(ValueError):
        MediumParams(alpha=0.1, beta=-0.1)
    assert P.flipped().alpha == -P.alpha
    assert P.flipped().beta == P.beta


def test_soliton_needs_alpha_amplitude_agreement():
    with pytest.raises(ValueError):
        make_kdv_soliton(P, -1.0)  # alpha*A < 0: imaginary width
    w = make_kdv_soliton(P.flipped(), -1.0)
    assert w.A == -1.0
    assert w.family is WaveFamily.KDV_SOLITON


def test_speed_in_frames():
    w = make_kdv_soliton(P, 1.0)
    assert_allclose(w.speed_in(Frame.FIXED) - w.speed_in(Frame.MOVING), 1.0,
                    rtol=1e-15)
