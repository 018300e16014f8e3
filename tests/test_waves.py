"""Catalog constructors: coefficient formulas, shapes, and limits."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from kdvwaves.elliptic import elliptic_E, elliptic_K
from kdvwaves.equations import (EquationId, EquationKind, Field, Grid, residual,
                                travelling_residual)
from kdvwaves.inversion import catalog
from kdvwaves.waves import (
    Frame,
    MediumParams,
    SolitonLadder,
    TravellingWave,
    WaveFamily,
    make_fifth_order_soliton,
    make_gardner_soliton,
    make_kdv2_soliton,
    make_kdv_cnoidal,
    make_kdv_soliton,
    make_kdv_superposition,
    make_soliton_ladder,
)
from reference_derivatives import gardner_derivatives, time_derivative

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


# D = -(A/m)(E/K + m - 1) at A = 1, from mpmath at 40 digits
SMALL_M_PEDESTALS = (
    (1e-4, -0.49999374968748),
    (1e-6, -0.49999993749996874),
    (1e-8, -0.499999999375),
    (1e-10, -0.49999999999375),
    (1e-12, -0.4999999999999375),
    (1e-14, -0.4999999999999994),
)


@pytest.mark.parametrize("m,D", SMALL_M_PEDESTALS)
def test_cnoidal_pedestal_keeps_its_digits_as_m_vanishes(m, D):
    # E/K + m - 1 ~ m/2 cancels if formed from E/K; the AGM tail keeps it
    assert_allclose(make_kdv_cnoidal(P, 1.0, m).D, D, rtol=4e-16, atol=0)


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


def test_gardner_derivatives_vanish_in_the_overflowing_tail():
    # beyond |xi|/Delta ~ 710 cosh and sinh are inf; every derivative's limit is 0
    w = make_gardner_soliton(MediumParams(alpha=0.1, beta=0.3), Delta=1.0)
    xi = np.array([-2000.0, -5.0, 0.0, 3.0, 2000.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        d = w.derivatives(xi)
    assert np.all(d[:, [0, -1]] == 0.0)
    assert np.array_equal(d[:, 1:-1], w.derivatives(xi[1:-1]))


def test_gardner_width_floor():
    # Delta^2 >= beta' keeps B real
    p = MediumParams(alpha=0.1, beta=0.3, tau=0.0)
    with pytest.raises(ValueError):
        make_gardner_soliton(p, Delta=0.1)


def _one_wave_per_family():
    sol = make_kdv_soliton(P, 1.0)
    return [
        sol,
        make_kdv_cnoidal(P, 1.0, 0.9),
        make_kdv_superposition(P, 1.0, 0.5, sol.B),
        make_kdv_superposition(P, 1.0, 0.5, sol.B, sign=-1),
        make_kdv2_soliton(P),
        make_fifth_order_soliton(MediumParams(alpha=0.1, beta=0.1, tau=0.35)),
        make_gardner_soliton(MediumParams(alpha=0.1, beta=0.3), Delta=1.0),
    ]


def test_one_wave_per_family_covers_every_family():
    assert [w.family for w in _one_wave_per_family()] == list(WaveFamily)


@pytest.mark.parametrize("wave", _one_wave_per_family(), ids=lambda w: w.family.value)
def test_derivatives_row_zero_is_the_profile(wave):
    for xi in (np.linspace(-20.0, 20.0, 257), np.linspace(0.3, 6.0, 7), 1.5):
        rows = wave.derivatives(xi)
        assert rows.shape == (6,) + np.shape(xi)
        assert np.array_equal(rows[0], wave.profile(xi))


@pytest.mark.parametrize("wave", _one_wave_per_family(), ids=lambda w: w.family.value)
def test_derivatives_match_finite_differences_of_the_profile(wave):
    xi = np.linspace(0.3, 6.0, 7)
    d = wave.derivatives(xi)
    # the stencils and tolerances of the fitting module's derivative test
    h = 1e-6
    fd1 = (wave.profile(xi + h) - wave.profile(xi - h)) / (2 * h)
    assert_allclose(d[1], fd1, rtol=2e-6, atol=2e-9)
    h = 1e-4
    fd2 = (wave.profile(xi + h) - 2 * wave.profile(xi) + wave.profile(xi - h)) / h**2
    assert_allclose(d[2], fd2, rtol=2e-6, atol=2e-7)


def test_catalog_mirror_derivatives_are_exact_negations():
    mirrored = {label: sol for label, _, _, sol, _ in catalog(P.flipped())}
    checked = 0
    for label, _, _, up, grid in catalog(P):
        if isinstance(up, SolitonLadder):
            continue
        down = mirrored[label]
        assert np.array_equal(down.derivatives(grid.x), -up.derivatives(grid.x)), label
        checked += 1
    assert checked == 6


@pytest.mark.parametrize("wave", _one_wave_per_family(), ids=lambda w: w.family.value)
def test_derivative_rows_at_a_point_do_not_depend_on_the_point_count(wave):
    xi = np.linspace(-11.0, 13.0, 256)
    full = wave.derivatives(xi, 6)
    for i in (0, 3, 100, 255):
        assert np.array_equal(wave.derivatives(xi[i], 6), full[:, i]), i
    for n in (9, 12):
        for lo in range(0, 256 - n, 17):
            part = wave.derivatives(xi[lo:lo + n], 6)
            assert np.array_equal(part, full[:, lo:lo + n]), (n, lo)


@pytest.mark.parametrize("wave", _one_wave_per_family(), ids=lambda w: w.family.value)
def test_width_derivatives_match_central_differences(wave):
    xi = np.linspace(0.3, 6.0, 7)
    exact = wave.width_derivatives(xi, wave.derivatives(xi, 6))
    assert set(exact) == ({"B", "Delta"} if wave.family is WaveFamily.GARDNER_SOLITON
                          else {"B"})
    for name, rows in exact.items():
        value = getattr(wave, name)
        h = 1e-5 * (1.0 + abs(value))
        up, down = (replace(wave, **{name: value + s}).derivatives(xi, 5) for s in (h, -h))
        assert rows.shape == (6, 7)
        assert np.max(np.abs(rows - (up - down) / (2 * h))) <= 1e-6 * np.max(np.abs(rows))


def test_gardner_width_derivatives_vanish_in_the_overflowing_tail():
    w = make_gardner_soliton(MediumParams(alpha=0.1, beta=0.3), Delta=1.0)
    xi = np.array([-2000.0, -5.0, 0.0, 3.0, 2000.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        exact = w.width_derivatives(xi, w.derivatives(xi, 6))
    for name, rows in exact.items():
        assert np.all(rows[:, [0, -1]] == 0.0), name
        inner = w.width_derivatives(xi[1:-1], w.derivatives(xi[1:-1], 6))[name]
        assert np.array_equal(rows[:, 1:-1], inner), name


@pytest.mark.parametrize("delta", [0.5, 1.0, 2.0])
def test_gardner_rows_reach_their_limit_just_short_of_the_cosh_overflow(delta):
    # for |xi|/Delta in [690, 711] cosh is still finite, but its multiples
    # C(k, j) w^(j) in the Leibniz sums overflow; every row's limit is 0
    w = make_gardner_soliton(MediumParams(alpha=0.1, beta=0.3), Delta=delta)
    band = delta * np.linspace(690.0, 711.0, 2101)
    inner = np.linspace(-30.0, 30.0, 61)
    xi = np.concatenate([-band, inner, band])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = w.derivatives(xi, 6)
        width = w.width_derivatives(xi, rows)
    for name, r in [("rows", rows)] + sorted(width.items()):
        assert np.all(np.isfinite(r)), name
        tails = np.delete(r, np.s_[band.size:band.size + inner.size], axis=1)
        assert np.max(np.abs(tails)) <= 1e-290, name
    # points where nothing overflowed keep their rows bit for bit
    at = np.s_[:, band.size:band.size + inner.size]
    assert np.array_equal(rows[at], w.derivatives(inner, 6))
    for name, r in w.width_derivatives(inner, w.derivatives(inner, 6)).items():
        assert np.array_equal(width[name][at], r), name


def _assert_gardner_matches_the_leibniz_recursion(wave, xi):
    rows = wave.derivatives(xi, 6)
    widths = wave.width_derivatives(xi, rows)
    for name, got, ref in zip(("rows", "B", "Delta"), (rows, widths["B"], widths["Delta"]),
                              gardner_derivatives(wave, xi, 6)):
        assert np.all(np.isfinite(got)), name
        error = np.max(np.abs(got - ref), axis=1)
        assert np.all(error <= 1e-12 * np.max(np.abs(ref), axis=1)), (name, error)


@settings(max_examples=200, deadline=None)
@given(log_b=st.floats(-8.0, math.log10(5.0)), delta=st.floats(0.3, 3.0),
       log_a=st.floats(-2.0, 2.0), sign_a=st.sampled_from([1.0, -1.0]),
       sign_delta=st.sampled_from([1.0, -1.0]))
def test_gardner_rows_match_the_leibniz_recursion(log_b, delta, log_a, sign_a, sign_delta):
    # the monomial chain in (g, tau, c) against the recursion of u w = A,
    # w = 1 + B cosh(xi/Delta), at a fit's 12 Chebyshev nodes on [0, 8|Delta|]
    wave = TravellingWave(WaveFamily.GARDNER_SOLITON, A=sign_a * 10.0**log_a, B=10.0**log_b,
                          v=1.0, Delta=sign_delta * delta)
    xi = 4.0 * delta * (1.0 - np.cos(np.pi * (2 * np.arange(12) + 1) / 24))
    _assert_gardner_matches_the_leibniz_recursion(wave, xi)


@pytest.mark.parametrize("medium", [MediumParams(alpha=0.1, beta=0.3, tau=1.0 / 3.0),
                                    MediumParams(alpha=0.1, beta=6.0)], ids=["A=0", "B=0"])
def test_degenerate_gardner_waves_match_the_leibniz_recursion(medium):
    # beta' = 0 gives A = 0; beta' = Delta^2 gives B = 0, the flat u = A,
    # whose d/dB = -A cosh(xi/Delta) is finite up to |xi/Delta| ~ 710
    wave = make_gardner_soliton(medium, Delta=1.0)
    assert wave.A == 0.0 or wave.B == 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _assert_gardner_matches_the_leibniz_recursion(wave, np.linspace(-700.0, 700.0, 281))


@pytest.mark.parametrize("alpha,delta", [(0.1, 1.0), (-0.1, 1.0), (0.1, -2.0)])
def test_the_flat_gardner_wave_stays_flat_where_cosh_overflows(alpha, delta):
    # beta' = Delta^2 gives B = 0 exactly, the flat u = A: row 0 is A and every
    # derivative 0 at every xi, also past |xi/Delta| ~ 710, where 0 cosh(xi/Delta)
    # and 1/(sech(xi/Delta) + B) are no number
    wave = make_gardner_soliton(MediumParams(alpha=alpha, beta=6.0 * delta**2), Delta=delta)
    assert wave.B == 0.0 and abs(wave.A) == 40.0
    xi = delta * np.array([-2000.0, -800.0, -715.0, 0.0, 715.0, 800.0, 2000.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = wave.derivatives(xi, 6)
        u = wave.profile(xi)
    assert np.all(rows[0] == wave.A) and np.all(rows[1:] == 0.0)
    assert np.array_equal(u, rows[0])
    # stacked with a bell, each wave keeps the rows it has alone
    bell = make_gardner_soliton(MediumParams(alpha=alpha, beta=0.3), Delta=delta)
    both = TravellingWave(WaveFamily.GARDNER_SOLITON, A=np.array([[wave.A], [bell.A]]),
                          B=np.array([[0.0], [bell.B]]), v=1.0, Delta=delta)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stacked = both.derivatives(np.stack([xi, xi]), 6)
    assert np.array_equal(stacked[:, 0], rows)
    assert np.array_equal(stacked[:, 1], bell.derivatives(xi, 6))


def test_gardner_profile_adds_its_pedestal():
    w = make_gardner_soliton(MediumParams(alpha=0.1, beta=0.3), Delta=1.0)
    xi = np.linspace(-30.0, 30.0, 121)
    assert np.array_equal(replace(w, D=0.25).profile(xi), 0.25 + w.profile(xi))


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
    SolitonLadder((-1.0, -2.0))      # one sign, negative: the inverted ladder


def _dense_peak(fn, x_coarse, u_coarse):
    """Re-evaluate around the coarse argmax so dx does not limit the peak."""
    x0 = x_coarse[int(np.argmax(u_coarse))]
    return float(np.max(fn(np.linspace(x0 - 0.5, x0 + 0.5, 2001))))


def test_two_soliton_asymptotic_separation():
    # far from the interaction the state is two single solitons (up to
    # the constant phase shifts produced by the collision)
    ladder = SolitonLadder((1.0, 2.0))
    x = np.linspace(-400.0, 400.0, 4001)
    u = ladder.evaluate(x, -150.0, P)
    peaks = [x[i] for i in range(1, len(x) - 1)
             if u[i] >= u[i - 1] and u[i] >= u[i + 1] and u[i] > 0.1]
    assert len(peaks) == 2
    peak = _dense_peak(lambda xx: ladder.evaluate(xx, -150.0, P), x, u)
    assert_allclose(peak, 2.0, atol=5e-4)


def test_two_soliton_negated_solves_flipped_medium():
    ladder_up = SolitonLadder((1.0, 2.0))
    ladder_dn = SolitonLadder((-1.0, -2.0))
    x = np.linspace(-40, 40, 201)
    for t in (-7.0, 0.0, 3.0):
        assert np.all(ladder_dn.evaluate(x, t, P.flipped())
                      == -ladder_up.evaluate(x, t, P))


def test_three_soliton_trails_tallest_peak():
    ladder = SolitonLadder((1.0, 2.0, 3.0))
    x = np.linspace(-300.0, 300.0, 6001)
    u = ladder.evaluate(x, 60.0, P)
    peak = _dense_peak(lambda xx: ladder.evaluate(xx, 60.0, P), x, u)
    assert_allclose(peak, 3.0, atol=5e-3)


def test_ladder_cap_names_amplitudes():
    SolitonLadder(tuple(range(1, 9)))
    with pytest.raises(ValueError, match="amplitudes"):
        SolitonLadder(tuple(range(1, 10)))


def test_four_soliton_ladder_solves_kdv_and_mirrors_bitwise():
    grid = Grid(-48.0, 96.0, 1024)
    u, ut = SolitonLadder((1.0, 2.0, 3.0, 4.0)).fields(grid.x, 0.0, P)
    report, _ = residual(Field(grid, u), Field(grid, ut), EquationId(EquationKind.KDV), P)
    assert report.relative <= 1e-10
    u_dn, ut_dn = SolitonLadder((-1.0, -2.0, -3.0, -4.0)).fields(grid.x, 0.0, P.flipped())
    assert np.all(u_dn == -u) and np.all(ut_dn == -ut)


def test_ladder_time_derivative_matches_the_time_difference():
    for label, _, params, ladder, grid in catalog(P):
        if isinstance(ladder, SolitonLadder):
            _, ut = ladder.fields(grid.x, 0.0, params)
            ref = time_derivative(lambda x, t: ladder.evaluate(x, t, params), grid.x, 0.0)
            assert np.max(np.abs(ut - ref)) <= 1e-9 * np.max(np.abs(ut)), label


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


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["alpha", "beta", "tau", "delta"])
def test_non_finite_medium_is_rejected_by_name(name, value):
    with pytest.raises(ValueError) as err:
        replace(P, **{name: value})
    assert str(err.value) == f"MediumParams.{name} must be finite, got {value!r}"


def test_superposition_width_defaults_to_the_soliton_of_its_amplitude():
    for A, params in ((1.0, P), (-0.7, P.flipped())):
        B = make_kdv_soliton(params, A).B
        for sign in (+1, -1):
            assert (make_kdv_superposition(params, A, 0.5, sign=sign)
                    == make_kdv_superposition(params, A, 0.5, B, sign=sign))


@pytest.mark.parametrize("alpha", [0.1, -0.1])
@pytest.mark.parametrize("sign", [+1, -1])
def test_superposition_solves_kdv_at_the_soliton_width_alone(alpha, sign):
    # B^2 = 3 alpha A/(4 beta) at every m: on one period the default width
    # leaves a solution's residual, and a width 1% off one 1e4 times larger
    params, kdv = MediumParams(alpha, 0.1), EquationId(EquationKind.KDV)
    for m in (0.1, 0.5, 0.9, 0.99):
        for A in (0.5, 1.0, 2.0):
            wave = make_kdv_superposition(params, math.copysign(A, alpha), m, sign=sign)
            for B in (wave.B, 0.99 * wave.B, 1.01 * wave.B):
                w = make_kdv_superposition(params, wave.A, m, B, sign=sign)
                report, _ = travelling_residual(w, kdv, params, Grid(0.0, w.wavelength(), 1024))
                assert (report.relative < 1e-8 if B == wave.B
                        else report.relative > 1e-4), (m, A, B, report.relative)


@pytest.mark.parametrize("A,params", [(-1.0, P), (1.0, P.flipped()), (0.0, P)])
def test_superposition_default_width_names_the_superposition(A, params):
    with pytest.raises(ValueError, match=r"^superposition default width requires "
                                         r"alpha\*A > 0, got alpha="):
        make_kdv_superposition(params, A, 0.5)
    # a given width needs no sign agreement
    assert make_kdv_superposition(params, A, 0.5, 0.8).B == 0.8


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


def test_periodic_families_move_monotonically_towards_m_one():
    # v and D climb towards the soliton's (1 + alpha A/2, 0) and the
    # wavelength grows like ln(16/(1-m)), with no jump at any m < 1
    ms = (1.0 - 2e-12, 1.0 - 1e-12, 1.0 - 5e-13)
    B = make_kdv_soliton(P, 1.0).B
    for make in (lambda m: make_kdv_cnoidal(P, 1.0, m),
                 lambda m: make_kdv_superposition(P, 1.0, m, B, sign=-1)):
        waves = [make(m) for m in ms]
        for name, value in (("v", lambda w: w.v), ("D", lambda w: w.D),
                            ("wavelength", lambda w: w.wavelength())):
            vals = [value(w) for w in waves]
            assert vals[0] < vals[1] < vals[2], (waves[0].family, name, vals)
        assert waves[-1].v < 1.05 and waves[-1].D < 0.0


# a ladder's amplitudes: 2 to 5 distinct multiples of 0.1, at least 0.1 apart
LADDER_AMPLITUDES = st.lists(st.integers(1, 30), min_size=2, max_size=5, unique=True).map(
    lambda ks: tuple(0.1 * k for k in sorted(ks)))


@settings(max_examples=200, deadline=None)
@given(amplitudes=LADDER_AMPLITUDES, alpha=st.floats(0.01, 0.5), beta=st.floats(0.05, 0.5),
       upright=st.booleans(), frame=st.sampled_from(Frame), t=st.floats(-20.0, 20.0))
def test_negated_ladder_in_the_flipped_medium_is_the_bitwise_negation(
        amplitudes, alpha, beta, upright, frame, t):
    # fields() evaluates the signed amplitudes in the given medium; the
    # inversion is exact through its sign-symmetric arithmetic alone
    params = MediumParams(alpha if upright else -alpha, beta)
    amps = amplitudes if upright else tuple(-a for a in amplitudes)
    x = np.linspace(-40.0, 40.0, 257)
    u, ut = SolitonLadder(amps).fields(x, t, params, frame)
    mirror = SolitonLadder(tuple(-a for a in amps)).fields(x, t, params.flipped(), frame)
    for got, want in zip(mirror, (u, ut)):
        assert np.array_equal((-want).view(np.uint64), got.view(np.uint64))


@pytest.mark.parametrize("amplitudes,params", [((1.0, 2.0), P.flipped()),
                                               ((-1.0, -2.0, -3.0), P)])
def test_soliton_ladder_refuses_amplitudes_against_alpha(amplitudes, params):
    # as make_kdv_soliton refuses the smallest of them
    message = f"soliton requires alpha*A > 0, got alpha={params.alpha!r}, A={amplitudes[0]!r}"
    for build in (lambda: make_soliton_ladder(params, amplitudes),
                  lambda: SolitonLadder(amplitudes).fields(np.zeros(1), 0.0, params)):
        with pytest.raises(ValueError) as err:
            build()
        assert str(err.value) == message
    assert make_soliton_ladder(params.flipped(), amplitudes) == SolitonLadder(amplitudes)


@pytest.mark.parametrize("build,message", [
    (lambda: make_kdv_cnoidal(P, 1.0, 1.0), "cnoidal parameter m must be in (0, 1), got 1.0"),
    (lambda: make_kdv_cnoidal(P, 1.0, 0.0), "cnoidal parameter m must be in (0, 1), got 0.0"),
    (lambda: make_kdv_superposition(P, 1.0, 0.5, sign=0),
     "superposition sign must be +1 or -1, got 0"),
    (lambda: make_kdv_superposition(P, 1.0, 0.5, B=-0.5),
     "superposition B must be positive, got -0.5"),
    (lambda: make_kdv_superposition(P, 1.0, 1.0),
     "superposition parameter m must be in (0, 1), got 1.0"),
    (lambda: make_gardner_soliton(P, 0.0), "Gardner width Delta must be nonzero"),
    (lambda: MediumParams(0.1, 0.1, tau=-0.1), "MediumParams.tau must be >= 0, got -0.1"),
    (lambda: SolitonLadder((0.0, 1.0)), "SolitonLadder amplitudes must be nonzero"),
])
def test_constructors_refuse_out_of_range_values_by_name(build, message):
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == message
