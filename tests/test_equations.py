"""Residual operators, derivative backends, and the bottom profile."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.testing import assert_allclose

from kdvwaves import equations
from kdvwaves.equations import (
    FLUXES,
    TERMS,
    BottomProfile,
    EquationId,
    EquationKind,
    Field,
    Grid,
    bottom_coefficients,
    bottom_eval,
    residual,
    residual_report,
    solution_fields,
    travelling_residual,
)
from kdvwaves import inversion
from kdvwaves.inversion import RandomField
from kdvwaves.waves import (
    Frame,
    MediumParams,
    SolitonLadder,
    make_gardner_soliton,
    make_kdv2_soliton,
    make_kdv_cnoidal,
    make_kdv_soliton,
)
from reference_derivatives import (
    DERIVATIVE_ORDERS,
    fd8_derivative,
    fd8_roll_diffs,
    spectral_derivative,
    sum_terms_reference,
)

P = MediumParams(alpha=0.1, beta=0.1)


# --- derivative backends --------------------------------------------------------

@pytest.mark.parametrize("order", [1, 2, 3, 5])
def test_spectral_derivative_exact_on_modes(order):
    grid = Grid(0.0, 2.0 * math.pi, 64)
    k = 3.0
    f = Field(grid, np.sin(k * grid.x))
    d = spectral_derivative(f, order).values
    phase = order % 4
    ref = {0: np.sin, 1: np.cos, 2: lambda z: -np.sin(z), 3: lambda z: -np.cos(z)}
    # roundoff in the fft floor is amplified by k_max^order
    atol = 100.0 * np.finfo(float).eps * (grid.n / 2) ** order
    assert_allclose(d, k ** order * ref[phase](k * grid.x), atol=atol)


@pytest.mark.parametrize("order,tol", [(1, 1e-9), (2, 1e-8), (3, 1e-7), (5, 1e-4)])
def test_fd8_matches_spectral_on_smooth_field(order, tol):
    # eighth-order stencils: error ~ dx^8 * f^(order+8); tolerance
    # scales with the order since higher derivatives amplify the bound
    grid = Grid(-20.0, 40.0, 512)
    f = Field(grid, np.exp(-0.5 * grid.x ** 2 / 9.0) * np.cos(grid.x))
    ds = spectral_derivative(f, order).values
    df = fd8_derivative(f, order).values
    assert np.max(np.abs(ds - df)) < tol * max(1.0, np.max(np.abs(ds)))


def test_fd8_exact_on_low_degree_polynomial_mode():
    # a single Fourier mode resolved far below Nyquist: both backends agree
    grid = Grid(0.0, 2.0 * math.pi, 256)
    f = Field(grid, np.cos(2.0 * grid.x))
    assert_allclose(fd8_derivative(f, 1).values, -2.0 * np.sin(2.0 * grid.x),
                    atol=1e-12)


def test_derivative_order_validation():
    grid = Grid(0.0, 10.0, 32)
    f = Field(grid, np.zeros(32))
    with pytest.raises(ValueError):
        spectral_derivative(f, 0)
    with pytest.raises(ValueError):
        fd8_derivative(f, -1)


@pytest.mark.parametrize("n", [16, 1024, 8192])
@pytest.mark.parametrize("kind", list(EquationKind))
def test_one_transform_pair_gives_each_order_bit_for_bit(kind, n):
    # the stacked derivative set equals one rfft/irfft pair per order,
    # on a field with energy in every mode, the Nyquist mode included
    grid = Grid(-3.0, 17.0, n)
    u = np.random.default_rng(n).standard_normal(n)
    orders = equations._required_orders(kind)
    rows = equations._spectral_diffs(u, grid, orders)
    assert list(rows) == orders
    for o in orders:
        multiplier = grid.derivative_multiplier(o)
        assert (multiplier[-1] == 0.0) == (o % 2 == 1)
        want = np.fft.irfft(multiplier * np.fft.rfft(u), n)
        assert np.array_equal(rows[o], want)
        assert np.array_equal(spectral_derivative(Field(grid, u), o).values, want)


@pytest.mark.parametrize("kind", list(EquationKind))
@pytest.mark.parametrize("n", [16, 1024, 8192])
def test_sliced_fd8_taps_equal_the_rolled_stencils_bit_for_bit(kind, n):
    grid = Grid(-3.0, 17.0, n)
    u = np.random.default_rng(n).standard_normal(n)
    orders = equations._required_orders(kind)
    rows = equations._fd8_diffs(u, grid, orders)
    want = fd8_roll_diffs(u, grid, orders)
    assert list(rows) == orders
    for o in orders:
        assert np.array_equal(rows[o], want[o])
        assert np.array_equal(fd8_derivative(Field(grid, u), o).values, want[o])


# --- grids and fields -----------------------------------------------------------

@pytest.mark.parametrize("order", (0,) + DERIVATIVE_ORDERS)
def test_a_grid_builds_each_multiplier_once_and_shares_it_read_only(order):
    grid = Grid(-3.0, 17.0, 64)
    mult = grid.derivative_multiplier(order)
    assert grid.derivative_multiplier(order) is mult
    assert not mult.flags.writeable
    with pytest.raises(ValueError):
        mult[1] = 0.0
    fresh = (1j * 2.0 * math.pi * np.fft.rfftfreq(64, d=grid.dx)) ** order
    if order % 2 == 1:
        fresh[-1] = 0.0
    assert np.array_equal(mult, fresh)
    # a second grid with the same values shares the row
    twin = Grid(-3.0, 17.0, 64)
    assert twin == grid
    assert twin.derivative_multiplier(order) is mult
    assert np.array_equal(twin.derivative_multiplier(order), mult)


@pytest.mark.parametrize("order", (0,) + DERIVATIVE_ORDERS)
def test_multipliers_are_keyed_by_n_and_dx_alone(order):
    mult = Grid(-3.0, 17.0, 64).derivative_multiplier(order)
    # the row does not depend on x0: a shifted grid shares it
    assert Grid(5.5, 17.0, 64).derivative_multiplier(order) is mult
    # another n or length has a row of its own, and every shared row is read-only
    others = [Grid(-3.0, 17.0, 128).derivative_multiplier(order),
              Grid(-3.0, 34.0, 64).derivative_multiplier(order)]
    assert all(row is not mult for row in others)
    for row in (mult, *others):
        assert not row.flags.writeable
        with pytest.raises(ValueError):
            row[0] = 1.0


@pytest.mark.parametrize("n", [16, 128, 256, 1024, 4096, 8192, 16384])
def test_multipliers_are_the_complex_powers_bit_for_bit(n):
    """(ik)^o keeps every bit of numpy's power (1j * k) ** o, down to the
    signs of its zero parts, with an odd order's Nyquist mode zeroed."""
    for length in (1.0, 17.0, 2.0 * math.pi, 137.01766579681475, 640.0, 1.0e4):
        grid = Grid(-3.0, length, n)
        k = 2.0 * math.pi * np.fft.rfftfreq(n, d=grid.dx)
        for order in range(6):
            want = (1j * k) ** order
            if order % 2 == 1:
                want[-1] = 0.0
            got = grid.derivative_multiplier(order)
            assert got.tobytes() == want.tobytes(), (length, order)


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(0.0, -1.0, 64)
    with pytest.raises(ValueError):
        Grid(0.0, 10.0, 15)   # odd
    with pytest.raises(ValueError):
        Grid(0.0, 10.0, 8)    # too small


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["x0", "length"])
def test_non_finite_grid_is_rejected_by_name(name, value):
    with pytest.raises(ValueError) as err:
        Grid(**{"x0": 0.0, "length": 10.0, "n": 32, name: value})
    assert str(err.value) == f"Grid.{name} must be finite, got {value!r}"


def test_field_validation():
    grid = Grid(0.0, 10.0, 32)
    with pytest.raises(ValueError):
        Field(grid, np.zeros(31))
    with pytest.raises(ValueError):
        Field(grid, np.full(32, np.nan))


# --- bottom profiles ------------------------------------------------------------

def test_bottom_validation():
    with pytest.raises(ValueError):
        BottomProfile(((0.0, 0.1),))               # too few knots
    with pytest.raises(ValueError):
        BottomProfile(((0.0, 0.1), (0.0, 0.2)))    # not increasing
    with pytest.raises(ValueError):
        BottomProfile(((0.0, 0.1), (1.0, 1.5)))    # |h| > 1


@pytest.mark.parametrize("knot", [(math.nan, 0.1), (2.0, math.nan), (math.inf, 0.1),
                                  (2.0, -math.inf)])
def test_non_finite_bottom_knot_is_rejected_by_name(knot):
    with pytest.raises(ValueError) as err:
        BottomProfile(((0.0, 0.1), knot))
    assert str(err.value) == f"BottomProfile.knots must be finite, got {knot!r}"


def test_bottom_eval_piecewise_linear():
    grid = Grid(0.0, 10.0, 100)
    bottom = BottomProfile(((1.05, 0.0), (3.05, 0.4), (6.05, 0.4), (8.05, 0.0)))
    h, hx = bottom_eval(bottom, grid)
    i = np.argmin(np.abs(grid.x - 2.0))             # on the rising ramp
    assert_allclose(h[i], 0.2 * (grid.x[i] - 1.05), atol=1e-12)
    assert_allclose(hx[i], 0.2, atol=1e-12)         # slope 0.4/2
    j = np.argmin(np.abs(grid.x - 4.5))             # plateau
    assert_allclose(h[j], 0.4, atol=1e-12)
    assert_allclose(hx[j], 0.0, atol=1e-12)


def test_bottom_eval_shares_read_only_samples():
    grid = Grid(0.0, 10.0, 100)
    bottom = BottomProfile(((1.05, 0.0), (3.05, 0.4), (6.05, 0.4), (8.05, 0.0)))
    h, hx = bottom_eval(bottom, grid)
    assert all(a is b for a, b in zip(bottom_eval(bottom, grid), (h, hx)))
    for samples in (h, hx):
        assert not samples.flags.writeable
        with pytest.raises(ValueError):
            samples[0] = 1.0
    # an equal bottom on an equal grid shares them too
    twin = bottom_eval(BottomProfile(bottom.knots), Grid(0.0, 10.0, 100))
    assert all(a is b for a, b in zip(twin, (h, hx)))
    # another grid gets its own samples, and a too-short period still raises
    assert bottom_eval(bottom, Grid(0.0, 10.0, 200))[0].shape == (200,)
    for _ in range(2):      # each call raises: a refusal is not cached
        with pytest.raises(ValueError, match="span less than one period"):
            bottom_eval(bottom, Grid(0.0, 5.0, 100))


def test_bottom_eval_periodic_closure():
    # the segment from the last knot wraps to the first knot + period
    grid = Grid(0.0, 10.0, 200)
    bottom = BottomProfile(((2.025, 0.0), (7.025, 0.5)))
    h, hx = bottom_eval(bottom, grid)
    # descending branch: from (7.025, 0.5) back to (12.025, 0.0)
    i = np.argmin(np.abs(grid.x - 9.5))
    assert_allclose(h[i], 0.5 - 0.1 * (grid.x[i] - 7.025), atol=1e-12)
    assert_allclose(hx[i], -0.1, atol=1e-12)


# --- residual operators ---------------------------------------------------------

def test_soliton_residual_roundoff():
    w = make_kdv_soliton(P, 1.0)
    grid = Grid(-50.0, 100.0, 1024)
    report, res = travelling_residual(w, EquationId(EquationKind.KDV), P, grid)
    assert report.passed
    assert report.relative < 1e-12
    assert res.values.shape == (1024,)


def test_moving_frame_residual():
    # same profile, frame without the bare u_x term, speed shifted by 1
    w = make_kdv_soliton(P, 1.0)
    grid = Grid(-50.0, 100.0, 1024)
    report, _ = travelling_residual(
        w, EquationId(EquationKind.KDV, Frame.MOVING), P, grid)
    assert report.passed


def test_kdv2_residual_roundoff():
    w = make_kdv2_soliton(P)
    grid = Grid(-40.0, 80.0, 1024)
    report, _ = travelling_residual(w, EquationId(EquationKind.KDV2), P, grid)
    assert report.relative < 1e-10


def test_cross_family_residual_is_large():
    # a KdV soliton is not a Gardner solution: the harness must say so
    w = make_kdv_soliton(P, 1.0)
    grid = Grid(-50.0, 100.0, 1024)
    report, _ = travelling_residual(w, EquationId(EquationKind.GARDNER),
                                    MediumParams(0.1, 0.1, tau=0.0), grid)
    assert not report.passed
    assert report.relative > 1e-3


def test_fd8_backend_verifies_solutions_too():
    # dx^8 truncation caps fd8 near 3e-8 here, vs roundoff spectrally
    w = make_kdv_soliton(P, 1.0)
    grid = Grid(-50.0, 100.0, 1024)
    report, _ = travelling_residual(w, EquationId(EquationKind.KDV), P, grid,
                                    tolerance=1e-6, backend="fd8")
    assert report.passed
    assert report.relative < 1e-6


def test_travelling_residual_rejects_bottom():
    w = make_kdv_soliton(P, 1.0)
    grid = Grid(0.0, 100.0, 256)
    bottom = BottomProfile(((10.05, 0.0), (30.05, 0.2), (60.05, 0.2), (80.05, 0.0)))
    with pytest.raises(ValueError, match="flat bottom"):
        travelling_residual(w, EquationId(EquationKind.KDV, bottom=bottom), P, grid)


@pytest.mark.parametrize("backend", ["spectral", "fd8"])
@pytest.mark.parametrize("amplitudes", [(1.0, 2.0), (-1.0, -2.0, -3.0)])
def test_travelling_residual_of_a_ladder_is_the_residual_of_its_fields(backend, amplitudes):
    ladder = SolitonLadder(amplitudes)
    p = P if amplitudes[0] > 0 else P.flipped()
    grid = Grid(-64.0, 128.0, 1024)
    eq = EquationId(EquationKind.KDV, Frame.MOVING)
    report, res = travelling_residual(ladder, eq, p, grid, t=3.0, backend=backend)
    expected, expected_res = residual(*solution_fields(ladder, p, grid, 3.0, Frame.MOVING),
                                      eq, p, backend=backend)
    assert report == expected
    assert np.array_equal(res.values, expected_res.values)
    bottom = BottomProfile(((10.05, 0.0), (30.05, 0.2)))
    with pytest.raises(ValueError, match="flat bottom"):
        travelling_residual(ladder, EquationId(EquationKind.KDV, bottom=bottom), p, grid)


@pytest.mark.parametrize("backend", ["spectral", "fd8"])
@pytest.mark.parametrize("frame", list(Frame))
@pytest.mark.parametrize("flipped", [False, True], ids=["default", "flipped"])
def test_travelling_residual_is_the_residual_of_solution_fields_bit_for_bit(
        flipped, frame, backend):
    # the reference transforms u once for u_t and again for the residual;
    # a spectral wave check reads both from one transform
    medium = inversion.DEFAULT_MEDIUM.flipped() if flipped else inversion.DEFAULT_MEDIUM
    for label, kind, params, solution, grid in inversion.catalog(medium):
        eq = EquationId(kind, frame)
        report, res = travelling_residual(solution, eq, params, grid, t=1.5, backend=backend)
        expected, expected_res = residual(*solution_fields(solution, params, grid, 1.5, frame),
                                          eq, params, backend=backend)
        assert report == expected, label
        assert res.values.tobytes() == expected_res.values.tobytes(), label
        assert res.time == expected_res.time == 1.5


@pytest.mark.parametrize("backend", ["spectral", "fd8"])
@pytest.mark.parametrize("case", inversion.catalog(P), ids=lambda case: case[0])
def test_a_catalog_check_makes_one_fft_pair_at_most(case, backend, monkeypatch):
    """A wave's check takes one rfft and one stacked irfft on either backend
    (spectrally, u_t's u_x is a row of the equation's derivative set); a
    ladder's takes the spectral pair of its derivative set, or none on fd8."""
    label, kind, params, solution, grid = case
    calls = []

    def counted(name):
        real = getattr(equations, "_" + name)

        def call(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return call

    # the derivative sets call the gufunc handles that kdvwaves.equations imports
    for name in ("rfft", "irfft"):
        monkeypatch.setattr(equations, "_" + name, counted(name))
    travelling_residual(solution, EquationId(kind), params, grid, backend=backend)
    ladder = isinstance(solution, SolitonLadder)
    assert calls == ([] if ladder and backend == "fd8" else ["rfft", "irfft"])


@settings(max_examples=100, deadline=None)
@given(shape=st.sampled_from([(), (1,), (3,)]), n=st.integers(1, 24),
       count=st.integers(2, 8), data=st.data())
def test_sum_terms_is_the_first_formula_bit_for_bit_and_writes_no_term(
        shape, n, count, data):
    values = st.floats(allow_nan=False, allow_infinity=False)
    terms = [(f"t{i}", hnp.arrays(float, shape + (n,), elements=values))
             for i in range(count)]
    terms = [(name, data.draw(array)) for name, array in terms]
    before = [t.tobytes() for _, t in terms]
    # the full float range: sums that overflow must overflow alike
    with np.errstate(over="ignore", invalid="ignore"):
        res, scale = equations.sum_terms(terms)
        want, want_scale = sum_terms_reference(terms)
    assert res.tobytes() == want.tobytes()
    assert type(scale) is type(want_scale)
    assert np.shape(scale) == np.shape(want_scale) == shape
    assert np.asarray(scale).tobytes() == np.asarray(want_scale).tobytes()
    assert [t.tobytes() for _, t in terms] == before
    assert not any(np.shares_memory(res, t) for _, t in terms)


def test_a_zero_scale_report_fails_as_zero_field_with_the_sweeps_relative():
    # every term vanishes: nothing is checked, so no tolerance passes it, and
    # relative reads the sweep rows' 0.0 (valid JSON: no NaN, no Infinity)
    zero = residual_report("kdv/fixed", np.zeros(8), 0.0, 0.5, 1.0)
    assert (zero.relative, zero.passed, zero.flags) == (0.0, False, ("zero_field",))
    res = np.array([[0.0, 3e-9, -1e-9], [0.0, 0.0, 0.0]])
    rows = inversion._relative(res, np.array([0.5, 0.0]))
    assert rows == [residual_report("kdv/fixed", res[0], 0.5, 0.5, 1e-8).relative, 0.0]
    flagged = residual_report("gardner/fixed", res[0], 0.5, 0.5, 1e-8,
                              ("dispersion_sign_change",))
    assert flagged.passed and flagged.flags == ("dispersion_sign_change",)


@pytest.mark.parametrize("size", [1e150, 1e200, 1e300])
def test_norm_2_is_finite_where_the_squares_overflow(size):
    # the plain sum of squares overflows past |res| ~ 1e154: the report sums
    # them scaled by norm_inf instead, and a sum that stays finite is unchanged
    res = np.tile([size, -3.0 * size], 32)
    report = residual_report("kdv/fixed", res, 10.0 * size, 0.5, 1e-8)
    assert report.norm_inf == 3.0 * size
    assert_allclose(report.norm_2, math.sqrt(0.5 * 32 * 10.0) * size, rtol=1e-15)
    if size < 1e154:
        assert report.norm_2 == math.sqrt(0.5 * np.sum(res * res))


def test_residual_report_flags_reversed_dispersion():
    p = MediumParams(alpha=0.1, beta=0.1, tau=0.4)
    grid = Grid(-20.0, 40.0, 256)
    u = Field(grid, 0.1 * np.exp(-grid.x ** 2))
    ut = Field(grid, np.zeros(grid.n))
    report, _ = residual(u, ut, EquationId(EquationKind.GARDNER), p)
    assert "dispersion_sign_change" in report.flags


@settings(max_examples=25, deadline=None)
@given(d=st.floats(-0.5, 0.5), t=st.floats(-5.0, 5.0))
@example(d=0.0, t=-4.66426911119179).via("read 1.08e-9 with a spectral u_xxx")
@example(d=0.29619726795399437, t=-5.0).via("read 1.004e-9 with a spectral u_xxx")
def test_pedestal_shift_invariance(d, t):
    """Lifting a solution by a constant and boosting its speed by
    (3 alpha / 2) * the lift leaves the residual at roundoff."""
    from dataclasses import replace

    w = make_kdv_cnoidal(P, 1.0, 0.8)
    shifted = replace(w, D=w.D + d, v=w.v + 1.5 * P.alpha * d)
    grid = Grid(0.0, w.wavelength(), 512)
    # the exact rows at xi = x - v t and u_t = -v f': a spectral u_xxx
    # amplifies roundoff past 1e-9 on some draws, as on the two examples
    rows = shifted.derivatives(grid.x - shifted.v * t, 3)
    res, scale = equations.residual_rows(rows[0], -shifted.v * rows[1], dict(enumerate(rows)),
                                         EquationId(EquationKind.KDV), P, grid)
    assert np.max(np.abs(res)) <= 1e-12 * scale


def test_gardner_tabletop_residual():
    # wide soliton close to the width floor: flat crest ("table-top")
    p = MediumParams(alpha=0.1, beta=0.3, tau=0.0)
    delta = math.sqrt(p.beta_prime()) * 1.02
    w = make_gardner_soliton(p, Delta=delta)
    grid = Grid(-60.0, 120.0, 2048)
    report, _ = travelling_residual(w, EquationId(EquationKind.GARDNER), p, grid)
    assert report.passed


# --- conservative (flux) form of the nonlinear terms ---------------------------

def test_every_nonlinear_monomial_has_a_flux():
    nonlinear = {orders for terms in TERMS.values()
                 for _, _, orders in terms if len(orders) > 1}
    assert nonlinear <= set(FLUXES)


@pytest.mark.parametrize("orders", sorted(FLUXES))
def test_flux_derivative_is_the_monomial(orders):
    grid = Grid(-32.0, 64.0, 256)
    u, _ = RandomField(seed=3, amplitude=0.7).build(grid)
    d = {0: u.values, **{k: spectral_derivative(u, k).values for k in (1, 2, 3)}}
    monomial = np.prod([d[o] for o in orders], axis=0)
    flux = sum(w * np.prod([d[o] for o in flux_orders], axis=0)
               for w, flux_orders in FLUXES[orders])
    flux_x = spectral_derivative(Field(grid, flux), 1).values
    assert np.max(np.abs(flux_x - monomial)) <= 1e-12 * np.max(np.abs(monomial))


# --- the sign-inversion theorem, term by term ------------------------------------

MEDIA = st.builds(MediumParams,
                  alpha=st.floats(0.001, 10.0) | st.floats(-10.0, -0.001),
                  beta=st.floats(0.001, 10.0), tau=st.floats(0.0, 2.0),
                  delta=st.floats(-1.0, 1.0))


@settings(max_examples=200, deadline=None)
@given(params=MEDIA)
def test_every_term_is_odd_under_the_joint_flip(params):
    # a term of degree d in u picks up (-1)^d from u -> -u, so under
    # (u, alpha) -> (-u, -alpha) it is negated iff its coefficient picks up
    # (-1)^(d+1) from alpha -> -alpha, bit for bit
    flipped = params.flipped()
    for kind, terms in TERMS.items():
        for name, coefficient, orders in terms:
            sign = (-1.0) ** (len(orders) + 1)
            assert coefficient(flipped).hex() == (sign * coefficient(params)).hex(), \
                (kind, name)


@settings(max_examples=50, deadline=None)
@given(params=MEDIA, seed=st.integers(0, 2**32 - 1))
def test_bottom_coefficients_do_not_read_alpha(params, seed):
    # the depth term is linear in u, so it flips with u alone
    rng = np.random.default_rng(seed)
    pair = rng.uniform(-1.0, 1.0, (2, 16))
    for up, down in zip(bottom_coefficients(params, pair),
                        bottom_coefficients(params.flipped(), pair)):
        assert up.tobytes() == down.tobytes()


def _monomial(orders) -> tuple[int, ...]:
    return tuple(sorted(orders))


@pytest.mark.parametrize("orders", sorted(FLUXES))
def test_flux_expands_to_its_monomial_in_exact_arithmetic(orders):
    # d/dx of a product of derivatives, by Leibniz: each factor in turn
    # takes one more derivative; weights as the rationals they round
    expanded: dict[tuple[int, ...], Fraction] = {}
    for weight, flux_orders in FLUXES[orders]:
        exact = Fraction(weight).limit_denominator(100)
        assert float(exact) == weight
        for j in range(len(flux_orders)):
            term = _monomial(o + (i == j) for i, o in enumerate(flux_orders))
            expanded[term] = expanded.get(term, Fraction(0)) + exact
    assert {k: c for k, c in expanded.items() if c} == {_monomial(orders): Fraction(1)}


# --- what the closed forms pin of TERMS ------------------------------------------
#
# A residual is linear in the coefficients, R = sum_i c_i T_i(u), so a wrong
# coefficient vector c + dc is seen only where the stacked term values T see
# dc.  The directions they leave unseen, past the scale of the whole table
# (the true c), are each kind's unpinned directions; on a sech^2 soliton of
# amplitude A and width B every kdv2 term lies in span{S T, S^2 T, S^3 T}
# (S = sech^2(B xi), T = tanh(B xi)), which gives the three kdv2 relations.

def _scale(params, wave, kind):
    """The table itself: every solution's residual is zero."""
    return {"u_t": 1.0, **{name: c(params) for name, c, _ in TERMS[kind]}}


def _speed(params, wave, kind):
    """u_t = -v u_x on one travelling wave."""
    return {"u_t": 1.0, "u_x": wave.v}


def _kdv2_dispersion_3(params, wave, kind):
    """u_xxx = 4 B^2 u_x - (12 B^2/A) u u_x on a sech^2."""
    A, B = wave.A, wave.B
    return {"dispersion_3": 1.0, "u_x": -4.0 * B**2, "quadratic": 12.0 * B**2 / A}


def _kdv2_dispersion_5(params, wave, kind):
    """u_xxxxx = 16 B^4 u_x - (240 B^4/A) u u_x + (360 B^4/A^2) u^2 u_x on a sech^2."""
    A, B = wave.A, wave.B
    return {"dispersion_5": 1.0, "u_x": -16.0 * B**4, "quadratic": 240.0 * B**4 / A,
            "cubic": -360.0 * B**4 / A**2}


def _kdv2_cross(params, wave, kind):
    """u_x u_xx - u u_xxx = (6 B^2/A) u^2 u_x on a sech^2; the random-field
    law of test_kdv2_integral_of_u_squared_obeys_its_law_on_any_field sees it
    (c_cross1 - 2 c_cross2 moves by 3 along it)."""
    A, B = wave.A, wave.B
    return {"cross_1": 1.0, "cross_2": -1.0, "cubic": -6.0 * B**2 / A}


def _coverage_cases():
    """(kind, [(params, solution, grid)], stated rank, unpinned directions) per id."""
    by_kind: dict[EquationKind, list] = {}
    for _, kind, params, solution, grid in inversion.catalog(P):
        by_kind.setdefault(kind, []).append((params, solution, grid))
    pg = MediumParams(P.alpha, P.beta, tau=0.0)
    # grids scaled with the width, so no tail is cut at the edge
    widths = [(pg, make_gardner_soliton(pg, Delta), Grid(-40.0 * Delta, 80.0 * Delta, 1024))
              for Delta in (1.0, 1.5, 2.0, 3.0)]
    K = EquationKind
    return [
        pytest.param(K.KDV, by_kind[K.KDV], 3, [_scale], id="kdv"),
        pytest.param(K.KDV2, by_kind[K.KDV2], 3,
                     [_scale, _speed, _kdv2_dispersion_3, _kdv2_dispersion_5, _kdv2_cross],
                     id="kdv2"),
        pytest.param(K.FIFTH_ORDER, by_kind[K.FIFTH_ORDER], 3, [_scale, _speed],
                     id="fifth_order"),
        pytest.param(K.GARDNER, by_kind[K.GARDNER], 3, [_scale, _speed], id="gardner"),
        pytest.param(K.GARDNER, widths, 4, [_scale], id="gardner_widths"),
    ]


@pytest.mark.parametrize("kind,cases,rank,unpinned", _coverage_cases())
def test_the_closed_forms_pin_the_term_table_up_to_the_named_directions(kind, cases, rank,
                                                                         unpinned):
    # columns: u_t, then each term of the fixed-frame table with its
    # coefficient divided out, stacked over the cases; each scaled to unit norm
    names = ["u_t"] + [name for name, _, _ in TERMS[kind]]
    blocks = []
    for params, solution, grid in cases:
        u, ut = solution_fields(solution, params, grid)
        d = {0: u.values,
             **equations._spectral_diffs(u.values, grid, equations._required_orders(kind))}
        blocks.append([ut.values] + [np.prod([d[o] for o in orders], axis=0)
                                     for _, _, orders in TERMS[kind]])
    values = np.hstack(blocks).T
    norms = np.linalg.norm(values, axis=0)
    s = np.linalg.svd(values / norms, compute_uv=False)
    # measured at n = 1024: kept >= 3.1e-2 of the largest, dropped <= 1.9e-10
    assert int(np.sum(s > 1e-6 * s[0])) == rank
    params, wave, _ = cases[0]
    directions = np.array([[f(params, wave, kind).get(name, 0.0) for name in names]
                           for f in unpinned])
    # each named direction is unseen at the same threshold, and together
    # they span everything the stack leaves unseen
    for direction in directions * norms:
        seen = np.linalg.norm(values / norms @ direction)
        assert seen <= 1e-6 * s[0] * np.linalg.norm(direction)
    assert np.linalg.matrix_rank(directions) == len(unpinned) == len(names) - rank


@pytest.mark.parametrize("alpha", [0.3, -0.3])
@pytest.mark.parametrize("seed", range(6))
def test_kdv2_integral_of_u_squared_obeys_its_law_on_any_field(seed, alpha):
    # for every periodic u, by parts: -2 int u (the kdv2 terms but u_t)
    # = (c_cross1 - 2 c_cross2) int u_x^3 = (alpha beta/8) int u_x^3
    # (Karczewska, Rozmej, Infeld and Rowlands, Phys. Lett. A 381, 2017);
    # measured at most 1.6e-12 relative over these fields
    params = MediumParams(alpha, 0.2)
    grid = Grid(-20.0, 40.0, 512)
    u, ut = RandomField(seed).build(grid)
    d = equations._spectral_diffs(u.values, grid,
                                  equations._required_orders(EquationKind.KDV2))
    terms = equations.equation_terms(EquationKind.KDV2, params, Frame.FIXED, u.values, d,
                                     ut.values)
    rate = -2.0 * np.sum(u.values * sum(t for name, t in terms if name != "u_t"))
    law = params.alpha * params.beta / 8.0 * np.sum(d[1] ** 3)
    assert abs(rate - law) <= 1e-10 * abs(law)
