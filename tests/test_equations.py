"""Residual operators, derivative backends, and the bottom profile."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from kdvwaves.equations import (
    FLUXES,
    TERMS,
    BottomProfile,
    EquationId,
    EquationKind,
    Field,
    Grid,
    bottom_eval,
    fd8_derivative,
    residual,
    spectral_derivative,
    travelling_residual,
)
from kdvwaves.inversion import RandomField
from kdvwaves.waves import (
    Frame,
    MediumParams,
    make_gardner_soliton,
    make_kdv2_soliton,
    make_kdv_cnoidal,
    make_kdv_soliton,
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


# --- grids and fields -----------------------------------------------------------

def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(0.0, -1.0, 64)
    with pytest.raises(ValueError):
        Grid(0.0, 10.0, 15)   # odd
    with pytest.raises(ValueError):
        Grid(0.0, 10.0, 8)    # too small


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


def test_residual_report_flags_reversed_dispersion():
    p = MediumParams(alpha=0.1, beta=0.1, tau=0.4)
    grid = Grid(-20.0, 40.0, 256)
    u = Field(grid, 0.1 * np.exp(-grid.x ** 2))
    ut = Field(grid, np.zeros(grid.n))
    report, _ = residual(u, ut, EquationId(EquationKind.GARDNER), p)
    assert "dispersion_sign_change" in report.flags


@settings(max_examples=25, deadline=None)
@given(d=st.floats(-0.5, 0.5), t=st.floats(-5.0, 5.0))
def test_pedestal_shift_invariance(d, t):
    """Lifting a solution by a constant and boosting its speed by
    (3 alpha / 2) * the lift leaves the residual at roundoff."""
    from dataclasses import replace

    w = make_kdv_cnoidal(P, 1.0, 0.8)
    shifted = replace(w, D=w.D + d, v=w.v + 1.5 * P.alpha * d)
    grid = Grid(0.0, w.wavelength(), 512)
    report, _ = travelling_residual(shifted, EquationId(EquationKind.KDV), P,
                                    grid, t=t, tolerance=1e-9)
    assert report.passed


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
