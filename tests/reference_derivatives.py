"""Reference derivatives that the tests check the package against.

spectral_derivative and fd8_derivative take one derivative of a Field
through the package's backends; time_derivative differentiates any
profile in t by finite differences; profile_derivatives reads the exact
profile rows the fits use; fd8_roll_diffs sums the fd8 stencils over one
rolled copy per tap; mirrored_residual is the residual of the negated pair
under the alpha-negated equation, one case at a time, and negative_control
that of the negated pair with alpha kept; period_mean samples a periodic
wave's mean over one period, less the first-order error of its rounded
span; sum_terms_reference is the residual sum and
scale as first written, one new array per addition; and gardner_derivatives
takes a Gardner wave's rows and their B and Delta derivatives by the Leibniz
recursion of u w = A, independently of the package's monomial chain.
"""
from __future__ import annotations

import math

import mpmath
import numpy as np

from kdvwaves.equations import (EquationId, Field, Grid, ResidualReport, _fd8_diffs,
                                 _fd8_stencil, _spectral_diffs, residual)
from kdvwaves.fitting import AnsatzFamily, _scaled, _unit_rows
from kdvwaves.inversion import _negated
from kdvwaves.waves import MediumParams, TravellingWave, WaveFamily

DERIVATIVE_ORDERS = (1, 2, 3, 5)


def _check_order(order: int):
    if order not in DERIVATIVE_ORDERS:
        raise ValueError(f"derivative order must be one of {DERIVATIVE_ORDERS}, got {order!r}")


def spectral_derivative(f: Field, order: int) -> Field:
    """Fourier-collocation derivative of the given order (1, 2, 3 or 5)."""
    _check_order(order)
    return Field(f.grid, _spectral_diffs(f.values, f.grid, (order,))[order], f.time)


def fd8_derivative(f: Field, order: int) -> Field:
    """Centred finite-difference derivative (>= 8th order), periodic wrap."""
    _check_order(order)
    return Field(f.grid, _fd8_diffs(f.values, f.grid, (order,))[order], f.time)


# 8th-order centred stencil; with h = 0.01 truncation and roundoff balance
# near 1e-13 for order-one amplitudes and speeds.
_FD8_OFFSETS = (-4, -3, -2, -1, 1, 2, 3, 4)
_FD8_WEIGHTS = (1 / 280, -4 / 105, 1 / 5, -4 / 5, 4 / 5, -1 / 5, 4 / 105, -1 / 280)


def time_derivative(profile_fn, x, t: float, h: float = 0.01):
    """d/dt of profile_fn(x, t) by an 8th-order centred difference.

    The reference that the ladders' exact u_t is tested against.  The
    stencil is sign-symmetric, so a negated profile yields the exactly
    negated derivative.
    """
    acc = _FD8_WEIGHTS[0] * profile_fn(x, t + _FD8_OFFSETS[0] * h)
    for k, w in zip(_FD8_OFFSETS[1:], _FD8_WEIGHTS[1:]):
        acc = acc + w * profile_fn(x, t + k * h)
    return acc / h


def profile_derivatives(ansatz: AnsatzFamily, xi: np.ndarray,
                        values: dict[str, float]) -> dict[int, np.ndarray]:
    """f, f', ..., f^(6) of the ansatz at the given xi, exactly."""
    return dict(enumerate(_scaled(values, _unit_rows(ansatz, xi, values)[1])))


def fd8_roll_diffs(values: np.ndarray, grid: Grid, orders) -> dict[int, np.ndarray]:
    """{order: derivative} from the fd8 stencils, each tap an np.roll of the
    values: the same taps, weights and summation order as the package's
    sliced sums, so the two agree bit for bit."""
    def stencil_sum(order):
        offsets, weights = _fd8_stencil(order)
        return sum(w * np.roll(values, -off) for off, w in zip(offsets, weights) if w != 0.0)
    return {o: stencil_sum(o) / grid.dx**o for o in orders}


def mirrored_residual(u: Field, ut: Field, eq: EquationId,
                      params: MediumParams) -> ResidualReport:
    """Residual of the negated pair under the alpha-negated equation."""
    return residual(*_negated(u, ut), eq, params.flipped())[0]


def negative_control(u: Field, ut: Field, eq: EquationId, params: MediumParams,
                     backend: str = "spectral") -> ResidualReport:
    """Residual of the negated pair with alpha left unchanged.

    For any genuinely nonlinear solution this must NOT be small: the
    quadratic term keeps its sign while the rest flips, so the residual
    is of the order of the quadratic term itself.  A small value here
    would mean the inversion checks were passing vacuously.
    """
    return residual(*_negated(u, ut), eq, params, backend=backend)[0]


def period_mean(wave: TravellingWave, n_samples: int = 256) -> float:
    """Profile mean over one period by the rectangle rule, which is
    spectrally exact for a smooth periodic profile.

    The samples span L = wavelength(), the rounded period, so their mean
    is the mean over the true period P plus eps (f(0) - mean), with
    eps = (L - P)/P, to first order; that term is taken off with P from
    mpmath at 30 digits (2K/B for cn^2, 4K/B for the superpositions).
    """
    span = wave.wavelength()
    xi = span * np.arange(n_samples) / n_samples
    sampled = float(np.mean(wave.profile(xi)))
    with mpmath.workdps(30):
        periods = 2 if wave.family is WaveFamily.KDV_CNOIDAL else 4
        period = periods * mpmath.ellipk(wave.m) / abs(wave.B)
        eps = float((span - period) / period)
    return sampled - eps * (float(wave.profile(0.0)) - sampled)


def sum_terms_reference(terms: list[tuple[str, np.ndarray]]):
    """(sum, scale) of equations.sum_terms, as first written: a new array
    per addition and one |t| temporary and one maximum per term."""
    res = terms[0][1]
    for _, t in terms[1:]:
        res = res + t
    return res, np.max([np.max(np.abs(t), axis=-1) for _, t in terms], axis=0)


def gardner_derivatives(wave: TravellingWave, xi: np.ndarray, order: int):
    """(rows, d rows/dB, d rows/dDelta) of a Gardner wave at a 1-D xi: its
    f ... f^(order), and the B and Delta derivatives of f ... f^(order-1),
    as TravellingWave.width_derivatives returns them.

    With w = 1 + B cosh(xi/Delta), Leibniz's rule on u w = A gives each
    u^(k) from the lower ones, and on d/dB of the same, (du/dB) w =
    -cosh(xi/Delta) u, each B derivative.  Where cosh overflows, or its
    multiples in the sums do just short of that, the rows past 0 read their
    limit 0.
    """
    B, Delta = wave.B, wave.Delta
    powers = [Delta**j for j in range(order + 1)]
    with np.errstate(over="ignore", invalid="ignore"):
        z = xi / Delta
        hyp = (np.cosh(z), np.sinh(z))
        w = [1.0 + B * hyp[0]] + [B * hyp[j % 2] / powers[j] for j in range(1, order + 1)]
        rows = _leibniz_quotient(w, [wave.A] + [0.0] * order)
        ch = [hyp[j % 2] / powers[j] for j in range(order)]
        source = -np.array([sum(math.comb(n, j) * ch[j] * rows[n - j] for j in range(n + 1))
                            for n in range(order)])
    # inf * 0 in the tail, where the limit is 0
    bad = ~np.isfinite(source)
    if bad.any():
        source[bad & _overflow_band(ch, order - 1)] = 0.0
    k = np.arange(order)[:, None]
    stretch = k * rows[:-1] + xi * rows[1:]
    rows[0] += wave.D
    return rows, _leibniz_quotient(w, source), -stretch / Delta


def _leibniz_quotient(w: list[np.ndarray], source) -> np.ndarray:
    """Rows y^(k) with sum_{j<=k} C(k, j) w^(j) y^(k-j) = source_k: the
    derivatives of y = s / w, from w's derivatives and those of s.  Where
    w is inf, or a product C(k, j) w^(j) overflows just short of that, the
    rows past 0 read their limit 0."""
    rows = []
    with np.errstate(over="ignore", invalid="ignore"):
        for k, acc in enumerate(source):
            for j in range(1, k + 1):
                acc = acc - math.comb(k, j) * w[j] * rows[k - j]
            rows.append(acc / w[0])
    rows = np.array(rows)
    bad = ~np.isfinite(rows[1:])
    if bad.any():
        rows[1:][bad & _overflow_band(w, len(rows) - 1)] = 0.0
    return rows


def _overflow_band(w: list[np.ndarray], order: int) -> np.ndarray:
    """Where some C(k, j) w[j], k <= order, overflows; C(order, j) is the largest."""
    with np.errstate(over="ignore"):
        return np.any([np.isinf(math.comb(order, j) * w[j]) for j in range(order + 1)], 0)
