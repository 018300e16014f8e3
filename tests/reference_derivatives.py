"""Reference derivatives that the tests check the package against.

spectral_derivative and fd8_derivative take one derivative of a Field
through the package's backends; time_derivative differentiates any
profile in t by finite differences; profile_derivatives reads the exact
profile rows the fits use; fd8_roll_diffs sums the fd8 stencils over one
rolled copy per tap; mirrored_residual is the residual of the negated pair
under the alpha-negated equation, one case at a time.
"""
from __future__ import annotations

import numpy as np

from kdvwaves.equations import (EquationId, Field, Grid, ResidualReport, _fd8_diffs,
                                 _fd8_stencil, _spectral_diffs, residual)
from kdvwaves.fitting import AnsatzFamily, _scaled, _unit_rows
from kdvwaves.inversion import _negated
from kdvwaves.waves import MediumParams

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
