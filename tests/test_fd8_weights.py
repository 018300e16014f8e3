"""The fd8 stencils: exact rational weights, each rounded once."""

import math
from fractions import Fraction

import numpy as np
import pytest

from kdvwaves.equations import (EquationId, EquationKind, Grid, _fd8_diffs, _fd8_stencil,
                                travelling_residual)
from kdvwaves.waves import MediumParams, make_kdv2_soliton


def _exact_weights(order: int, offsets) -> list[Fraction]:
    """The weights that differentiate every polynomial of degree < len(offsets)
    exactly: the moment system sum_j w_j j^k = order! [k == order], solved by
    Gauss-Jordan elimination in rationals."""
    n = len(offsets)
    rows = [[Fraction(j) ** k for j in offsets] + [Fraction(math.factorial(order) * (k == order))]
            for k in range(n)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rows[col] = [a / rows[col][col] for a in rows[col]]
        for r in range(n):
            if r != col and rows[r][col] != 0:
                rows[r] = [a - rows[r][col] * b for a, b in zip(rows[r], rows[col])]
    return [row[-1] for row in rows]


@pytest.mark.parametrize("order,half", [(1, 5), (2, 5), (3, 6), (4, 6), (5, 7)])
def test_stencil_offsets_keep_their_half_widths(order, half):
    offsets, weights = _fd8_stencil(order)
    assert offsets.tolist() == list(range(-half, half + 1))
    assert weights.dtype == np.float64 and weights.shape == offsets.shape


@pytest.mark.parametrize("order", [1, 2, 3, 5])
def test_every_weight_is_its_exact_value_correctly_rounded(order):
    offsets, weights = _fd8_stencil(order)
    # float(Fraction) is the correctly rounded value of the rational
    assert weights.tolist() == [float(w) for w in _exact_weights(order, offsets.tolist())]


@pytest.mark.parametrize("order", [1, 3, 5])
def test_odd_stencils_are_antisymmetric_bit_for_bit_with_a_zero_centre(order):
    _, weights = _fd8_stencil(order)
    half = len(weights) // 2
    assert weights[half] == 0.0
    assert weights[::-1].tolist() == (-weights).tolist()


def test_first_derivative_weights_match_their_closed_form():
    # (-1)^(j+1) (5!)^2 / (j (5-j)! (5+j)!) for j = -5 .. 5, j != 0
    offsets, weights = _fd8_stencil(1)
    for j, w in zip(offsets.tolist(), weights.tolist()):
        if j:
            exact = Fraction((-1) ** ((j + 1) % 2) * math.factorial(5) ** 2,
                             j * math.factorial(5 - j) * math.factorial(5 + j))
            assert w == float(exact), j


def test_fifth_derivative_of_a_constant_is_roundoff_of_the_weights():
    grid = Grid(0.0, 64.0, 1024)
    d5 = _fd8_diffs(np.ones(grid.n), grid, (5,))[5]
    # the weights sum to zero exactly; rounding each once leaves ~1e-16
    assert np.max(np.abs(d5)) <= 1e-14 / grid.dx**5


def test_kdv2_soliton_fd8_residual_sits_at_the_weights_roundoff():
    params = MediumParams(0.1, 0.1)
    report, _ = travelling_residual(make_kdv2_soliton(params), EquationId(EquationKind.KDV2),
                                    params, Grid(-40.0, 80.0, 4096), backend="fd8")
    assert report.relative <= 3e-9
