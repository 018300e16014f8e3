"""Periodic grids, derivative backends and residual operators.

The term table `TERMS` is the single statement of the four long-wave
equations; residuals, fits and the ETDRK4 stepper all read it.  Written
out, with a = alpha, b = beta, b' = (1 - 3 tau) b / 6 and
b5 = (19 - 30 tau - 45 tau^2) b^2 / 360:

    kdv:         u_t + u_x + (3/2) a u u_x + (b/6) u_xxx
    kdv2:        kdv + second-order corrections (cubic, a*b cross terms,
                 19/360 b^2 u_xxxxx)
    fifth_order: u_t + u_x + (3/2) a u u_x + b' u_xxx + b5 u_xxxxx
    gardner:     u_t + u_x + (3/2) a u u_x - (3/8) a^2 u^2 u_x + b' u_xxx

An uneven bottom h(x) (piecewise linear, so h_xx = 0) contributes
-(delta/4)(2 h u_x + h_x u).  In the moving frame x - t the bare u_x
term is absent.

Every term of every residual is assembled from sign-symmetric primitives,
so negating (u, u_t, alpha) negates the residual bitwise.  That exactness
is what the inversion harness measures.

`solution_fields` is the one path from a catalog solution (wave or ladder)
to its (u, u_t), so every command that checks a case checks the same pair.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from typing import Callable

import numpy as np
# np.fft.irfft/rfft's own gufuncs (numpy >= 2.0; Grid n is even): the same bits
# without np.fft's argument handling, which costs a transform's time at n = 256
from numpy.fft._pocketfft_umath import irfft as _irfft, rfft_n_even as _rfft

from .waves import Frame, MediumParams, SolitonLadder, TravellingWave

__all__ = [
    "EquationKind",
    "TERMS",
    "FLUXES",
    "Grid",
    "Field",
    "BottomProfile",
    "EquationId",
    "ResidualReport",
    "SOLUTION_TOL",
    "bottom_eval",
    "residual",
    "solution_fields",
    "travelling_residual",
    "equation_terms",
    "linearised_terms",
]

# the relative residual under which (u, u_t) counts as a solution
SOLUTION_TOL = 1e-8


class EquationKind(Enum):
    KDV = "kdv"
    KDV2 = "kdv2"
    FIFTH_ORDER = "fifth_order"
    GARDNER = "gardner"


Term = tuple[str, Callable[[MediumParams], float], tuple[int, ...]]

_ADVECTION: Term = ("u_x", lambda p: 1.0, (1,))
_QUADRATIC: Term = ("quadratic", lambda p: 1.5 * p.alpha, (0, 1))
_CUBIC: Term = ("cubic", lambda p: -0.375 * p.alpha * p.alpha, (0, 0, 1))
_KDV_DISPERSION: Term = ("dispersion_3", lambda p: p.beta / 6.0, (3,))
_TENSION_DISPERSION: Term = ("dispersion_3", MediumParams.beta_prime, (3,))

# One ordered table per kind of (name, coefficient(params), derivative
# orders).  A term is its coefficient times the product of those
# derivatives of u (order 0 is u): one factor makes it linear, more make
# it nonlinear.  Residuals sum the terms in table order.
TERMS: dict[EquationKind, tuple[Term, ...]] = {
    EquationKind.KDV: (_ADVECTION, _QUADRATIC, _KDV_DISPERSION),
    # transcribed from Karczewska, Rozmej and Rutkowski, Phys. Scr. 89, 054026
    # (2014); the soliton's term values reach rank 3 of these 8 columns (u_t too)
    EquationKind.KDV2: (
        _ADVECTION, _QUADRATIC, _KDV_DISPERSION, _CUBIC,
        ("cross_1", lambda p: p.alpha * p.beta * (23.0 / 24.0), (1, 2)),
        ("cross_2", lambda p: p.alpha * p.beta * (5.0 / 12.0), (0, 3)),
        ("dispersion_5", lambda p: 19.0 / 360.0 * p.beta * p.beta, (5,)),
    ),
    EquationKind.FIFTH_ORDER: (
        _ADVECTION, _QUADRATIC, _TENSION_DISPERSION,
        ("dispersion_5", MediumParams.beta5, (5,)),
    ),
    EquationKind.GARDNER: (_ADVECTION, _QUADRATIC, _TENSION_DISPERSION, _CUBIC),
}


# Antiderivatives of the nonlinear monomials of TERMS, keyed by their
# derivative orders: the monomial is d/dx of the sum of weight times the
# product of the flux orders' derivatives (conservative form).
FLUXES: dict[tuple[int, ...], tuple[tuple[float, tuple[int, ...]], ...]] = {
    (0, 1): ((0.5, (0, 0)),),                      # u u_x = (u^2/2)_x
    (0, 0, 1): ((1.0 / 3.0, (0, 0, 0)),),          # u^2 u_x = (u^3/3)_x
    (1, 2): ((0.5, (1, 1)),),                      # u_x u_xx = (u_x^2/2)_x
    (0, 3): ((1.0, (0, 2)), (-0.5, (1, 1))),       # u u_xxx = (u u_xx - u_x^2/2)_x
}


def equation_table(kind: EquationKind, frame: Frame) -> tuple[Term, ...]:
    """The kind's terms in the given frame; the moving frame drops the bare u_x."""
    if frame is Frame.MOVING:
        return tuple(t for t in TERMS[kind] if t is not _ADVECTION)
    return TERMS[kind]


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid: n points on [x0, x0 + length), right end excluded."""

    x0: float
    length: float
    n: int

    def __post_init__(self):
        for name, value in (("x0", self.x0), ("length", self.length)):
            if not math.isfinite(value):
                raise ValueError(f"Grid.{name} must be finite, got {value!r}")
        if self.length <= 0.0:
            raise ValueError(f"Grid.length must be positive, got {self.length!r}")
        if self.n < 16 or self.n % 2 != 0:
            raise ValueError(f"Grid.n must be an even integer >= 16, got {self.n!r}")

    @property
    def dx(self) -> float:
        return self.length / self.n

    @property
    def x(self) -> np.ndarray:
        return self.x0 + self.dx * np.arange(self.n)

    def derivative_multiplier(self, order: int) -> np.ndarray:
        """(ik)^order on the rfft modes, numpy's complex power (1j * k) ** order;
        odd orders zero the unmatched Nyquist mode, which carries no odd
        derivative.  Built once per (n, dx, order): every equal grid gets the
        same read-only array."""
        return _multiplier(self.n, self.dx, order)


@lru_cache(maxsize=64)
def _multiplier(n: int, dx: float, order: int) -> np.ndarray:
    mult = (1j * (2.0 * math.pi * np.fft.rfftfreq(n, d=dx))) ** order
    if order % 2 == 1:
        mult[-1] = 0.0
    mult.flags.writeable = False
    return mult


@dataclass
class Field:
    """Grid samples of one scalar profile at one time."""

    grid: Grid
    values: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.n,):
            raise ValueError(
                f"Field.values shape {self.values.shape} does not match grid n={self.grid.n}")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("Field.values must be finite")


@dataclass(frozen=True)
class BottomProfile:
    """Piecewise-linear bottom h(x), periodically extended.

    Knots are (x, h) pairs with strictly increasing x spanning less than
    one period; the segment from the last knot back to the first (shifted
    by the period) closes the profile, so h is continuous and h_xx = 0
    away from knots.  At a knot the slope of the right-hand segment is
    used.  |h| <= 1 keeps the bottom within the long-wave ordering.
    """

    knots: tuple[tuple[float, float], ...]

    def __post_init__(self):
        knots = tuple((float(x), float(h)) for x, h in self.knots)
        object.__setattr__(self, "knots", knots)
        if len(knots) < 2:
            raise ValueError("BottomProfile needs at least 2 knots")
        for knot in knots:
            if not all(map(math.isfinite, knot)):
                raise ValueError(f"BottomProfile.knots must be finite, got {knot!r}")
        xs = [x for x, _ in knots]
        if any(b <= a for a, b in zip(xs, xs[1:])):
            raise ValueError("BottomProfile knot positions must increase strictly")
        if any(abs(h) > 1.0 for _, h in knots):
            raise ValueError("BottomProfile requires |h| <= 1")


@dataclass(frozen=True)
class EquationId:
    kind: EquationKind
    frame: Frame = Frame.FIXED
    bottom: BottomProfile | None = None

    def label(self) -> str:
        parts = [self.kind.value, self.frame.value]
        if self.bottom is not None:
            parts.append("bottom")
        return "/".join(parts)


@dataclass(frozen=True)
class ResidualReport:
    equation: str
    norm_inf: float
    norm_2: float
    scale: float
    relative: float
    passed: bool
    tolerance: float
    flags: tuple[str, ...] = field(default=())


def _spectral_diffs(values: np.ndarray, grid: Grid, orders) -> dict[int, np.ndarray]:
    """{order: derivative} of the rows along the last axis of values, from
    one rfft and one irfft of the stacked (ik)^o multiples."""
    coeffs = _rfft(values, 1.0, np.empty(values.shape[:-1] + (grid.n // 2 + 1,), dtype=complex))
    rows = np.empty((len(orders),) + coeffs.shape, dtype=complex)
    for row, o in zip(rows, orders):
        np.multiply(grid.derivative_multiplier(o), coeffs, out=row)
    return dict(zip(orders, _irfft(rows, 1.0 / grid.n, np.empty(rows.shape[:-1] + (grid.n,)))))


@lru_cache(maxsize=None)
def _fd8_stencil(order: int) -> tuple[np.ndarray, np.ndarray]:
    """(offsets, weights) of the centred d^order/dx^order stencil at unit
    spacing; half-width (order + 9) // 2 makes it at least 8th-order.

    Weight j, the order-th derivative at 0 of the Lagrange basis polynomial
    prod_{i != j} (x - i)/(j - i), is order! times the numerator's x^order
    coefficient over the denominator: exact integers, so one correctly
    rounded division.  Odd stencils are antisymmetric bit for bit, centre 0.
    """
    half = (order + 9) // 2
    offsets = range(-half, half + 1)
    weights = []
    for j in offsets:
        poly, denominator = [1], 1      # prod (x - i) over i != j, lowest power first
        for i in offsets:
            if i != j:
                poly = [a - i * b for a, b in zip([0] + poly, poly + [0])]
                denominator *= j - i
        weights.append(math.factorial(order) * poly[order] / denominator)
    return np.array(offsets), np.array(weights)


def _fd8_diffs(values: np.ndarray, grid: Grid, orders) -> dict[int, np.ndarray]:
    """{order: derivative} of the rows along the last axis of values, one
    periodic stencil sum per order; each tap is a slice of one copy of the
    rows padded by the widest half-width."""
    pad = max(_fd8_stencil(o)[0][-1] for o in orders)
    padded = np.concatenate((values[..., -pad:], values, values[..., :pad]), axis=-1)

    def stencil_sum(order):
        offsets, weights = _fd8_stencil(order)
        return sum(w * padded[..., pad + off:pad + off + grid.n]
                   for off, w in zip(offsets, weights) if w != 0.0)
    return {o: stencil_sum(o) / grid.dx**o for o in orders}


def derivative_set(backend: str):
    """The backend's derivative set: (values, grid, orders) -> {order: rows}."""
    backends = {"fd8": _fd8_diffs, "spectral": _spectral_diffs}
    if backend not in backends:
        raise ValueError(f"backend must be one of {list(backends)}, got {backend!r}")
    return backends[backend]


@lru_cache(maxsize=64)
def bottom_eval(bottom: BottomProfile, grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """(h, h_x) of the periodically extended bottom on grid points.

    h_x comes from the analytic segment slopes, never from differentiating
    samples, so it is exact up to the knot discontinuities.  Sampled once
    per equal (bottom, grid) pair: each call returns the same read-only arrays.
    """
    px = np.array([x for x, _ in bottom.knots])
    ph = np.array([h for _, h in bottom.knots])
    if px[-1] - px[0] >= grid.length:
        raise ValueError("BottomProfile knots must span less than one period")
    # wrap-around segment closes the period
    px_ext = np.append(px, px[0] + grid.length)
    ph_ext = np.append(ph, ph[0])
    xr = px[0] + np.mod(grid.x - px[0], grid.length)
    idx = np.clip(np.searchsorted(px_ext, xr, side="right") - 1, 0, len(px_ext) - 2)
    slope = (ph_ext[idx + 1] - ph_ext[idx]) / (px_ext[idx + 1] - px_ext[idx])
    h = ph_ext[idx] + slope * (xr - px_ext[idx])
    h.flags.writeable = slope.flags.writeable = False
    return h, slope


def _required_orders(kind: EquationKind) -> list[int]:
    return sorted({o for _, _, orders in TERMS[kind] for o in orders if o})


def bottom_coefficients(params: MediumParams, bottom_pair) -> tuple[np.ndarray, np.ndarray]:
    """(c_ux, c_u) = ((delta/2) h, (delta/4) h_x): the bottom term is -(c_ux u_x + c_u u)."""
    h, hx = bottom_pair
    return 0.5 * params.delta * h, 0.25 * params.delta * hx


def equation_terms(kind: EquationKind, params: MediumParams, frame: Frame,
                   u: np.ndarray, derivs: dict[int, np.ndarray], u_t: np.ndarray,
                   bottom_pair: tuple[np.ndarray, np.ndarray] | None = None,
                   ) -> list[tuple[str, np.ndarray]]:
    """Named residual terms; their sum is the equation's left-hand side."""
    terms = [("u_t", u_t)]
    for name, coefficient, (first, *rest) in equation_table(kind, frame):
        value = coefficient(params) * (derivs[first] if first else u)
        for o in rest:
            value *= derivs[o] if o else u
        terms.append((name, value))
    if bottom_pair is not None:
        c_ux, c_u = bottom_coefficients(params, bottom_pair)
        terms.append(("bottom", -(c_ux * derivs[1] + c_u * u)))
    return terms


def linearised_terms(kind: EquationKind, params: MediumParams, frame: Frame,
                     derivs: np.ndarray, perturbation: np.ndarray,
                     perturbation_t: np.ndarray) -> np.ndarray:
    """The residual's derivative along a perturbation of u: perturbation_t,
    the perturbation of u_t, plus sum over terms of
    c sum_j prod_{i != j} u^(o_i) du^(o_j).

    derivs[o] and perturbation[o] are the o-th derivatives of u and of the
    perturbation, order 0 the fields themselves; the perturbation rows may
    carry a leading axis of directions, which the result keeps.
    """
    out = perturbation_t
    for _, coefficient, orders in equation_table(kind, frame):
        c = coefficient(params)
        for j in range(len(orders)):
            value = c
            for i, o in enumerate(orders):
                value = value * (perturbation[o] if i == j else derivs[o])
            out = out + value
    return out


def sum_terms(terms: list[tuple[str, np.ndarray]]) -> tuple[np.ndarray, float | np.ndarray]:
    """(sum of the terms, largest magnitude any single term reaches); for
    terms stacked as rows, that magnitude row by row.  The sum is a new
    array, accumulated in table order; no term is written."""
    res = terms[0][1] + terms[1][1]
    for _, t in terms[2:]:
        res += t
    magnitude = np.empty_like(res)
    scale = np.abs(terms[0][1], out=magnitude).max(axis=-1)
    for _, t in terms[1:]:
        scale = np.maximum(scale, np.abs(t, out=magnitude).max(axis=-1))
    return res, scale


def _tau_flags(kind: EquationKind, params: MediumParams) -> tuple[str, ...]:
    if kind in (EquationKind.FIFTH_ORDER, EquationKind.GARDNER) and params.tau > 1.0 / 3.0:
        return ("dispersion_sign_change",)
    return ()


def relative_residual(norm_inf: float, scale: float) -> float:
    """norm_inf over scale, the largest single term; 0.0 at a zero scale,
    where every term vanishes (residual_report fails it as zero_field)."""
    return float(norm_inf / scale) if scale > 0.0 else 0.0


def residual_report(equation: str, res: np.ndarray, scale: float, dx: float,
                    tolerance: float, flags: tuple[str, ...] = ()) -> ResidualReport:
    """The report of a residual field whose largest single term reaches scale."""
    norm_inf = float(np.max(np.abs(res)))
    relative, zero = relative_residual(norm_inf, scale), not scale > 0.0
    with np.errstate(over="ignore"):
        norm_2 = math.sqrt(dx * np.sum(res * res))
    if math.isinf(norm_2) and math.isfinite(norm_inf):
        # the squares overflow past |res| ~ 1e154: sum them scaled by norm_inf
        norm_2 = norm_inf * math.sqrt(dx * np.sum(np.square(res / norm_inf)))
    return ResidualReport(equation=equation, norm_inf=norm_inf,
                          norm_2=norm_2, scale=scale,
                          relative=relative, passed=bool(not zero and relative <= tolerance),
                          tolerance=tolerance, flags=flags + ("zero_field",) * zero)


def residual_rows(u: np.ndarray, u_t: np.ndarray, derivs: dict[int, np.ndarray],
                  eq: EquationId, params: MediumParams, grid: Grid,
                  ) -> tuple[np.ndarray, float | np.ndarray]:
    """(residual, scale) of u and u_t on the grid, given u's derivative set;
    rows stacked along a leading axis get one scale each (see sum_terms)."""
    bottom_pair = bottom_eval(eq.bottom, grid) if eq.bottom is not None else None
    return sum_terms(equation_terms(eq.kind, params, eq.frame, u, derivs,
                                    u_t=u_t, bottom_pair=bottom_pair))


def residual(u: Field, u_t: Field, eq: EquationId, params: MediumParams,
             tolerance: float = SOLUTION_TOL, backend: str = "spectral",
             ) -> tuple[ResidualReport, Field]:
    """Pointwise residual of (u, u_t) under the given equation.

    The report's scale is the largest magnitude reached by any single
    term on the grid; `relative` is norm_inf/scale, and `passed` compares
    it against the tolerance.  Returns the report and the residual field.
    """
    diffs = derivative_set(backend)
    if u.grid != u_t.grid:
        raise ValueError("u and u_t must share a grid")
    return _report(u, u_t, diffs(u.values, u.grid, _required_orders(eq.kind)), eq,
                   params, tolerance)


def _report(u: Field, u_t: Field, derivs: dict[int, np.ndarray], eq: EquationId,
            params: MediumParams, tolerance: float) -> tuple[ResidualReport, Field]:
    """residual's report and field, given u's derivative set."""
    res, scale = residual_rows(u.values, u_t.values, derivs, eq, params, u.grid)
    report = residual_report(eq.label(), res, scale, u.grid.dx, tolerance,
                             _tau_flags(eq.kind, params))
    return report, Field(u.grid, res, u.time)


def _fields_and_diffs(solution: TravellingWave | SolitonLadder, params: MediumParams,
                      grid: Grid, t: float, frame: Frame, orders=(),
                      ) -> tuple[Field, Field, dict[int, np.ndarray] | None]:
    """(u, u_t, spectral derivative set of u) of a catalog solution.

    A ladder's u_t is its exact tau-function derivative, and it has no
    set (None).  A travelling wave's u_t is -v u_x, with u_x row 1 of one
    spectral set over {1} and the given orders: one rfft and one stacked
    irfft, each row equal to its own transform pair bit for bit.
    """
    if isinstance(solution, SolitonLadder):
        u, ut = solution.fields(grid.x, t, params, frame)
        return Field(grid, u, t), Field(grid, ut, t), None
    u = Field(grid, solution.evaluate(grid.x, t, params, frame), t)
    # The exact profile rows would give u_x as well, with residuals within
    # 0.5% of these on every catalog case, but at n = 8192 their derivative
    # chain's temporaries cost more time and peak memory than one FFT pair.
    derivs = _spectral_diffs(u.values, grid, sorted({1, *orders}))
    return u, Field(grid, -solution.speed_in(frame) * derivs[1], t), derivs


def solution_fields(solution: TravellingWave | SolitonLadder, params: MediumParams,
                    grid: Grid, t: float = 0.0, frame: Frame = Frame.FIXED,
                    ) -> tuple[Field, Field]:
    """(u, u_t) of a catalog solution at time t in `frame`.

    A ladder's u_t is its exact tau-function derivative.  A travelling
    wave's is -v u_x with the spectral u_x, whatever backend the residual
    then takes, so every command that checks a wave checks the same pair
    (travelling_residual takes the residual's spectral derivatives from the
    transform that gave u_x).
    """
    return _fields_and_diffs(solution, params, grid, t, frame)[:2]


def travelling_residual(solution: TravellingWave | SolitonLadder, eq: EquationId,
                        params: MediumParams, grid: Grid, t: float = 0.0,
                        tolerance: float = SOLUTION_TOL, backend: str = "spectral",
                        ) -> tuple[ResidualReport, Field]:
    """Residual of a catalog solution's (u, u_t) from solution_fields.

    Bit for bit residual(*solution_fields(...)).  On the spectral backend
    a travelling wave is transformed once: the rfft that gives its u_x
    gives the equation's derivative set too.  A ladder, or any solution
    on fd8, takes its derivative set from residual's backend.

    Any solution may be checked against any flat-bottom equation (a
    mismatched pair is simply reported as failing); a bottom profile is
    rejected because neither a uniformly travelling profile nor a ladder
    solves the variable-depth equations.
    """
    if eq.bottom is not None:
        raise ValueError("catalog solutions assume a flat bottom; "
                         "evaluate residual() directly for bottom terms")
    diffs, orders = derivative_set(backend), _required_orders(eq.kind)
    spectral = diffs is _spectral_diffs
    u, u_t, derivs = _fields_and_diffs(solution, params, grid, t, eq.frame,
                                       orders if spectral else ())
    if derivs is None or not spectral:
        derivs = diffs(u.values, grid, orders)
    return _report(u, u_t, derivs, eq, params, tolerance)
