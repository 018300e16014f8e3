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
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from typing import Callable

import numpy as np

from .waves import Frame, MediumParams, TravellingWave

__all__ = [
    "EquationKind",
    "TERMS",
    "FLUXES",
    "Grid",
    "Field",
    "BottomProfile",
    "EquationId",
    "ResidualReport",
    "spectral_derivative",
    "fd8_derivative",
    "bottom_eval",
    "residual",
    "travelling_residual",
    "equation_terms",
]

DERIVATIVE_ORDERS = (1, 2, 3, 5)


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
        """(ik)^order on the rfft modes; odd orders zero the unmatched
        Nyquist mode, which carries no odd derivative."""
        k = 2.0 * math.pi * np.fft.rfftfreq(self.n, d=self.dx)
        mult = (1j * k) ** order
        if order % 2 == 1:
            mult[-1] = 0.0
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


def _check_order(order: int):
    if order not in DERIVATIVE_ORDERS:
        raise ValueError(f"derivative order must be one of {DERIVATIVE_ORDERS}, got {order!r}")


def spectral_derivative(f: Field, order: int) -> Field:
    """Fourier-collocation derivative of the given order (1, 2, 3 or 5)."""
    _check_order(order)
    return Field(f.grid, _spectral_diff(f.values, f.grid, order), f.time)


def _spectral_diff(values: np.ndarray, grid: Grid, order: int) -> np.ndarray:
    return np.fft.irfft(grid.derivative_multiplier(order) * np.fft.rfft(values), grid.n)


def _fornberg_weights(order: int, offsets: np.ndarray) -> np.ndarray:
    """Finite-difference weights for d^order/dx^order at 0 on the given nodes
    (Fornberg 1988, Math. Comp. 51)."""
    n = len(offsets)
    c = np.zeros((n, order + 1))
    c[0, 0] = 1.0
    c1 = 1.0
    c4 = offsets[0]
    for i in range(1, n):
        mn = min(i, order)
        c2 = 1.0
        c5 = c4
        c4 = offsets[i]
        for j in range(i):
            c3 = offsets[i] - offsets[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    c[i, k] = c1 * (k * c[i - 1, k - 1] - c5 * c[i - 1, k]) / c2
                c[i, 0] = -c1 * c5 * c[i - 1, 0] / c2
            for k in range(mn, 0, -1):
                c[j, k] = (c4 * c[j, k] - k * c[j, k - 1]) / c3
            c[j, 0] = c4 * c[j, 0] / c3
        c1 = c2
    return c[:, order]


@lru_cache(maxsize=None)
def _fd8_stencil(order: int) -> tuple[np.ndarray, np.ndarray]:
    # half-width chosen so the centred stencil is at least 8th-order accurate
    half = (order + 9) // 2
    offsets = np.arange(-half, half + 1)
    return offsets, _fornberg_weights(order, offsets.astype(float))


def fd8_derivative(f: Field, order: int) -> Field:
    """Centred finite-difference derivative (>= 8th order), periodic wrap."""
    _check_order(order)
    return Field(f.grid, _fd8_diff(f.values, f.grid, order), f.time)


def _fd8_diff(values: np.ndarray, grid: Grid, order: int) -> np.ndarray:
    offsets, weights = _fd8_stencil(order)
    out = np.zeros_like(values)
    for off, w in zip(offsets, weights):
        if w != 0.0:
            out += w * np.roll(values, -off)
    return out / grid.dx**order


_BACKENDS = {"spectral": _spectral_diff, "fd8": _fd8_diff}


def bottom_eval(bottom: BottomProfile, grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """(h, h_x) of the periodically extended bottom on grid points.

    h_x comes from the analytic segment slopes, never from differentiating
    samples, so it is exact up to the knot discontinuities.
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
    return h, slope


def _required_orders(kind: EquationKind) -> list[int]:
    return sorted({o for _, _, orders in TERMS[kind] for o in orders if o})


def bottom_term(params: MediumParams, bottom_pair: tuple[np.ndarray, np.ndarray],
                u: np.ndarray, ux: np.ndarray) -> np.ndarray:
    """The uneven-bottom term -(delta/4)(2 h u_x + h_x u) of every equation."""
    h, hx = bottom_pair
    return -0.25 * params.delta * (2.0 * h * ux + hx * u)


def equation_terms(kind: EquationKind, params: MediumParams, frame: Frame,
                   u: np.ndarray, derivs: dict[int, np.ndarray],
                   u_t: np.ndarray | None = None,
                   bottom_pair: tuple[np.ndarray, np.ndarray] | None = None,
                   ) -> list[tuple[str, np.ndarray]]:
    """Named residual terms; their sum is the equation's left-hand side."""
    terms: list[tuple[str, np.ndarray]] = []
    if u_t is not None:
        terms.append(("u_t", u_t))
    for name, coefficient, orders in equation_table(kind, frame):
        value = coefficient(params)
        for o in orders:
            value = value * (derivs[o] if o else u)
        terms.append((name, value))
    if bottom_pair is not None:
        terms.append(("bottom", bottom_term(params, bottom_pair, u, derivs[1])))
    return terms


def sum_terms(terms: list[tuple[str, np.ndarray]]) -> tuple[np.ndarray, float]:
    """(sum of the terms, largest magnitude any single term reaches)."""
    res = terms[0][1]
    for _, t in terms[1:]:
        res = res + t
    return res, max(float(np.max(np.abs(t))) for _, t in terms)


def _tau_flags(kind: EquationKind, params: MediumParams) -> tuple[str, ...]:
    if kind in (EquationKind.FIFTH_ORDER, EquationKind.GARDNER) and params.tau > 1.0 / 3.0:
        return ("dispersion_sign_change",)
    return ()


def residual(u: Field, u_t: Field, eq: EquationId, params: MediumParams,
             tolerance: float = 1e-8, backend: str = "spectral",
             ) -> tuple[ResidualReport, Field]:
    """Pointwise residual of (u, u_t) under the given equation.

    The report's scale is the largest magnitude reached by any single
    term on the grid; `relative` is norm_inf/scale, and `passed` compares
    it against the tolerance.  Returns the report and the residual field.
    """
    if backend not in _BACKENDS:
        raise ValueError(f"backend must be one of {sorted(_BACKENDS)}, got {backend!r}")
    if u.grid != u_t.grid:
        raise ValueError("u and u_t must share a grid")
    diff = _BACKENDS[backend]
    derivs = {k: diff(u.values, u.grid, k) for k in _required_orders(eq.kind)}
    bottom_pair = bottom_eval(eq.bottom, u.grid) if eq.bottom is not None else None
    terms = equation_terms(eq.kind, params, eq.frame, u.values, derivs,
                           u_t=u_t.values, bottom_pair=bottom_pair)
    res, scale = sum_terms(terms)
    norm_inf = float(np.max(np.abs(res)))
    norm_2 = float(math.sqrt(u.grid.dx * np.sum(res * res)))
    relative = norm_inf / scale if scale > 0.0 else 0.0
    report = ResidualReport(
        equation=eq.label(),
        norm_inf=norm_inf,
        norm_2=norm_2,
        scale=scale,
        relative=relative,
        passed=bool(relative <= tolerance),
        tolerance=tolerance,
        flags=_tau_flags(eq.kind, params),
    )
    return report, Field(u.grid, res, u.time)


def travelling_residual(spec: TravellingWave, eq: EquationId, params: MediumParams,
                        grid: Grid, t: float = 0.0, tolerance: float = 1e-8,
                        backend: str = "spectral") -> tuple[ResidualReport, Field]:
    """Residual of a travelling profile, with u_t supplied by -v u_x.

    Any profile may be checked against any flat-bottom equation (a
    mismatched pair is simply reported as failing); a bottom profile is
    rejected because no uniformly travelling profile solves the
    variable-depth equations.
    """
    if eq.bottom is not None:
        raise ValueError("travelling profiles assume a flat bottom; "
                         "evaluate residual() directly for bottom terms")
    u = Field(grid, spec.evaluate(grid.x, t, eq.frame), t)
    ux = _BACKENDS[backend](u.values, grid, 1)
    u_t = Field(grid, -spec.speed_in(eq.frame) * ux, t)
    return residual(u, u_t, eq, params, tolerance=tolerance, backend=backend)
