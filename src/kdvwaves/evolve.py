"""Pseudospectral time evolution on the periodic grid.

The linear part (advection plus all constant-coefficient dispersion) is
integrated exactly in Fourier space; the nonlinear and bottom terms go
through the fourth-order exponential time differencing scheme of Cox &
Matthews with the contour-integral coefficient evaluation of Kassam &
Trefethen (SIAM J. Sci. Comput. 26, 2005), which is what keeps the
stiff k^3/k^5 symbols from poisoning the coefficients at small dt.

Both parts are read from the equation's term table (`equations.TERMS`).
On a flat bottom every nonlinear monomial is an exact x-derivative
(`equations.FLUXES`), so du/dt gets ik times the rfft of one merged flux,
the conservative form of Fornberg & Whitham (Phil. Trans. R. Soc. A 289,
1978); with a bottom the terms stay in product form.  Each stage makes
two FFT calls: one irfft of the stacked (ik)^o v rows, and one rfft.

Every nonlinear term is assembled from sign-symmetric primitives and the
linear symbol does not depend on alpha, so evolving (-u0, -alpha) gives
bitwise the negation of evolving (u0, alpha) -- the dynamical face of
the inversion symmetry, measured by the tests rather than assumed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .equations import (FLUXES, TERMS, BottomProfile, EquationId, Field, Grid,
                        bottom_eval, bottom_term, equation_table)
from .waves import MediumParams

__all__ = [
    "EvolveConfig",
    "Trajectory",
    "NumericalAbort",
    "ETDRK4",
    "evolve",
    "monitors",
    "estimate_speed",
]


class NumericalAbort(RuntimeError):
    """The time stepper produced non-finite values; carries the partial run."""

    def __init__(self, message: str, trajectory: "Trajectory"):
        super().__init__(message)
        self.trajectory = trajectory


@dataclass(frozen=True)
class EvolveConfig:
    eq: EquationId
    params: MediumParams
    grid: Grid
    dt: float
    t_end: float
    output_stride: int = 1     # snapshot every k-th step; 0 keeps first/last only
    dealias: bool | None = None  # None: on for the equations with cubic terms

    def __post_init__(self):
        if self.dt <= 0.0:
            raise ValueError(f"dt must be positive, got {self.dt!r}")
        if self.t_end < self.dt:
            raise ValueError(f"t_end (= {self.t_end!r}) must be >= dt")
        n = round(self.t_end / self.dt)
        if abs(n * self.dt - self.t_end) > 1e-9 * max(1.0, abs(self.t_end)):
            raise ValueError(
                f"t_end/dt = {self.t_end / self.dt!r} must be an integer "
                "(snapshots are only defined on step boundaries)")
        if self.output_stride < 0:
            raise ValueError("output_stride must be >= 0")
        if self.eq.bottom is not None:
            self._check_knots(self.eq.bottom, self.grid)

    @staticmethod
    def _check_knots(bottom: BottomProfile, grid: Grid):
        # a kink exactly on a sample would make the slope there ambiguous
        for kx, _ in bottom.knots:
            frac = (kx - grid.x0) / grid.dx
            if abs(frac - round(frac)) * grid.dx < 1e-9 * grid.dx:
                raise ValueError(
                    f"bottom knot at x={kx!r} coincides with a grid point; "
                    "shift it by a fraction of dx")

    @property
    def n_steps(self) -> int:
        return round(self.t_end / self.dt)

    def dealias_active(self) -> bool:
        if self.dealias is not None:
            return self.dealias
        return any(len(orders) >= 3 for _, _, orders in TERMS[self.eq.kind])


@dataclass
class Trajectory:
    config: EvolveConfig
    times: list[float] = field(default_factory=list)
    snapshots: list[Field] = field(default_factory=list)

    def append(self, t: float, values: np.ndarray):
        self.times.append(t)
        self.snapshots.append(Field(self.config.grid, values.copy(), t))

    @property
    def final(self) -> Field:
        return self.snapshots[-1]


def _linear_symbol(eq: EquationId, params: MediumParams, grid: Grid) -> np.ndarray:
    """Fourier symbol of the linear part of du/dt: minus each one-factor term."""
    L = np.zeros(grid.n // 2 + 1, dtype=complex)
    for _, coefficient, orders in equation_table(eq.kind, eq.frame):
        if len(orders) == 1:
            L -= coefficient(params) * grid.derivative_multiplier(orders[0])
    return L


def _etdrk4_coefficients(L: np.ndarray, dt: float, n_contour: int = 32):
    """Contour-integral evaluation of the ETDRK4 phi-function combinations.

    The mean over a full circle of unit radius centred at each dt*L equals
    the phi-function there (mean-value property); the half-circle shortcut
    seen in real-spectrum codes does not apply to these imaginary symbols.
    """
    E = np.exp(dt * L)
    E2 = np.exp(0.5 * dt * L)
    r = np.exp(2j * math.pi * (np.arange(1, n_contour + 1) - 0.5) / n_contour)
    LR = dt * L[:, None] + r[None, :]
    Q = dt * np.mean((np.exp(LR / 2.0) - 1.0) / LR, axis=1)
    f1 = dt * np.mean((-4.0 - LR + np.exp(LR) * (4.0 - 3.0 * LR + LR**2)) / LR**3, axis=1)
    f2 = dt * np.mean((2.0 + LR + np.exp(LR) * (-2.0 + LR)) / LR**3, axis=1)
    f3 = dt * np.mean((-4.0 - 3.0 * LR - LR**2 + np.exp(LR) * (4.0 - LR)) / LR**3, axis=1)
    return E, E2, Q, f1, f2, f3


class ETDRK4:
    """Fourth-order exponential integrator specialised to one configuration."""

    def __init__(self, config: EvolveConfig):
        self.config = config
        grid, params, eq = config.grid, config.params, config.eq
        L = _linear_symbol(eq, params, grid)
        self.E, self.E2, self.Q, self.f1, self.f2, self.f3 = \
            _etdrk4_coefficients(L, config.dt)
        self._f2x2 = 2.0 * self.f2
        self._params = params
        self._bottom = bottom_eval(eq.bottom, grid) if eq.bottom is not None else None
        self._n = grid.n
        # coefficients carry the sign of du/dt, so no term is negated per call
        terms = [(orders, -c(params)) for _, c, orders in TERMS[eq.kind] if len(orders) > 1]
        if self._bottom is None:
            # conservative form: du/dt gets ik times the rfft of the merged fluxes
            fluxes: dict[tuple[int, ...], float] = {}
            for orders, c in terms:
                for w, flux_orders in FLUXES[orders]:
                    fluxes[flux_orders] = fluxes.get(flux_orders, 0.0) + w * c
            terms = list(fluxes.items())
            sampled, outer = set(), grid.derivative_multiplier(1)
        else:
            # product form: the bottom term reads u and u_x, which are sampled anyway
            sampled, outer = {0, 1}, None
        if config.dealias_active():
            mask = (np.arange(grid.n // 2 + 1) <= grid.n // 3).astype(float)
            outer = mask if outer is None else outer * mask
        self._outer = outer
        orders = sorted(sampled.union(*(t for t, _ in terms)))
        # one row of (ik)^o per sampled order, so one irfft call samples them all
        self._multipliers = np.array([grid.derivative_multiplier(o) for o in orders])
        self._terms = [(c, [orders.index(o) for o in t]) for t, c in terms]

    def nonlinear(self, v: np.ndarray) -> np.ndarray:
        """rfft of the nonlinear (and bottom) part of du/dt."""
        f = np.fft.irfft(self._multipliers * v, self._n)
        out = None
        for c, factors in self._terms:
            term = c * f[factors[0]]
            for i in factors[1:]:
                term *= f[i]
            out = term if out is None else out + term
        if self._bottom is not None:
            out -= bottom_term(self._params, self._bottom, f[0], f[1])
        nv = np.fft.rfft(out)
        if self._outer is not None:
            nv *= self._outer
        return nv

    def step(self, v: np.ndarray) -> np.ndarray:
        Nv = self.nonlinear(v)
        E2v = self.E2 * v
        a = E2v + self.Q * Nv
        Na = self.nonlinear(a)
        b = E2v + self.Q * Na
        Nb = self.nonlinear(b)
        c = self.E2 * a + self.Q * (2.0 * Nb - Nv)
        Nc = self.nonlinear(c)
        return self.E * v + self.f1 * Nv + self._f2x2 * (Na + Nb) + self.f3 * Nc


def evolve(config: EvolveConfig, u0) -> Trajectory:
    """Run the stepper from the initial profile; returns the trajectory.

    u0 may be a Field on the configured grid or a plain array of samples.
    Raises NumericalAbort (with the partial trajectory attached) if the
    state stops being finite.
    """
    if isinstance(u0, Field):
        if u0.grid != config.grid:
            raise ValueError("u0 grid does not match the configuration grid")
        values = u0.values
    else:
        values = np.asarray(u0, dtype=float)
        if values.shape != (config.grid.n,):
            raise ValueError(f"u0 has shape {values.shape}, "
                             f"expected ({config.grid.n},)")
    stepper = ETDRK4(config)
    traj = Trajectory(config)
    traj.append(0.0, values)
    v = np.fft.rfft(values)
    stride = config.output_stride
    # blowup is detected and reported below, so the transient overflow
    # on the final doomed step is not worth a RuntimeWarning
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(1, config.n_steps + 1):
            v = stepper.step(v)
            if not np.all(np.isfinite(v)):
                raise NumericalAbort(
                    f"non-finite spectrum at step {i} (t = {i * config.dt!r}); "
                    "reduce dt or check the configuration", traj)
            if (stride and i % stride == 0) or i == config.n_steps:
                traj.append(i * config.dt, np.fft.irfft(v, config.grid.n))
    return traj


def monitors(traj: Trajectory) -> dict[str, np.ndarray]:
    """Conserved-quantity and extremum series along a trajectory."""
    dx = traj.config.grid.dx
    u = np.array([s.values for s in traj.snapshots])
    # u^2 may overflow to inf on a pre-abort snapshot; report it as such
    with np.errstate(over="ignore"):
        momentum = dx * (u * u).sum(axis=1)
    return {
        "time": np.array(traj.times),
        "mass": dx * u.sum(axis=1),
        "momentum": momentum,
        "min": u.min(axis=1),
        "max": u.max(axis=1),
    }


def estimate_speed(first: Field, last: Field) -> float:
    """Translation speed between two snapshots by spectral cross-correlation.

    The correlation peak is located to sub-grid accuracy with a parabolic
    refinement; the shift is reported in [-length/2, length/2), so the
    elapsed time must be short enough that the true displacement does not
    wrap ambiguously.
    """
    if first.grid != last.grid:
        raise ValueError("snapshots live on different grids")
    if last.time == first.time:
        raise ValueError("snapshots at equal times")
    n = first.grid.n
    F = np.fft.rfft(first.values)
    G = np.fft.rfft(last.values)
    corr = np.fft.irfft(G * np.conj(F), n)
    i = int(np.argmax(corr))
    ym, y0, yp = corr[(i - 1) % n], corr[i], corr[(i + 1) % n]
    denom = ym - 2.0 * y0 + yp
    frac = 0.5 * (ym - yp) / denom if denom != 0.0 else 0.0
    shift = (i + frac) * first.grid.dx
    if shift >= first.grid.length / 2.0:
        shift -= first.grid.length
    return shift / (last.time - first.time)
