"""Pseudospectral time evolution on the periodic grid.

The linear part (advection plus all constant-coefficient dispersion) is
integrated exactly in Fourier space; the nonlinear and bottom terms go
through the fourth-order exponential time differencing scheme of Cox &
Matthews; its phi-function coefficients are closed forms away from
z = dt L = 0 and Taylor sums near it (Schmelzer & Trefethen, ETNA 29,
2007), so the stiff k^3/k^5 symbols cannot poison them at small dt.

Both parts are read from the equation's term table (`equations.TERMS`).
On a flat bottom every nonlinear monomial is an exact x-derivative
(`equations.FLUXES`), so du/dt gets ik times the rfft of one merged flux,
the conservative form of Fornberg & Whitham (Phil. Trans. R. Soc. A 289,
1978); with a bottom the terms stay in product form.  Each stage makes
two FFT calls: one irfft of the stacked (ik)^o v rows, and one rfft.
Below n = 4096 a step is bound by the cost of each FFT call, so the
stages call numpy's pocketfft gufuncs directly: `np.fft`'s per-call argument
handling adds nothing for shapes and normalisation fixed at setup.

Every nonlinear term is assembled from sign-symmetric primitives and the
linear symbol does not depend on alpha, so evolving (-u0, -alpha) gives
bitwise the negation of evolving (u0, alpha) -- the dynamical face of
the inversion symmetry, measured by the tests rather than assumed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .equations import (FLUXES, TERMS, EquationId, Field, Grid, _irfft, _rfft,
                        bottom_coefficients, bottom_eval, equation_table)
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

    def __post_init__(self):
        for name, value in (("dt", self.dt), ("t_end", self.t_end)):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
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
        if self.eq.bottom is None:
            return
        grid = self.grid
        # a kink exactly on a sample would make the slope there ambiguous
        for kx, _ in self.eq.bottom.knots:
            frac = (kx - grid.x0) / grid.dx
            if abs(frac - round(frac)) * grid.dx < 1e-9 * grid.dx:
                raise ValueError(
                    f"bottom knot at x={kx!r} coincides with a grid point; "
                    "shift it by a fraction of dx")
        bottom_eval(self.eq.bottom, grid)       # refuses knots that span a period

    @property
    def n_steps(self) -> int:
        return round(self.t_end / self.dt)


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


# z^j coefficients, j < 20, of Q/dt and of f1, f2, f3 over dt (phi1 - 3 phi2
# + 4 phi3, phi2 - 2 phi3, 4 phi3 - phi2); on |z| <= 1 the tail is < 1e-17
_TAYLOR = np.array([[0.5 ** (j + 1) * (j + 2) * (j + 3), (j + 1) ** 2, j + 1, 1 - j]
                    for j in range(20)]).T / [float(math.factorial(j + 3)) for j in range(20)]


def _etdrk4_coefficients(L: np.ndarray, dt: float):
    """E, E2, Q, f1, f2, f3 of ETDRK4 at z = dt L: their closed forms
    cancel as z -> 0, so on |z| <= 1 their Taylor series is summed instead."""
    z = dt * L
    E, E2 = np.exp(z), np.exp(0.5 * z)
    near = np.abs(z) <= 1.0
    taylor_z, z = z[near], np.where(near, 1.0, z)   # closed forms off `near`
    z3 = z ** 3
    phis = [np.expm1(0.5 * z) / z, (-4.0 - z + E * (4.0 - 3.0 * z + z * z)) / z3,
            (2.0 + z + E * (z - 2.0)) / z3, (-4.0 - 3.0 * z - z * z + E * (4.0 - z)) / z3]
    for phi, taylor in zip(phis, _TAYLOR):
        phi[near] = np.polyval(taylor[::-1], taylor_z)
        phi *= dt
    return (E, E2, *phis)


class ETDRK4:
    """Fourth-order exponential integrator specialised to one configuration."""

    def __init__(self, config: EvolveConfig):
        self.config = config
        grid, params, eq = config.grid, config.params, config.eq
        L = _linear_symbol(eq, params, grid)
        self.E, self.E2, self.Q, self.f1, f2, self.f3 = _etdrk4_coefficients(L, config.dt)
        self._f2x2 = 2.0 * f2
        self._inv_n = 1.0 / grid.n     # irfft's normalisation, as np.fft.irfft's
        # coefficients carry the sign of du/dt, so no term is negated per call
        terms = [(orders, -c(params)) for _, c, orders in TERMS[eq.kind] if len(orders) > 1]
        if eq.bottom is None:
            # conservative form: du/dt gets ik times the rfft of the merged fluxes
            terms = [(flux, w * c) for orders, c in terms for w, flux in FLUXES[orders]]
            outer = grid.derivative_multiplier(1)
        else:
            # product form, where the bottom adds (delta/2) h u_x + (delta/4) h_x u
            c_ux, c_u = bottom_coefficients(params, bottom_eval(eq.bottom, grid))
            terms += [((1,), c_ux), ((0,), c_u)]
            outer = None
        # dealias by the 2/3 rule wherever the kind has a cubic term
        if any(len(orders) >= 3 for _, _, orders in TERMS[eq.kind]):
            mask = (np.arange(grid.n // 2 + 1) <= grid.n // 3).astype(float)
            outer = mask if outer is None else outer * mask
        self._outer = outer
        # terms with the same derivative factors merge into one polynomial in u
        groups: dict[tuple[int, ...], dict[int, float | np.ndarray]] = {}
        for orders, c in terms:
            powers = groups.setdefault(tuple(o for o in orders if o), {})
            powers[orders.count(0)] = powers.get(orders.count(0), 0.0) + c
        orders = sorted({0}.union(*groups))
        # the grid's own (ik)^o rows past order 0: row 0, (ik)^0 v, is a copy of v
        self._ik = [grid.derivative_multiplier(o) for o in orders[1:]]
        # Horner in u, then the factors: adds[0] f[rows[0]], then (term + adds[j]) f[rows[j]]
        self._groups = [([powers.get(p) for p in range(max(powers), -len(factors), -1)],
                         [0] * max(powers) + [orders.index(o) for o in factors])
                        for factors, powers in groups.items()]
        # the workspace: the (ik)^o v rows, their irfft, two Horner accumulators
        # and the stage buffers, so `step` allocates only the state it returns
        m = grid.n // 2 + 1
        self._rows = np.empty((len(orders), m), dtype=complex)
        self._f = np.empty((len(orders), grid.n))
        self._acc, self._term = np.empty((2, grid.n))
        self._Nv, self._Na, self._Nb, self._Nc, self._a, self._b, self._E2v = (
            np.empty((7, m), dtype=complex))

    def nonlinear(self, v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """rfft of the nonlinear (and bottom) part of du/dt, written into
        `out` if given, else into a new array."""
        f = self._f
        self._rows[0] = v
        for ik, row in zip(self._ik, self._rows[1:]):
            np.multiply(ik, v, out=row)
        _irfft(self._rows, self._inv_n, f)
        acc = None
        for adds, rows in self._groups:
            term = np.multiply(adds[0], f[rows[0]], out=self._acc if acc is None else self._term)
            for c, row in zip(adds[1:], rows[1:]):
                if c is not None:
                    term += c
                term *= f[row]
            acc = term if acc is None else np.add(acc, term, out=acc)
        if out is None:
            out = np.empty_like(self._Nv)
        nv = _rfft(acc, 1.0, out)
        if self._outer is not None:
            nv *= self._outer
        return nv

    def step(self, v: np.ndarray) -> np.ndarray:
        Nv = self.nonlinear(v, self._Nv)
        E2v = np.multiply(self.E2, v, out=self._E2v)
        a = np.multiply(self.Q, Nv, out=self._a)
        a += E2v
        Na = self.nonlinear(a, self._Na)
        b = np.multiply(self.Q, Na, out=self._b)
        b += E2v
        Nb = self.nonlinear(b, self._Nb)
        c = np.multiply(Nb, 2.0, out=b)      # in place: c = E2 a + Q (2 Nb - Nv)
        c -= Nv
        c *= self.Q
        a *= self.E2
        c += a
        Nc = self.nonlinear(c, self._Nc)
        Na += Nb
        out = self.E * v
        for coefficient, N in ((self.f1, Nv), (self._f2x2, Na), (self.f3, Nc)):
            N *= coefficient
            out += N
        return out


def evolve(config: EvolveConfig, u0) -> Trajectory:
    """Run the stepper from the initial profile; returns the trajectory.

    u0 is the initial state's samples on the configured grid (a Field's
    `values`).  Raises NumericalAbort (with the partial trajectory
    attached) if the spectrum is not finite, at step 0 or after a step.
    """
    values = np.asarray(u0, dtype=float)
    if values.shape != (config.grid.n,):
        raise ValueError(f"u0 has shape {values.shape}, expected ({config.grid.n},)")
    stepper = ETDRK4(config)
    traj = Trajectory(config)
    traj.append(0.0, values)
    stride, n_steps = config.output_stride, config.n_steps
    # blowup is detected and reported below, so the transient overflow
    # on the final doomed step (or of the first transform) is not worth a RuntimeWarning
    with np.errstate(over="ignore", invalid="ignore"):
        v = np.fft.rfft(values)
        if not np.isfinite(v).all():
            raise NumericalAbort("non-finite spectrum at step 0 (t = 0.0); "
                                 "check the initial state", traj)
        for i in range(1, n_steps + 1):
            v = stepper.step(v)
            if not np.isfinite(v).all():
                raise NumericalAbort(
                    f"non-finite spectrum at step {i} (t = {i * config.dt!r}); "
                    "reduce dt or check the configuration", traj)
            if (stride and i % stride == 0) or i == n_steps:
                traj.append(i * config.dt, np.fft.irfft(v, config.grid.n))
    return traj


def monitors(traj: Trajectory) -> dict[str, np.ndarray]:
    """Conserved-quantity and extremum series along a trajectory."""
    dx = traj.config.grid.dx
    u = [s.values for s in traj.snapshots]
    # snapshot by snapshot, with no stacked copy: a row's sum, min and max
    # are those of the stacked axis-1 reductions, bit for bit.  Sums of u
    # and u^2 may overflow to inf on a pre-abort snapshot; report them as such
    with np.errstate(over="ignore"):
        mass = dx * np.array([row.sum() for row in u])
        momentum = dx * np.array([(row * row).sum() for row in u])
    return {
        "time": np.array(traj.times),
        "mass": mass,
        "momentum": momentum,
        "min": np.array([row.min() for row in u]),
        "max": np.array([row.max() for row in u]),
    }


def estimate_speed(first: Field, last: Field) -> float:
    """Translation speed between two snapshots by spectral cross-correlation.

    The correlation peak is located to sub-grid accuracy with a parabolic
    refinement; the shift is reported in [-length/2, length/2), so the
    elapsed time must be short enough that the true displacement does not
    wrap ambiguously.  Both snapshots are scaled by one power of two that
    brings their max |u| into [1/2, 1), so the correlation cannot overflow;
    the scaling is exact, and the same for (-first, -last).
    """
    if first.grid != last.grid:
        raise ValueError("snapshots live on different grids")
    if last.time == first.time:
        raise ValueError("snapshots at equal times")
    n = first.grid.n
    _, e = math.frexp(max(np.max(np.abs(first.values)), np.max(np.abs(last.values))))
    F = np.fft.rfft(np.ldexp(first.values, -e))
    G = np.fft.rfft(np.ldexp(last.values, -e))
    corr = np.fft.irfft(G * np.conj(F), n)
    i = int(np.argmax(corr))
    ym, y0, yp = corr[(i - 1) % n], corr[i], corr[(i + 1) % n]
    denom = ym - 2.0 * y0 + yp
    frac = 0.5 * (ym - yp) / denom if denom != 0.0 else 0.0
    shift = (i + frac) * first.grid.dx
    if shift >= first.grid.length / 2.0:
        shift -= first.grid.length
    return shift / (last.time - first.time)
