"""Coefficient fitting: which ansatz parameters does an equation pin down?

A travelling ansatz u = f(xi; c), xi = x - v t, turns each equation into
an ODE residual that must vanish identically in xi.  Sampling it at
collocation points and driving it to zero with damped Gauss-Newton
recovers the coefficient relations of the closed forms -- and the rank
of the Jacobian at a solution counts how many independent constraints
the equation puts on the free parameters (n_free - rank is the local
dimension of the solution family).

Profile derivatives are exact, not finite differences in xi.  The
elliptic shapes live in the algebra of sn^a cn^b dn^c monomials, closed
under d/dxi; the hyperbolic shapes are the m = 1 case of the same
algebra; the rational-cosh shape differentiates through the product
rule applied to u * (1 + B cosh(xi/Delta)) = A.
"""
from __future__ import annotations

import functools
import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .elliptic import elliptic_K, jacobi_sn_cn_dn, sech
from .equations import EquationKind, equation_terms, sum_terms
from .waves import (Frame, MediumParams, TravellingWave, WaveFamily,
                    make_fifth_order_soliton, make_gardner_soliton,
                    make_kdv2_soliton, make_kdv_cnoidal, make_kdv_soliton,
                    make_kdv_superposition)

__all__ = [
    "AnsatzFamily",
    "FitResult",
    "FitBasin",
    "fit_travelling_wave",
    "multi_start_fit",
    "amplitude_starts",
    "count_constraints",
]

SHAPE_PARAMS: dict[str, tuple[str, ...]] = {
    "sech2": ("A", "B", "v", "D"),
    "sech4": ("A", "B", "v", "D"),
    "cn2": ("A", "B", "v", "D", "m"),
    "dn2_pm_cndn": ("A", "B", "v", "D", "m"),
    "gardner": ("A", "B", "v", "Delta"),
}

_SHAPE_FAMILY = {
    "sech2": WaveFamily.KDV_SOLITON,
    "sech4": WaveFamily.FIFTH_ORDER_SOLITON,
    "cn2": WaveFamily.KDV_CNOIDAL,
    "gardner": WaveFamily.GARDNER_SOLITON,
}


@dataclass(frozen=True)
class AnsatzFamily:
    """A profile shape with a split of its parameters into free and fixed.

    shape: one of sech2, sech4, cn2, dn2_pm_cndn, gardner.
    free:  parameter names the fit may vary.
    fixed: pinned name -> value for the rest.
    sign:  +1/-1 selects the branch of the dn2_pm_cndn shape.
    zero_mean: append the profile mean over one period as an extra
        residual row (periodic shapes only).  The travelling ODE alone
        leaves the pedestal D free -- shifting D and boosting v is an
        exact invariance -- so this is the condition that pins it.
    """

    shape: str
    free: tuple[str, ...]
    fixed: dict[str, float] = field(default_factory=dict)
    sign: int = +1
    zero_mean: bool = False

    def __post_init__(self):
        if self.shape not in SHAPE_PARAMS:
            raise ValueError(f"unknown shape {self.shape!r}; "
                             f"options: {sorted(SHAPE_PARAMS)}")
        if self.sign not in (+1, -1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign!r}")
        if self.zero_mean and self.shape not in ("cn2", "dn2_pm_cndn"):
            raise ValueError("zero_mean applies to the periodic shapes only")
        names = SHAPE_PARAMS[self.shape]
        object.__setattr__(self, "free", tuple(self.free))
        unknown = [p for p in self.free if p not in names]
        if unknown:
            raise ValueError(f"free parameters {unknown} not in shape "
                             f"{self.shape!r} parameters {names}")
        if len(set(self.free)) != len(self.free):
            raise ValueError("free parameter names must be unique")
        missing = [p for p in names
                   if p not in self.free and p not in self.fixed]
        if missing:
            raise ValueError(f"parameters {missing} neither free nor fixed")

    def values(self, coeffs: np.ndarray) -> dict[str, float]:
        out = dict(self.fixed)
        out.update(zip(self.free, map(float, coeffs)))
        return out

    def wave(self, values: dict[str, float]) -> TravellingWave:
        """The fitted parameters as a catalog profile."""
        if self.shape == "dn2_pm_cndn":
            family = (WaveFamily.KDV_SUPERPOSITION_PLUS if self.sign > 0
                      else WaveFamily.KDV_SUPERPOSITION_MINUS)
        else:
            family = _SHAPE_FAMILY[self.shape]
        return TravellingWave(
            family, A=values["A"], B=values["B"], v=values["v"],
            D=values.get("D", 0.0), m=values.get("m"),
            Delta=values.get("Delta"))


# --- exact profile derivatives ---------------------------------------------

def _monomial_derivative(poly: dict[tuple[int, int, int], float],
                         m: float) -> dict[tuple[int, int, int], float]:
    # d/dw (sn^a cn^b dn^c) = a sn^{a-1} cn^{b+1} dn^{c+1}
    #                       - b sn^{a+1} cn^{b-1} dn^{c+1}
    #                       - m c sn^{a+1} cn^{b+1} dn^{c-1}
    out: dict[tuple[int, int, int], float] = {}

    def add(key, coef):
        if coef != 0.0:
            out[key] = out.get(key, 0.0) + coef

    for (a, b, c), coef in poly.items():
        if a:
            add((a - 1, b + 1, c + 1), coef * a)
        if b:
            add((a + 1, b - 1, c + 1), -coef * b)
        if c:
            add((a + 1, b + 1, c - 1), -coef * m * c)
    return out


@functools.lru_cache(maxsize=64)
def _derivative_chain(shape: str, sign: int, m: float) -> tuple[np.ndarray, np.ndarray]:
    """d^k f/dw^k, k = 0..5, at A = 1 and D = 0: monomial exponents (a, b, c)
    of sn^a cn^b dn^c by row, and their coefficients, one column per k."""
    if shape == "dn2_pm_cndn":
        chain = [{(0, 0, 2): 0.5, (0, 1, 1): 0.5 * sign * math.sqrt(m)}]
    else:
        chain = [{"sech2": {(0, 1, 1): 1.0}, "sech4": {(0, 2, 2): 1.0},
                  "cn2": {(0, 2, 0): 1.0}}[shape]]
    for _ in range(5):
        chain.append(_monomial_derivative(chain[-1], m))
    monomials = sorted(set().union(*chain))
    exponents = np.array(monomials)
    coefficients = np.array([[poly.get(e, 0.0) for poly in chain] for e in monomials])
    exponents.flags.writeable = coefficients.flags.writeable = False   # shared
    return exponents, coefficients


def _elliptic_profile_derivs(shape: str, sign: int, xi: np.ndarray,
                             vals: dict[str, float]) -> dict[int, np.ndarray]:
    A, B, D = vals["A"], vals["B"], vals.get("D", 0.0)
    m = 1.0 if shape in ("sech2", "sech4") else vals["m"]
    if not 0.0 <= m <= 1.0:
        raise ValueError(f"modulus m must lie in [0, 1], got {m!r}")
    w = B * xi
    if m == 1.0:
        sn, cn = np.tanh(w), sech(w)
        dn = cn
    else:
        sn, cn, dn = jacobi_sn_cn_dn(w, m)
    exponents, coefficients = _derivative_chain(shape, sign, m)
    # one power table: powers[e, j] = (sn, cn, dn)[j] ** e
    powers = np.stack([sn, cn, dn]) ** np.arange(exponents.max() + 1)[:, None, None]
    monomials = (powers[exponents[:, 0], 0] * powers[exponents[:, 1], 1]
                 * powers[exponents[:, 2], 2])
    derivs = (coefficients.T @ monomials) * (A * B ** np.arange(6))[:, None]
    derivs[0] += D
    return dict(enumerate(derivs))


def _gardner_profile_derivs(xi: np.ndarray,
                            vals: dict[str, float]) -> dict[int, np.ndarray]:
    # u (1 + B cosh(xi/Delta)) = A, so Leibniz gives a recursion for u^(k)
    A, B, Delta = vals["A"], vals["B"], vals["Delta"]
    if Delta == 0.0:
        raise ValueError("Delta must be nonzero")
    z = xi / Delta
    ch, sh = np.cosh(z), np.sinh(z)
    w0 = 1.0 + B * ch
    if np.any(np.abs(w0) < 1e-12):
        raise ValueError("gardner denominator vanishes on the window")
    w = {j: B * (ch if j % 2 == 0 else sh) / Delta**j for j in range(1, 6)}
    derivs = {0: A / w0}
    for k in range(1, 6):
        acc = np.zeros_like(xi)
        for j in range(1, k + 1):
            acc += math.comb(k, j) * w[j] * derivs[k - j]
        derivs[k] = -acc / w0
    return derivs


def profile_derivatives(ansatz: AnsatzFamily, xi: np.ndarray,
                        values: dict[str, float]) -> dict[int, np.ndarray]:
    """f, f', ..., f''''' of the ansatz at the given xi, exactly."""
    if ansatz.shape == "gardner":
        return _gardner_profile_derivs(xi, values)
    return _elliptic_profile_derivs(ansatz.shape, ansatz.sign, xi, values)


# --- collocation residual ---------------------------------------------------

def collocation_points(ansatz: AnsatzFamily, values: dict[str, float],
                       n_points: int) -> np.ndarray:
    """Chebyshev interior nodes on [0, W], W = 8 core widths of the shape."""
    if ansatz.shape == "gardner":
        width = 8.0 * abs(values["Delta"])
    else:
        B = values["B"]
        if B == 0.0:
            raise ValueError("B must be nonzero to set the collocation window")
        width = 8.0 / abs(B)
    i = np.arange(n_points)
    return 0.5 * width * (1.0 - np.cos(math.pi * (2 * i + 1) / (2 * n_points)))


def _fit_residual(kind: EquationKind, params: MediumParams,
                  ansatz: AnsatzFamily, xi: np.ndarray,
                  values: dict[str, float]) -> tuple[np.ndarray, float]:
    """(residual vector, scale) of the travelling ODE at the nodes."""
    d = profile_derivatives(ansatz, xi, values)
    terms = equation_terms(kind, params, Frame.FIXED, d[0], d, u_t=-values["v"] * d[1])
    res, scale = sum_terms(terms)
    if ansatz.zero_mean:
        res = np.append(res, _period_mean(ansatz, values))
    return res, scale


def _period_mean(ansatz: AnsatzFamily, values: dict[str, float],
                 n_samples: int = 256) -> float:
    """Profile mean over one period (rectangle rule is spectrally exact)."""
    m, B = values["m"], values["B"]
    if not 0.0 < m < 1.0 or B == 0.0:
        raise ValueError("period requires 0 < m < 1 and B != 0")
    periods = 2.0 if ansatz.shape == "cn2" else 4.0
    lam = periods * elliptic_K(m) / abs(B)
    xi = lam * np.arange(n_samples) / n_samples
    return float(np.mean(profile_derivatives(ansatz, xi, values)[0]))


@dataclass(frozen=True)
class FitResult:
    ansatz: AnsatzFamily
    values: dict[str, float]
    residual: float            # max |R| / scale at the returned values
    status: str                # converged/trivial/stalled/max_iterations/singular_jacobian
    n_iterations: int
    rank: int | None = None    # rank of the last Jacobian

    @property
    def converged(self) -> bool:
        return self.status == "converged"

    def wave(self) -> TravellingWave:
        return self.ansatz.wave(self.values)


def _try_eval(kind, params, ansatz, xi, values):
    try:
        return _fit_residual(kind, params, ansatz, xi, values)
    except (ValueError, FloatingPointError):
        return None


def _fd_jacobian(kind, params, ansatz, xi, values, base) -> np.ndarray:
    """One-sided differences of the residual in each free parameter, bumped
    away from zero (so mirrored fits stay exact negations), and the other
    way where that bump cannot be evaluated (e.g. m + h > 1)."""
    jac = np.empty((len(base), len(ansatz.free)))
    for j, p in enumerate(ansatz.free):
        h = math.copysign(1e-7 * (1.0 + abs(values[p])), values[p])
        for step in (h, -h):
            trial = _try_eval(kind, params, ansatz, xi, {**values, p: values[p] + step})
            if trial is not None:
                jac[:, j] = (trial[0] - base) / step
                break
        else:
            raise ValueError(f"cannot perturb parameter {p!r} at the base point")
    return jac


# the collapse rule of fit_travelling_wave (see its docstring)
TRIVIAL_WINDOW = 8
TRIVIAL_MIN_GAIN = 2.0


def fit_travelling_wave(kind: EquationKind, params: MediumParams,
                        ansatz: AnsatzFamily, start: dict[str, float],
                        n_points: int | None = None, max_iterations: int = 200,
                        rtol: float = 1e-10) -> FitResult:
    """Damped Gauss-Newton on the collocation residual.

    start must provide every free parameter.  Collocation nodes are laid
    out once, from the starting shape, and held fixed so the objective
    does not move under the iteration.

    Statuses: converged (relative residual <= rtol), trivial, stalled (no
    trial lowers the residual), max_iterations, singular_jacobian (dead
    end at deficient rank, or no Jacobian).  A free amplitude can slide
    along a solution family toward u = 0, which solves every equation.
    The fit stops as trivial once, over the last TRIVIAL_WINDOW (8)
    accepted steps, |A| fell each time, the damping rejected a trial, and
    the relative residual gained less than TRIVIAL_MIN_GAIN (2x).  The
    rejection clause spares fits that shrink |A| with full steps on their
    way to a real solution.  Reading |A| only, fits and mirrors stop alike.
    """
    missing = [p for p in ansatz.free if p not in start]
    if missing:
        raise ValueError(f"start is missing free parameters {missing}")
    n_free = len(ansatz.free)
    if n_free == 0:
        raise ValueError("ansatz has no free parameters")
    n_pts = n_points if n_points is not None else max(3 * n_free, 9)
    c = np.array([float(start[p]) for p in ansatz.free])
    xi = collocation_points(ansatz, ansatz.values(c), n_pts)

    def rel(res_scale):
        res, scale = res_scale
        a = float(np.max(np.abs(res)))
        return a / scale if scale > 0.0 else a

    def finish(status, n_iterations):
        return FitResult(ansatz, _canonical(ansatz, c), rel(cur), status,
                         n_iterations, rank)

    cur = _try_eval(kind, params, ansatz, xi, ansatz.values(c))
    if cur is None:
        raise ValueError("ansatz cannot be evaluated at the start values")
    rank = None
    mu = 1e-3   # Levenberg-Marquardt damping, shared across iterations
    i_amp = ansatz.free.index("A") if "A" in ansatz.free else None
    # (|A|, relative residual, a trial was rejected) per accepted step
    history = deque([(abs(c[i_amp]), rel(cur), False)] if i_amp is not None else [],
                    maxlen=TRIVIAL_WINDOW + 1)
    for it in range(1, max_iterations + 1):
        if rel(cur) <= rtol:
            return finish("converged", it - 1)
        res, _ = cur
        try:
            jac = _fd_jacobian(kind, params, ansatz, xi, ansatz.values(c), res)
        except ValueError:
            return finish("singular_jacobian", it)
        sigma = np.linalg.svd(jac, compute_uv=False)
        rank = int(np.sum(sigma > sigma[0] * 1e-12)) if sigma[0] > 0.0 else 0
        # Marquardt scaling keeps the damping meaningful when the
        # columns (parameters) live on very different scales
        col = np.sqrt(np.sum(jac * jac, axis=0))
        col[col == 0.0] = 1.0
        best = float(np.linalg.norm(res))
        accepted = False
        for n_trial in range(12):
            aug = np.vstack([jac, math.sqrt(mu) * np.diag(col)])
            rhs = np.concatenate([-res, np.zeros(n_free)])
            step, *_ = np.linalg.lstsq(aug, rhs, rcond=None)
            trial_c = c + step
            trial = _try_eval(kind, params, ansatz, xi, ansatz.values(trial_c))
            if trial is not None and float(np.linalg.norm(trial[0])) < best:
                c, cur, accepted = trial_c, trial, True
                mu = max(mu / 3.0, 1e-14)
                break
            mu *= 10.0
            if mu > 1e12:
                break
        if not accepted:
            return finish("converged" if rel(cur) <= 10.0 * rtol else
                          "singular_jacobian" if rank < n_free else "stalled", it)
        if np.max(np.abs(step) / (1.0 + np.abs(c))) < 1e-13:
            # the iteration has stopped moving; only a small residual
            # makes that convergence rather than a dead end
            return finish("converged" if rel(cur) <= 10.0 * rtol else "stalled", it)
        if i_amp is not None:
            history.append((abs(c[i_amp]), rel(cur), n_trial > 0))
            amps, rels, rejected = zip(*history)
            if (len(history) == history.maxlen and any(rejected[1:])
                    and all(new < old for old, new in zip(amps, amps[1:]))
                    and rels[0] < TRIVIAL_MIN_GAIN * rels[-1]):
                return finish("trivial", it)
    return finish("max_iterations", max_iterations)


def _canonical(ansatz: AnsatzFamily, c: np.ndarray) -> dict[str, float]:
    """All shapes here are even in B (and gardner in Delta): fold signs."""
    values = ansatz.values(c)
    if "B" in ansatz.free and ansatz.shape != "gardner":
        values["B"] = abs(values["B"])
    if "Delta" in ansatz.free:
        values["Delta"] = abs(values["Delta"])
    return values


# --- multi-start exploration -------------------------------------------------

@dataclass(frozen=True)
class FitBasin:
    values: dict[str, float]
    residual: float
    count: int


def amplitude_starts(params: MediumParams, n: int = 8,
                     span: tuple[float, float] = (0.05, 3.0)) -> list[dict[str, float]]:
    """Geometric ladder of amplitudes, with B and v warm-started from the
    single-soliton relations (B = sqrt(3 a A / 4 b), v = 1 + a A / 2)."""
    sign = 1.0 if params.alpha > 0 else -1.0
    out = []
    for mag in np.geomspace(span[0], span[1], n):
        A = sign * mag
        out.append({
            "A": A,
            "B": math.sqrt(3.0 * params.alpha * A / (4.0 * params.beta)),
            "v": 1.0 + params.alpha * A / 2.0,
        })
    return out


def multi_start_fit(kind: EquationKind, params: MediumParams,
                    ansatz: AnsatzFamily, starts: list[dict[str, float]],
                    merge_tol: float = 1e-6,
                    **fit_kwargs) -> tuple[list[FitBasin], list[FitResult]]:
    """Fit from every start; cluster the converged results into basins.

    Results with |A| below merge_tol collapse onto the trivial zero
    profile and are not counted as a basin.  Returns (basins sorted by
    population, all raw results).
    """
    results = [fit_travelling_wave(kind, params, ansatz, s, **fit_kwargs)
               for s in starts]
    basins: list[list[dict[str, float]]] = []
    residuals: list[float] = []
    for r in results:
        if not r.converged:
            continue
        if "A" in r.values and abs(r.values["A"]) < merge_tol:
            continue
        for group, _ in zip(basins, residuals):
            ref = group[0]
            if all(abs(r.values[p] - ref[p]) <= merge_tol * (1.0 + abs(ref[p]))
                   for p in ansatz.free):
                group.append(r.values)
                break
        else:
            basins.append([r.values])
            residuals.append(r.residual)
    out = [FitBasin(values=g[0], residual=res, count=len(g))
           for g, res in zip(basins, residuals)]
    out.sort(key=lambda b: -b.count)
    return out, results


# --- constraint counting ------------------------------------------------------

def _on_manifold_values(kind: EquationKind, params: MediumParams,
                        ansatz: AnsatzFamily) -> dict[str, float]:
    shape = ansatz.shape
    if kind is EquationKind.KDV and shape == "sech2":
        w = make_kdv_soliton(params, 1.0 if params.alpha > 0 else -1.0)
    elif kind is EquationKind.KDV and shape == "cn2":
        m = ansatz.fixed.get("m", 0.9)
        w = make_kdv_cnoidal(params, 1.0 if params.alpha > 0 else -1.0, m)
    elif kind is EquationKind.KDV and shape == "dn2_pm_cndn":
        m = ansatz.fixed.get("m", 0.5)
        A = 1.0 if params.alpha > 0 else -1.0
        B = math.sqrt(3.0 * params.alpha * A / (4.0 * params.beta))
        w = make_kdv_superposition(params, A, m, B, sign=ansatz.sign)
    elif kind is EquationKind.KDV2 and shape == "sech2":
        w = make_kdv2_soliton(params)
    elif kind is EquationKind.FIFTH_ORDER and shape == "sech4":
        w = make_fifth_order_soliton(params)
    elif kind is EquationKind.GARDNER and shape == "gardner":
        w = make_gardner_soliton(params, ansatz.fixed.get("Delta", 1.0))
    else:
        raise ValueError(
            f"no catalog solution for ({kind.value}, {shape}); "
            "pass the on-manifold point explicitly via `at`")
    vals = {"A": w.A, "B": w.B, "v": w.v, "D": w.D}
    if w.m is not None:
        vals["m"] = w.m
    if w.Delta is not None:
        vals["Delta"] = w.Delta
    return vals


def count_constraints(kind: EquationKind, params: MediumParams,
                      ansatz: AnsatzFamily, at: dict[str, float] | None = None,
                      n_points: int | None = None) -> int:
    """Rank of the residual Jacobian over the free parameters at a solution.

    n_free minus this rank is the local dimension of the solution family:
    e.g. the single-bell shape under the first-order equation leaves a
    one-parameter family (amplitude), while the second-order equation
    pins every parameter.
    """
    values = dict(at) if at is not None else _on_manifold_values(kind, params, ansatz)
    for p in ansatz.fixed:
        values.setdefault(p, ansatz.fixed[p])
    missing = [p for p in SHAPE_PARAMS[ansatz.shape] if p not in values]
    if missing:
        raise ValueError(f"on-manifold point is missing parameters {missing}")
    n_free = len(ansatz.free)
    n_pts = n_points if n_points is not None else max(4 * n_free, 12)
    xi = collocation_points(ansatz, values, n_pts)
    base, scale = _fit_residual(kind, params, ansatz, xi, values)
    if float(np.max(np.abs(base))) > 1e-6 * scale:
        raise ValueError(
            "`at` is not on the solution manifold "
            f"(relative residual {float(np.max(np.abs(base))) / scale:.3e})")
    jac = _fd_jacobian(kind, params, ansatz, xi, values, base)
    sigma = np.linalg.svd(jac, compute_uv=False)
    return int(np.sum(sigma > sigma[0] * 1e-6)) if sigma[0] > 0.0 else 0
