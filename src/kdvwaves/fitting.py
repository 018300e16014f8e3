"""Coefficient fitting: which ansatz parameters does an equation pin down?

A travelling ansatz u = f(xi; c), xi = x - v t, turns each equation into
an ODE residual that must vanish identically in xi.  Sampling it at
collocation points and driving it to zero with damped Gauss-Newton
recovers the coefficient relations of the closed forms -- and the rank
of the Jacobian at a solution counts how many independent constraints
the equation puts on the free parameters (n_free - rank is the local
dimension of the solution family).

Profile derivatives are exact, not finite differences in xi: the fits
read them from TravellingWave.derivatives.  So is the residual Jacobian,
except for a central difference in m: its columns for A, B, v, D and
Delta apply the term table's linearisation to the parameter derivatives
of the rows that the residual evaluation already holds.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np
# the gufunc under np.linalg.lstsq: lstsq refuses a stack, its gufunc takes one
from numpy.linalg._umath_linalg import lstsq as _lstsq

from .elliptic import _complete
from .equations import EquationKind, equation_terms, linearised_terms, sum_terms
from .inversion import FAMILIES, signed
from .waves import Frame, MediumParams, TravellingWave, WaveFamily, make_kdv_soliton

__all__ = [
    "AnsatzFamily",
    "FitResult",
    "FitBasin",
    "StartError",
    "fit_travelling_wave",
    "multi_start_fit",
    "amplitude_starts",
    "count_constraints",
    "node_count",
]

# config shape -> (catalog family, parameter names)
_SHAPES: dict[str, tuple[WaveFamily, tuple[str, ...]]] = {
    "sech2": (WaveFamily.KDV_SOLITON, ("A", "B", "v", "D")),
    "sech4": (WaveFamily.FIFTH_ORDER_SOLITON, ("A", "B", "v", "D")),
    "cn2": (WaveFamily.KDV_CNOIDAL, ("A", "B", "v", "D", "m")),
    "dn2_pm_cndn": (WaveFamily.KDV_SUPERPOSITION_PLUS, ("A", "B", "v", "D", "m")),
    "gardner": (WaveFamily.GARDNER_SOLITON, ("A", "B", "v", "Delta")),
}
SHAPE_PARAMS = {shape: names for shape, (_, names) in _SHAPES.items()}


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
        if self.sign not in ((+1, -1) if self.shape == "dn2_pm_cndn" else (+1,)):
            raise ValueError("sign must be +1, or -1 for the dn2_pm_cndn shape; "
                             f"got sign={self.sign!r} for shape {self.shape!r}")
        if self.zero_mean and self.shape not in ("cn2", "dn2_pm_cndn"):
            raise ValueError("zero_mean applies to the periodic shapes only")
        names = SHAPE_PARAMS[self.shape]
        object.__setattr__(self, "free", tuple(self.free))
        for role, given in (("free", self.free), ("fixed", self.fixed)):
            unknown = [p for p in given if p not in names]
            if unknown:
                raise ValueError(f"{role} parameters {unknown} not in shape "
                                 f"{self.shape!r} parameters {names}")
        if not self.free:
            raise ValueError("ansatz has no free parameters")
        if len(set(self.free)) != len(self.free):
            raise ValueError("free parameter names must be unique")
        for p, value in self.fixed.items():
            if not math.isfinite(value):
                raise ValueError(f"fixed parameter {p} must be finite, got {value!r}")
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
        family = (_SHAPES[self.shape][0] if self.sign > 0
                  else WaveFamily.KDV_SUPERPOSITION_MINUS)
        return TravellingWave(
            family, A=values["A"], B=values["B"], v=values["v"],
            D=values.get("D", 0.0), m=values.get("m"),
            Delta=values.get("Delta"))


def _unit_rows(ansatz: AnsatzFamily, xi: np.ndarray,
               values: dict[str, float]) -> tuple[TravellingWave, np.ndarray]:
    """The ansatz's wave at A = 1 and D = 0, and its rows f ... f^(6) at xi.

    Every row is linear in A, so the rows at the values are A times these
    (plus D on row 0), and these are the rows' derivative in A.  Stacked:
    xi (S, n) and (S, 1) columns of values, one per start, sharing m.
    """
    unit = ansatz.wave({**values, "A": 1.0, "D": 0.0})
    if ansatz.shape == "gardner":
        if np.any(unit.Delta == 0.0):
            raise ValueError("Delta must be nonzero")
        # a fit must not hold a pole in its window [0, last node]: for B < 0,
        # 1/f = 1 + B cosh(xi/Delta) falls from 1 + B at xi = 0, so its zero
        # |Delta| arccosh(-1/B) is in the window iff 1 + B >= 0 >= 1/f at its end
        with np.errstate(over="ignore", invalid="ignore"):
            end = 1.0 + unit.B * np.cosh(np.max(xi, axis=-1, keepdims=True) / unit.Delta)
        if np.any((1.0 + unit.B >= 0.0) & (end <= 0.0)):
            raise ValueError("gardner denominator vanishes on the window")
    return unit, unit.derivatives(xi, 6)


def _scaled(values: dict[str, float], unit_rows: np.ndarray) -> np.ndarray:
    rows = values["A"] * unit_rows
    rows[0] += values.get("D", 0.0)
    return rows


# --- collocation residual ---------------------------------------------------

def node_count(ansatz: AnsatzFamily, n_points: int | None = None) -> int:
    """A fit's number of collocation nodes: n_points, by default
    max(3 n_free, 9); fewer than n_free nodes are refused."""
    n_free = len(ansatz.free)
    n = max(3 * n_free, 9) if n_points is None else n_points
    if n < n_free:
        raise ValueError(f"n_points must be at least the number of free parameters "
                         f"({n_free}), got {n}")
    return n


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


class _Point(NamedTuple):
    """A residual evaluation and the rows it read, which the Jacobian reuses."""

    res: np.ndarray
    scale: float                # (S,) when stacked
    rows: np.ndarray            # f ... f^(6) at the nodes
    unit_rows: np.ndarray       # the rows at A = 1 and D = 0
    unit_mean: float | np.ndarray | None  # their period mean (zero_mean only)


def _fit_residual(kind: EquationKind, params: MediumParams,
                  ansatz: AnsatzFamily, xi: np.ndarray,
                  values: dict[str, float]) -> _Point:
    """The travelling ODE's residual vector and scale at the nodes, or
    stacked, at S starts' nodes (S, n) and (S, 1) columns of values."""
    _, unit_rows = _unit_rows(ansatz, xi, values)
    rows = _scaled(values, unit_rows)
    terms = equation_terms(kind, params, Frame.FIXED, rows[0], rows,
                           u_t=-values["v"] * rows[1])
    res, scale = sum_terms(terms)
    unit_mean = None
    if ansatz.zero_mean:
        # over a period, cn^2 has mean (E/K + m - 1)/m (1/2 at m = 0) and
        # (dn^2 +- sqrt(m) cn dn)/2 has E/(2K); _complete refuses m = 1
        m = values["m"]
        ek, excess = _complete(m)[1:3]
        unit_mean = (excess / m if m else 0.5) if ansatz.shape == "cn2" else 0.5 * ek
        res = np.hstack([res, values["A"] * unit_mean + values.get("D", 0.0)])
    return _Point(res, scale, rows, unit_rows, unit_mean)


def _jacobian(kind: EquationKind, params: MediumParams, ansatz: AnsatzFamily,
              xi: np.ndarray, values: dict[str, float], point: _Point) -> np.ndarray:
    """d(residual)/d(free parameters) at a point _fit_residual evaluated.

    The columns for A, B, v, D and Delta are exact: the term table's
    linearisation applied to each parameter's derivative of the rows, which
    come from the point's own rows without a new profile evaluation.  Only
    m, on which the Jacobi functions depend through K(m), takes a central
    difference.  Under the mirror (A, D, alpha) -> -(A, D, alpha) the A and
    D columns stay bitwise and every other column is negated exactly.
    Stacked, one matrix per start.
    """
    exact = [p for p in ansatz.free if p != "m"]
    # each parameter's derivative of rows 0..5 (the orders the terms read)
    unit_rows = point.unit_rows[:-1]
    deltas = {"A": unit_rows, "D": np.zeros_like(unit_rows), "v": np.zeros_like(unit_rows)}
    deltas["D"][0] = 1.0
    if "B" in exact or "Delta" in exact:
        unit = ansatz.wave({**values, "A": 1.0, "D": 0.0})
        widths = unit.width_derivatives(xi, point.unit_rows)
        deltas.update((p, values["A"] * rows) for p, rows in widths.items())
    jac = np.empty(point.res.shape + (len(ansatz.free),))
    if exact:
        delta = np.stack([deltas[p] for p in exact], axis=1)
        # u_t = -v f' moves with f' and, in v alone, with v
        delta_t = -values["v"] * delta[1]
        if "v" in exact:
            delta_t[exact.index("v")] = -point.rows[1]
        columns = linearised_terms(kind, params, Frame.FIXED, point.rows, delta, delta_t)
        if ansatz.zero_mean:
            # the period mean A <g> + D: B rescales the period, v does not enter
            mean = {"A": point.unit_mean, "D": 1.0}
            columns = np.concatenate(
                [columns, [np.broadcast_to(mean.get(p, 0.0), columns.shape[1:-1] + (1,))
                           for p in exact]], axis=-1)
        for p, column in zip(exact, columns):
            jac[..., ansatz.free.index(p)] = column
    if "m" in ansatz.free:
        lead, j = xi.shape[:-1], ansatz.free.index("m")     # lead: () or (S,)
        for i in np.ndindex(lead):
            at = {p: np.broadcast_to(x, lead + (1,))[i].item() for p, x in values.items()}
            jac[i][:, j] = _m_column(kind, params, ansatz, xi[i], at, point.res[i])
    return jac


def _m_column(kind, params, ansatz, xi, values, res) -> np.ndarray:
    """d(residual)/dm by a central difference, h = 1e-6 (1 + |m|): K(m)
    varies steeply, and this step beats eps^(1/3) on the cn2 null space.
    Where one side cannot be evaluated (m near 0 or 1), the one-sided
    second-order three-point formula on the other."""
    m = values["m"]
    h = 1e-6 * (1.0 + abs(m))

    def at(step):
        trial = _try_eval(kind, params, ansatz, xi, {**values, "m": m + step})
        return None if trial is None else trial.res

    up, down = at(h), at(-h)
    if up is not None and down is not None:
        return (up - down) / (2.0 * h)
    for near, step in ((up, h), (down, -h)):
        far = at(2.0 * step) if near is not None else None
        if far is not None:
            return (4.0 * near - 3.0 * res - far) / (2.0 * step)
    raise ValueError("cannot perturb parameter 'm' at the base point")


@dataclass(frozen=True)
class FitResult:
    values: dict[str, float]
    residual: float            # max |R| / scale at the returned values
    status: str                # converged/trivial/stalled/max_iterations/singular_jacobian
    n_iterations: int
    rank: int | None = None    # rank of the last Jacobian

    @property
    def converged(self) -> bool:
        return self.status == "converged"


def _try_eval(kind, params, ansatz, xi, values):
    try:
        return _fit_residual(kind, params, ansatz, xi, values)
    except (ValueError, ArithmeticError):
        return None


def _columns(ansatz: AnsatzFamily, coeffs: np.ndarray) -> dict:
    """The values of S starts, coeffs (S, n_free), as (S, 1) columns."""
    return {**ansatz.fixed, **{p: coeffs[:, j, None] for j, p in enumerate(ansatz.free)}}


def _evaluate(kind, params, ansatz, xi, coeffs) -> list[_Point | None]:
    """Each start's point at its row of coeffs on its row of nodes xi, or
    None where _try_eval rejects that start alone.  One stacked evaluation
    per value of m, which keys the derivative chain; when a stack cannot be
    evaluated, its starts are evaluated one by one."""
    groups: dict = {}
    for i, c in enumerate(coeffs):
        groups.setdefault(c[ansatz.free.index("m")] if "m" in ansatz.free else None,
                          []).append(i)
    out: list = [None] * len(coeffs)
    for m, idx in groups.items():
        values = _columns(ansatz, coeffs[idx])
        if m is not None:
            values["m"] = float(m)
        point = _try_eval(kind, params, ansatz, xi[idx], values)
        for k, i in enumerate(idx):
            if point is not None:
                out[i] = _Point(point.res[k], float(point.scale[k]), point.rows[:, k],
                                point.unit_rows[:, k], point.unit_mean)
            elif len(idx) > 1:
                out[i] = _evaluate(kind, params, ansatz, xi[[i]], coeffs[[i]])[0]
    return out


def _stack(points: list[_Point]) -> _Point:
    res, scale, rows, unit_rows, means = zip(*points)
    return _Point(np.array(res), np.array(scale), np.stack(rows, axis=1),
                  np.stack(unit_rows, axis=1),
                  None if means[0] is None else np.reshape(means, (-1, 1)))


# the tolerance, step budget and collapse rules of fit_travelling_wave (see its docstring)
RTOL = 1e-10
MAX_ITERATIONS = 200
TRIVIAL_WINDOW = 8
TRIVIAL_MIN_GAIN = 2.0
FLAT_TOL = 1e-6
# multi_start_fit: below this |A| a fit has collapsed to u = 0; within it
# (relative to 1 + |value|) two fits share a basin
MERGE_TOL = 1e-6


def fit_travelling_wave(kind: EquationKind, params: MediumParams,
                        ansatz: AnsatzFamily, start: dict[str, float],
                        n_points: int | None = None, rtol: float = RTOL) -> FitResult:
    """Damped Gauss-Newton on the collocation residual.

    start must provide every free parameter.  Collocation nodes are laid
    out once, from the starting shape, and held fixed so the objective
    does not move under the iteration.

    Statuses: converged (relative residual <= rtol), trivial, stalled (no
    trial lowers the residual), max_iterations (no verdict after
    MAX_ITERATIONS, 200, steps), singular_jacobian (dead end at deficient
    rank, or where the residual cannot be evaluated next to the iterate:
    at no trial step, or not to difference in m).  A free
    amplitude can slide along a solution family toward u = 0, which
    solves every equation.  The fit stops as trivial once, over the last
    TRIVIAL_WINDOW (8) accepted steps, |A| fell each time, the damping
    rejected a trial, and the relative residual gained less than
    TRIVIAL_MIN_GAIN (2x).  The rejection clause spares fits that shrink
    |A| with full steps on their way to a real solution.  Reading |A|
    only, fits and mirrors stop alike.  A constant solves every equation too,
    so a converged profile whose spread over the nodes is at most FLAT_TOL
    (1e-6) of its size (B -> 0) is reported as trivial.  n_points is
    the number of nodes (see node_count).

    This is multi_start_fit's lockstep loop with one start.
    """
    return _lockstep(kind, params, ansatz, [start], n_points, rtol)[0]


class StartError(ValueError):
    """A ValueError of the start at `index`: it cannot be laid out or evaluated."""

    def __init__(self, index: int, reason: ValueError):
        super().__init__(*reason.args)
        self.index = index


def _lstsq_failed(err, flag):
    raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")


def _solve(augs, rhss) -> list[np.ndarray]:
    """np.linalg.lstsq(aug, rhs, rcond=None)[0] of each system, bit for bit,
    in one call of its LAPACK gufunc for the stack: the same routine with
    the same inputs, rcond and floating-point error handling."""
    a = np.array(augs)
    with np.errstate(call=_lstsq_failed, invalid="call", over="ignore",
                     divide="ignore", under="ignore"):
        x = _lstsq(a, np.array(rhss)[..., None], np.finfo(float).eps * max(a.shape[1:]),
                   signature="ddd->ddid")[0]
    return list(x[..., 0])


def _lockstep(kind: EquationKind, params: MediumParams, ansatz: AnsatzFamily,
              starts: list[dict[str, float]], n_points: int | None = None,
              rtol: float = RTOL) -> list[FitResult]:
    """fit_travelling_wave from every start, the starts advanced together.

    Each start runs _iterate, which pauses wherever it needs a Jacobian, a
    damped least-squares step or a residual.  A round answers all the
    Jacobians pending, then all the solves, then all the residuals, each in
    one stacked call, so each result is the one-start fit's, bit for bit.
    """
    def jacobians(xi, cs, points):
        # one stacked call, or where a start's m column cannot be formed, one per start
        try:
            return list(_jacobian(kind, params, ansatz, np.array(xi),
                                  _columns(ansatz, np.array(cs)), _stack(points)))
        except ValueError:
            return [None] if len(xi) == 1 else [
                jacobians([x], [c], [p])[0] for x, c, p in zip(xi, cs, points)]

    stacked = {
        "jacobian": jacobians,
        "solve": _solve,
        "residual": lambda xi, cs: _evaluate(kind, params, ansatz, np.array(xi), np.array(cs)),
    }
    runs = [_iterate(kind, params, ansatz, start, n_points, rtol) for start in starts]
    pending, results = [None] * len(runs), [None] * len(runs)

    def send(i, reply=None):
        try:
            pending[i] = runs[i].send(reply)
        except StopIteration as done:
            pending[i], results[i] = None, done.value
        except ValueError as exc:
            raise StartError(i, exc) from exc

    for i in range(len(runs)):
        send(i)
    while any(pending):
        for need, call in stacked.items():
            idx = [i for i, ask in enumerate(pending) if ask and ask[0] == need]
            if idx:
                # lists, not iterators, to unpack: CPython builds the tuple it
                # unpacks from an iterator by resizing, and its tuple free list
                # then keeps every one (about 1 MiB over a few hundred fits)
                fields = list(zip(*[pending[i][1:] for i in idx]))
                for i, reply in zip(idx, call(*fields)):
                    send(i, reply)
    return results


def _iterate(kind, params, ansatz, start, n_points, rtol):
    """One start's damped Gauss-Newton.  It yields ("residual", xi, c),
    ("jacobian", xi, c, point) and ("solve", aug, rhs), is sent the point
    (None where c cannot be evaluated), the Jacobian (None where m cannot be
    differenced) and the least-squares step, and returns the FitResult.  It
    takes one SVD, as the fit ends: the rank of its last Jacobian, which the
    result reports and which tells a dead end's status."""
    missing = [p for p in ansatz.free if p not in start]
    if missing:
        raise ValueError(f"start is missing free parameters {missing}")
    extra = [p for p in start if p not in ansatz.free]
    if extra:
        raise ValueError(f"start names parameters that are not free: {extra}")
    n_free = len(ansatz.free)
    c = np.array([float(start[p]) for p in ansatz.free])
    for p, value in zip(ansatz.free, c.tolist()):
        if not math.isfinite(value):
            raise ValueError(f"start value {p} must be finite, got {value!r}")
    xi = collocation_points(ansatz, ansatz.values(c), node_count(ansatz, n_points))

    def rel(point):
        a = float(np.max(np.abs(point.res)))
        return a / point.scale if point.scale > 0.0 else a

    def norm(point):
        # np.linalg.norm's path for a 1-D array, bit for bit
        return math.sqrt(point.res.dot(point.res))

    def finish(status, n_iterations):
        rank = None if jac is None else int(np.linalg.matrix_rank(jac, rtol=1e-12))
        if status is None:      # a dead end: no trial was accepted
            status = "singular_jacobian" if rank < n_free or not evaluable else "stalled"
        flat = np.ptp(cur.rows[0]) <= FLAT_TOL * np.max(np.abs(cur.rows[0]))
        status = "trivial" if status == "converged" and flat else status
        return FitResult(_canonical(ansatz, c), cur_rel, status, n_iterations, rank)

    cur = yield "residual", xi, c
    if cur is None:
        raise ValueError("ansatz cannot be evaluated at the start values")
    cur_rel, cur_norm = rel(cur), norm(cur)
    jac = None
    mu = 1e-3   # Levenberg-Marquardt damping, shared across iterations
    i_amp = ansatz.free.index("A") if "A" in ansatz.free else None
    # (|A|, relative residual, a trial was rejected) per accepted step
    history = deque([(abs(c[i_amp]), cur_rel, False)] if i_amp is not None else [],
                    maxlen=TRIVIAL_WINDOW + 1)
    for it in range(1, MAX_ITERATIONS + 1):
        if cur_rel <= rtol:
            return finish("converged", it - 1)
        columns = yield "jacobian", xi, c, cur
        if columns is None:     # m cannot be differenced next to c
            return finish("singular_jacobian", it)
        jac = columns       # the Jacobian whose rank the fit reports
        # Marquardt scaling keeps the damping meaningful when the
        # columns (parameters) live on very different scales
        col = np.sqrt(np.sum(jac * jac, axis=0))
        col[col == 0.0] = 1.0
        # [J; sqrt(mu) diag(col)] step = [-r; 0]: a trial rewrites the diagonal
        aug = np.vstack([jac, np.zeros((n_free, n_free))])
        rhs = np.concatenate([-cur.res, np.zeros(n_free)])
        accepted = evaluable = False
        for n_trial in range(12):
            np.fill_diagonal(aug[len(jac):], math.sqrt(mu) * col)
            step = yield "solve", aug, rhs
            trial_c = c + step
            trial = yield "residual", xi, trial_c
            evaluable = evaluable or trial is not None
            trial_norm = math.inf if trial is None else norm(trial)
            if trial_norm < cur_norm:
                c, cur, cur_rel, cur_norm = trial_c, trial, rel(trial), trial_norm
                accepted = True
                mu = max(mu / 3.0, 1e-14)
                break
            mu *= 10.0
            if mu > 1e12:
                break
        if not accepted:
            return finish("converged" if cur_rel <= 10.0 * rtol else None, it)
        if np.max(np.abs(step) / (1.0 + np.abs(c))) < 1e-13:
            # the iteration has stopped moving; only a small residual
            # makes that convergence rather than a dead end
            return finish("converged" if cur_rel <= 10.0 * rtol else "stalled", it)
        if i_amp is not None:
            history.append((abs(c[i_amp]), cur_rel, n_trial > 0))
            amps, rels, rejected = zip(*history)
            if (len(history) == history.maxlen and any(rejected[1:])
                    and all(new < old for old, new in zip(amps, amps[1:]))
                    and rels[0] < TRIVIAL_MIN_GAIN * rels[-1]):
                return finish("trivial", it)
    return finish("max_iterations", MAX_ITERATIONS)


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
    kdv soliton of each amplitude (make_kdv_soliton)."""
    sign = 1.0 if params.alpha > 0 else -1.0
    out = []
    # Python floats: an overflowing B or v is inf, which make_kdv_soliton
    # refuses by name, where numpy's scalars would warn first
    for mag in np.geomspace(span[0], span[1], n).tolist():
        sol = make_kdv_soliton(params, sign * mag)
        out.append({"A": sol.A, "B": sol.B, "v": sol.v})
    return out


def multi_start_fit(kind: EquationKind, params: MediumParams,
                    ansatz: AnsatzFamily, starts: list[dict[str, float]],
                    **fit_kwargs) -> tuple[list[FitBasin], list[FitResult]]:
    """Fit from every start; cluster the converged results into basins.

    The starts advance in lockstep, each round one stacked residual,
    Jacobian and least-squares solve for all of them, and each result is
    bit for bit the one fit_travelling_wave gives from that start alone.
    Results with |A| below MERGE_TOL collapse onto the trivial zero profile
    and are not counted as a basin.  Returns (basins sorted by population, all raw
    results); a start that cannot be laid out or evaluated raises StartError.
    """
    results = _lockstep(kind, params, ansatz, starts, **fit_kwargs)
    basins: list[FitBasin] = []
    for r in results:
        if not r.converged:
            continue
        if "A" in r.values and abs(r.values["A"]) < MERGE_TOL:
            continue
        for i, b in enumerate(basins):
            if all(abs(r.values[p] - b.values[p]) <= MERGE_TOL * (1.0 + abs(b.values[p]))
                   for p in ansatz.free):
                basins[i] = replace(b, count=b.count + 1)
                break
        else:
            basins.append(FitBasin(values=r.values, residual=r.residual, count=1))
    basins.sort(key=lambda b: -b.count)
    return basins, results


# --- constraint counting ------------------------------------------------------

def count_constraints(kind: EquationKind, params: MediumParams,
                      ansatz: AnsatzFamily) -> int:
    """Rank of the residual Jacobian over the free parameters at the
    catalog solution of the equation and shape: the first FAMILIES row of
    that (kind, shape), its amplitude of alpha's sign, with every parameter
    that ansatz.fixed pins at the pinned value.  A pinned point off the
    solution manifold is refused.

    n_free minus this rank is the local dimension of the solution family:
    e.g. the single-bell shape under the first-order equation leaves a
    one-parameter family (amplitude), while the second-order equation
    pins every parameter.
    """
    return int(np.linalg.matrix_rank(_manifold_jacobian(kind, params, ansatz), rtol=1e-6))


def _manifold_jacobian(kind: EquationKind, params: MediumParams,
                       ansatz: AnsatzFamily) -> np.ndarray:
    """The Jacobian whose rank count_constraints reads, at the catalog solution."""
    rows = [(make, keys) for make, keys, row_kind, shape, *_ in FAMILIES.values()
            if (row_kind, shape) == (kind, ansatz.shape)]
    if not rows:
        raise ValueError(f"no catalog solution for ({kind.value}, {ansatz.shape})")
    make, keys = rows[0]
    keys = signed(keys, math.copysign(1.0, params.alpha))
    wave = make(params, **{key: ansatz.fixed.get(key, value) for key, value in keys.items()})
    values = {name: getattr(wave, name) for name in SHAPE_PARAMS[ansatz.shape]} | ansatz.fixed
    xi = collocation_points(ansatz, values, max(4 * len(ansatz.free), 12))
    point = _fit_residual(kind, params, ansatz, xi, values)
    worst = float(np.max(np.abs(point.res)))
    if worst > 1e-6 * point.scale:
        raise ValueError("the catalog point is not on the solution manifold "
                         f"(relative residual {worst / point.scale:.3e})")
    return _jacobian(kind, params, ansatz, xi, values, point)
