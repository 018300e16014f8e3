"""Sign-inversion checks: -u solves the equation with alpha negated.

Every term of the four residual operators is odd under the joint map
(u, u_t, alpha) -> (-u, -u_t, -alpha): the quadratic term picks up the
sign from alpha, the cubic term from u itself, and the linear and
mixed-dispersion terms from u directly.  The depth term (delta, the
bottom profile) is linear in u, so an uneven bottom changes nothing.

Two levels of evidence, from strongest to most concrete:

* algebraic -- for arbitrary (u, u_t), the mirrored residual is exactly
  the negated residual.  The defect max|r(u, u_t; a) + r(-u, -u_t; -a)|
  is zero in exact arithmetic, and the implementation keeps it bitwise
  zero because every floating-point operation involved is sign-symmetric.
* solution -- negating a closed-form solution gives a residual under the
  mirrored equation as small as the upright one, while keeping alpha
  unchanged (the negative control) leaves an O(1) residual.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .equations import (SOLUTION_TOL, BottomProfile, EquationId, EquationKind, Field,
                        Grid, ResidualReport, _required_orders, derivative_set,
                        relative_residual, residual, residual_report, residual_rows,
                        solution_fields)
from .waves import (Frame, MediumParams, make_fifth_order_soliton, make_gardner_soliton,
                    make_kdv2_soliton, make_kdv_cnoidal, make_kdv_soliton,
                    make_kdv_superposition, make_soliton_ladder)

__all__ = [
    "FAMILIES",
    "signed",
    "RandomField",
    "InversionCase",
    "algebraic_defect",
    "ramp_bottom",
    "catalog",
    "default_matrix",
    "run_matrix",
]

ALGEBRAIC_TOL = 1e-13
CONTROL_MIN = 1e-3


@dataclass(frozen=True)
class RandomField:
    """Band-limited random (u, u_t) pair, deterministic in the seed.

    Both fields keep only the lowest third of the spectrum (so all
    derivatives up to fifth order stay resolved), have zero mean, and u
    is normalised to max|u| = amplitude.
    """

    seed: int
    amplitude: float = 1.0

    def build(self, grid: Grid) -> tuple[Field, Field]:
        rng = np.random.default_rng(self.seed)
        u = self._draw(rng, grid)
        u *= self.amplitude / np.max(np.abs(u))
        ut = self._draw(rng, grid)
        return Field(grid, u), Field(grid, ut)

    @staticmethod
    def _draw(rng: np.random.Generator, grid: Grid) -> np.ndarray:
        coeffs = np.fft.rfft(rng.standard_normal(grid.n))
        cutoff = (grid.n // 2) * 2 // 6  # lowest third of the rfft bins
        coeffs[0] = 0.0
        coeffs[cutoff + 1:] = 0.0
        return np.fft.irfft(coeffs, grid.n)


@dataclass
class InversionCase:
    label: str
    eq: EquationId
    params: MediumParams
    u: Field
    ut: Field
    is_solution: bool


def _negated(u: Field, ut: Field) -> tuple[Field, Field]:
    """The mirrored pair (-u, -u_t)."""
    return Field(u.grid, -u.values, u.time), Field(ut.grid, -ut.values, ut.time)


def algebraic_defect(u: Field, ut: Field, eq: EquationId,
                     params: MediumParams) -> ResidualReport:
    """The report of r(u, u_t; alpha) + r(-u, -u_t; -alpha) against ALGEBRAIC_TOL."""
    rep_p, res_p = residual(u, ut, eq, params)
    rep_m, res_m = residual(*_negated(u, ut), eq, params.flipped())
    return residual_report(eq.label(), res_p.values + res_m.values,
                           max(rep_p.scale, rep_m.scale), u.grid.dx, ALGEBRAIC_TOL)


def ramp_bottom(grid: Grid) -> BottomProfile:
    """Trapezoidal ramp of height 0.3: flat, up, plateau, down, flat over one period.

    Knots sit halfway between grid points so the piecewise-linear kinks
    never coincide with samples (kinks on samples would make the slope
    ambiguous there).
    """
    def knot_x(frac: float) -> float:
        return grid.x0 + (int(frac * grid.n) + 0.5) * grid.dx

    return BottomProfile((
        (knot_x(0.15), 0.0),
        (knot_x(0.35), 0.3),
        (knot_x(0.65), 0.3),
        (knot_x(0.85), 0.0),
    ))


DEFAULT_MEDIUM = MediumParams(alpha=0.1, beta=0.1)


# family -> (its constructor from (medium, **keys), its keys at their catalog
# values for alpha > 0, the equation it solves, its fit shape (None for the
# ladders), its catalog label (None: not in the catalog), its catalog grid's
# (x0, length) at n = 1024 (None: one period), the catalog's tau (None: the medium's))
_KDV = EquationKind.KDV
FAMILIES = {
    "kdv_soliton": (make_kdv_soliton, {"A": 1.0}, _KDV, "sech2", "soliton/kdv",
                    (-50.0, 100.0), None),
    "kdv_cnoidal": (make_kdv_cnoidal, {"A": 1.0, "m": 0.9}, _KDV, "cn2", "cnoidal/kdv",
                    None, None),
    "kdv_superposition_plus": (partial(make_kdv_superposition, sign=+1),
                               {"A": 1.0, "m": 0.5, "B": None}, _KDV, "dn2_pm_cndn",
                               "superposition/kdv", None, None),
    "kdv_superposition_minus": (partial(make_kdv_superposition, sign=-1),
                                {"A": 1.0, "m": 0.5, "B": None}, _KDV, "dn2_pm_cndn",
                                None, None, None),
    "kdv2_soliton": (make_kdv2_soliton, {}, EquationKind.KDV2, "sech2", "soliton/kdv2",
                     (-40.0, 80.0), None),
    "fifth_order_soliton": (make_fifth_order_soliton, {}, EquationKind.FIFTH_ORDER, "sech4",
                            "soliton/fifth_order", (-60.0, 120.0), 0.35),
    "gardner_soliton": (make_gardner_soliton, {"Delta": 1.0},
                        EquationKind.GARDNER, "gardner", "soliton/gardner", (-40.0, 80.0), 0.0),
    "two_soliton": (make_soliton_ladder, {"amplitudes": (1.0, 2.0)}, _KDV, None,
                    "two_soliton/kdv", (-64.0, 128.0), None),
    "three_soliton": (make_soliton_ladder, {"amplitudes": (1.0, 2.0, 3.0)}, _KDV, None,
                      "three_soliton/kdv", (-48.0, 96.0), None),
}


def signed(keys: dict, sign: float) -> dict:
    """The keys with the amplitude keys (A, amplitudes) multiplied by sign."""
    return {key: value * sign if key == "A"
            else tuple(a * sign for a in value) if key == "amplitudes" else value
            for key, value in keys.items()}


def catalog(params: MediumParams) -> list[tuple]:
    """(label, kind, medium, solution, grid) of each labelled FAMILIES row,
    in table order.  Amplitudes take the sign of alpha, so
    catalog(params.flipped()) is the mirror catalog."""
    sign = math.copysign(1.0, params.alpha)
    cases = []
    for make, keys, kind, _, label, span, tau in FAMILIES.values():
        if label is not None:
            medium = params if tau is None else MediumParams(params.alpha, params.beta, tau=tau)
            solution = make(medium, **signed(keys, sign))
            span = span or (0.0, solution.wavelength())
            cases.append((label, kind, medium, solution, Grid(*span, 1024)))
    return cases


def default_matrix(params: MediumParams | None = None,
                   seeds: range = range(5)) -> list[InversionCase]:
    """Random fields for all four equations (flat and ramp bottom) plus
    the catalog's closed-form solutions."""
    p = params or DEFAULT_MEDIUM
    p_tension = MediumParams(p.alpha, p.beta, tau=0.2, delta=p.delta)
    grid = Grid(-64.0, 128.0, 1024)
    ramp = ramp_bottom(grid)
    fields = {seed: RandomField(seed).build(grid) for seed in seeds}
    cases: list[InversionCase] = []

    for kind in EquationKind:
        kp = p_tension if kind in (EquationKind.FIFTH_ORDER, EquationKind.GARDNER) else p
        for bottom, tag in ((None, "flat"), (ramp, "ramp")):
            bp = MediumParams(kp.alpha, kp.beta, kp.tau,
                              delta=0.05 if bottom is not None else 0.0)
            for seed, (u, ut) in fields.items():
                cases.append(InversionCase(
                    label=f"random/{kind.value}/{tag}/seed{seed}",
                    eq=EquationId(kind, Frame.FIXED, bottom),
                    params=bp, u=u, ut=ut, is_solution=False))

    for label, kind, medium, solution, sgrid in catalog(p):
        u, ut = solution_fields(solution, medium, sgrid)
        cases.append(InversionCase(label, EquationId(kind), medium, u, ut,
                                   is_solution=True))
    return cases


def run_matrix(cases: list[InversionCase], backend: str = "spectral") -> list[dict]:
    """All applicable checks of each case, as flat JSON-friendly dicts in
    the cases' order; the algebraic defect passes at relative <= ALGEBRAIC_TOL.

    The cases on one grid form a stack U of their distinct (u, u_t) pairs,
    which takes one derivative set of U and one transformed from -U, of all
    the orders its equations read.  Each (equation, medium) group of a stack
    takes one assembly of the upright residual, one of the mirrored and, for
    solutions, one of the control.  A row is bit for bit its case's alone.
    """
    diffs = derivative_set(backend)
    stacks: dict[Grid, dict[tuple, list[int]]] = {}
    for i, c in enumerate(cases):
        if c.u.grid != c.ut.grid:
            raise ValueError(f"{c.label}: u and u_t must share a grid")
        stacks.setdefault(c.u.grid, {}).setdefault((c.eq, c.params, c.is_solution), []).append(i)
    key = [(id(c.u), id(c.ut)) for c in cases]
    rows: list[dict] = [{}] * len(cases)
    for grid, groups in stacks.items():
        stack = {key[i]: cases[i] for members in groups.values() for i in members}
        slot = {k: j for j, k in enumerate(stack)}
        u = np.array([c.u.values for c in stack.values()])
        ut = np.array([c.ut.values for c in stack.values()])
        orders = sorted({o for eq, _, _ in groups for o in _required_orders(eq.kind)})
        upright, mirrored = [(f, f_t, diffs(f, grid, orders)) for f, f_t in ((u, ut), (-u, -ut))]
        for (eq, params, is_solution), members in groups.items():
            sel = [slot[key[i]] for i in members]

            def assemble(side, p):
                f, f_t, d = side
                derivs = {o: d[o][sel] for o in _required_orders(eq.kind)}
                return residual_rows(f[sel], f_t[sel], derivs, eq, p, grid)
            res_p, scale_p = assemble(upright, params)
            res_m, scale_m = assemble(mirrored, params.flipped())
            checks = [_relative(res_p + res_m, np.maximum(scale_p, scale_m))]
            if is_solution:
                checks += [_relative(res_p, scale_p), _relative(res_m, scale_m),
                           _relative(*assemble(mirrored, params))]
            for i, values in zip(members, zip(*checks)):
                rows[i] = _row(cases[i], *values)
        del upright, mirrored       # this stack's derivative sets, before the next's
    return rows


def _relative(res: np.ndarray, scale: np.ndarray) -> list[float]:
    """Each row's max|res| over its scale, as residual_report takes it."""
    return list(map(relative_residual, np.max(np.abs(res), axis=-1), scale))


def _row(case: InversionCase, defect: float, *solution: float) -> dict:
    """One sweep row; a solution's also takes its upright, mirrored and control residuals."""
    row = {"label": case.label, "equation": case.eq.label(),
           "kind": "solution" if case.is_solution else "random",
           "algebraic_defect_value": defect, "algebraic_pass": defect <= ALGEBRAIC_TOL,
           "algebraic_tol": ALGEBRAIC_TOL}
    if solution:
        upright, mirrored, control = solution
        row.update(upright_residual=upright, upright_pass=upright <= SOLUTION_TOL,
                   mirrored_residual=mirrored, mirrored_pass=mirrored <= SOLUTION_TOL,
                   control_residual=control, control_min=CONTROL_MIN,
                   control_pass=control >= CONTROL_MIN)
    row["pass"] = all(v for k, v in row.items() if k.endswith("_pass"))
    return row
