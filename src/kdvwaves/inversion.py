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

import numpy as np

from .equations import (SOLUTION_TOL, BottomProfile, EquationId, EquationKind, Field,
                        Grid, ResidualReport, _required_orders, derivative_set, residual,
                        residual_report, residual_rows, solution_fields)
from .waves import (Frame, MediumParams, SolitonLadder, make_fifth_order_soliton,
                    make_gardner_soliton, make_kdv2_soliton, make_kdv_cnoidal,
                    make_kdv_soliton, make_kdv_superposition)

__all__ = [
    "RandomField",
    "InversionCase",
    "algebraic_defect",
    "negative_control",
    "ramp_bottom",
    "catalog",
    "default_matrix",
    "run_matrix",
    "run_case",
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


def negative_control(u: Field, ut: Field, eq: EquationId, params: MediumParams,
                     backend: str = "spectral") -> ResidualReport:
    """Residual of the negated pair with alpha left unchanged.

    For any genuinely nonlinear solution this must NOT be small: the
    quadratic term keeps its sign while the rest flips, so the residual
    is of the order of the quadratic term itself.  A small value here
    would mean the inversion checks were passing vacuously.
    """
    report, _ = residual(*_negated(u, ut), eq, params, backend=backend)
    return report


def ramp_bottom(grid: Grid, height: float = 0.3) -> BottomProfile:
    """Trapezoidal ramp: flat, up, plateau, down, flat over one period.

    Knots sit halfway between grid points so the piecewise-linear kinks
    never coincide with samples (kinks on samples would make the slope
    ambiguous there).
    """
    def knot_x(frac: float) -> float:
        return grid.x0 + (int(frac * grid.n) + 0.5) * grid.dx

    return BottomProfile((
        (knot_x(0.15), 0.0),
        (knot_x(0.35), height),
        (knot_x(0.65), height),
        (knot_x(0.85), 0.0),
    ))


DEFAULT_MEDIUM = MediumParams(alpha=0.1, beta=0.1)


def catalog(params: MediumParams) -> list[tuple]:
    """(label, kind, medium, solution, grid) of one closed-form solution per
    family and ladder, each on a grid suited to it (one wavelength for the
    periodic waves).

    Amplitudes take the sign of alpha, so catalog(params.flipped()) is the
    mirror catalog.  The fifth-order and Gardner solitons set their own
    tau (0.35 and 0).
    """
    sign = math.copysign(1.0, params.alpha)
    p5 = MediumParams(params.alpha, params.beta, tau=0.35)
    pg = MediumParams(params.alpha, params.beta, tau=0.0)
    cn = make_kdv_cnoidal(params, sign, 0.9)
    sol = make_kdv_soliton(params, sign)
    sup = make_kdv_superposition(params, sign, 0.5, sol.B)
    kdv = EquationKind.KDV
    return [
        ("soliton/kdv", kdv, params, sol, Grid(-50.0, 100.0, 1024)),
        ("cnoidal/kdv", kdv, params, cn, Grid(0.0, cn.wavelength(), 1024)),
        ("superposition/kdv", kdv, params, sup, Grid(0.0, sup.wavelength(), 1024)),
        ("soliton/kdv2", EquationKind.KDV2, params, make_kdv2_soliton(params),
         Grid(-40.0, 80.0, 1024)),
        ("soliton/fifth_order", EquationKind.FIFTH_ORDER, p5, make_fifth_order_soliton(p5),
         Grid(-60.0, 120.0, 1024)),
        ("soliton/gardner", EquationKind.GARDNER, pg, make_gardner_soliton(pg, Delta=1.0),
         Grid(-40.0, 80.0, 1024)),
        ("two_soliton/kdv", kdv, params, SolitonLadder((sign, 2.0 * sign)),
         Grid(-64.0, 128.0, 1024)),
        ("three_soliton/kdv", kdv, params, SolitonLadder((sign, 2.0 * sign, 3.0 * sign)),
         Grid(-48.0, 96.0, 1024)),
    ]


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


def run_matrix(cases: list[InversionCase], backend: str = "spectral",
               tolerance: float = ALGEBRAIC_TOL) -> list[dict]:
    """All applicable checks of each case, as flat JSON-friendly dicts in
    the cases' order; the algebraic defect passes at relative <= tolerance.

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
                rows[i] = _row(cases[i], tolerance, *values)
        del upright, mirrored       # this stack's derivative sets, before the next's
    return rows


def _relative(res: np.ndarray, scale: np.ndarray) -> list[float]:
    """Each row's max|res| over its scale, as residual_report takes it."""
    return [float(r / s) if s > 0.0 else 0.0
            for r, s in zip(np.max(np.abs(res), axis=-1), scale)]


def _row(case: InversionCase, tolerance: float, defect: float, *solution: float) -> dict:
    """One sweep row; a solution's also takes its upright, mirrored and control residuals."""
    row = {"label": case.label, "equation": case.eq.label(),
           "kind": "solution" if case.is_solution else "random",
           "algebraic_defect_value": defect, "algebraic_pass": defect <= tolerance,
           "algebraic_tol": tolerance}
    if solution:
        upright, mirrored, control = solution
        row.update(upright_residual=upright, upright_pass=upright <= SOLUTION_TOL,
                   mirrored_residual=mirrored, mirrored_pass=mirrored <= SOLUTION_TOL,
                   control_residual=control, control_min=CONTROL_MIN,
                   control_pass=control >= CONTROL_MIN)
    row["pass"] = all(v for k, v in row.items() if k.endswith("_pass"))
    return row


def run_case(case: InversionCase, backend: str = "spectral",
             tolerance: float = ALGEBRAIC_TOL) -> dict:
    """run_matrix's row of one case."""
    return run_matrix([case], backend, tolerance)[0]
