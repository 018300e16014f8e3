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

from .equations import (BottomProfile, EquationId, EquationKind, Field, Grid,
                        ResidualReport, residual, spectral_derivative)
from .waves import (Frame, MediumParams, SolitonLadder, TravellingWave,
                    make_fifth_order_soliton, make_gardner_soliton,
                    make_kdv2_soliton, make_kdv_cnoidal, make_kdv_soliton,
                    make_kdv_superposition, time_derivative)

__all__ = [
    "RandomField",
    "InversionCase",
    "InversionDefect",
    "algebraic_defect",
    "mirrored_residual",
    "negative_control",
    "ramp_bottom",
    "catalog",
    "default_matrix",
    "run_case",
]

ALGEBRAIC_TOL = 1e-13
SOLUTION_TOL = 1e-8
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


@dataclass(frozen=True)
class InversionDefect:
    equation: str
    defect: float
    scale: float
    relative: float
    passed: bool
    tolerance: float


@dataclass
class InversionCase:
    label: str
    eq: EquationId
    params: MediumParams
    u: Field
    ut: Field
    is_solution: bool


def algebraic_defect(u: Field, ut: Field, eq: EquationId, params: MediumParams,
                     tolerance: float = ALGEBRAIC_TOL,
                     backend: str = "spectral") -> InversionDefect:
    """max|r(u, u_t; alpha) + r(-u, -u_t; -alpha)| over the grid."""
    rep_p, res_p = residual(u, ut, eq, params, backend=backend)
    rep_m, res_m = residual(Field(u.grid, -u.values, u.time),
                            Field(ut.grid, -ut.values, ut.time),
                            eq, params.flipped(), backend=backend)
    defect = float(np.max(np.abs(res_p.values + res_m.values)))
    scale = max(rep_p.scale, rep_m.scale)
    relative = defect / scale if scale > 0.0 else 0.0
    return InversionDefect(
        equation=eq.label(),
        defect=defect,
        scale=scale,
        relative=relative,
        passed=bool(relative <= tolerance),
        tolerance=tolerance,
    )


def mirrored_residual(u: Field, ut: Field, eq: EquationId, params: MediumParams,
                      tolerance: float = SOLUTION_TOL,
                      backend: str = "spectral") -> ResidualReport:
    """Residual of the negated pair under the alpha-negated equation."""
    report, _ = residual(Field(u.grid, -u.values, u.time),
                         Field(ut.grid, -ut.values, ut.time),
                         eq, params.flipped(), tolerance=tolerance,
                         backend=backend)
    return report


def negative_control(u: Field, ut: Field, eq: EquationId, params: MediumParams,
                     backend: str = "spectral") -> ResidualReport:
    """Residual of the negated pair with alpha left unchanged.

    For any genuinely nonlinear solution this must NOT be small: the
    quadratic term keeps its sign while the rest flips, so the residual
    is of the order of the quadratic term itself.  A small value here
    would mean the inversion checks were passing vacuously.
    """
    report, _ = residual(Field(u.grid, -u.values, u.time),
                         Field(ut.grid, -ut.values, ut.time),
                         eq, params, backend=backend)
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
    sup = make_kdv_superposition(
        params, sign, 0.5, math.sqrt(3.0 * params.alpha * sign / (4.0 * params.beta)))
    kdv = EquationKind.KDV
    return [
        ("soliton/kdv", kdv, params, make_kdv_soliton(params, sign),
         Grid(-50.0, 100.0, 1024)),
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


def solution_fields(solution: TravellingWave | SolitonLadder, params: MediumParams,
                    grid: Grid) -> tuple[Field, Field]:
    """(u, u_t) at t = 0: u_t is -v u_x (spectral) for a travelling wave,
    an eighth-order time difference for a ladder."""
    if isinstance(solution, SolitonLadder):
        u = Field(grid, solution.evaluate(grid.x, 0.0, params))
        return u, Field(grid, time_derivative(
            lambda x, t: solution.evaluate(x, t, params), grid.x, 0.0))
    u = Field(grid, solution.evaluate(grid.x, 0.0, Frame.FIXED))
    return u, Field(grid, -solution.speed_in(Frame.FIXED) * spectral_derivative(u, 1).values)


def default_matrix(params: MediumParams | None = None,
                   seeds: range = range(5)) -> list[InversionCase]:
    """Random fields for all four equations (flat and ramp bottom) plus
    the catalog's closed-form solutions."""
    p = params or DEFAULT_MEDIUM
    p_tension = MediumParams(p.alpha, p.beta, tau=0.2, delta=p.delta)
    grid = Grid(-64.0, 128.0, 1024)
    ramp = ramp_bottom(grid)
    cases: list[InversionCase] = []

    for kind in EquationKind:
        kp = p_tension if kind in (EquationKind.FIFTH_ORDER, EquationKind.GARDNER) else p
        for bottom, tag in ((None, "flat"), (ramp, "ramp")):
            bp = MediumParams(kp.alpha, kp.beta, kp.tau,
                              delta=0.05 if bottom is not None else 0.0)
            for seed in seeds:
                u, ut = RandomField(seed).build(grid)
                cases.append(InversionCase(
                    label=f"random/{kind.value}/{tag}/seed{seed}",
                    eq=EquationId(kind, Frame.FIXED, bottom),
                    params=bp, u=u, ut=ut, is_solution=False))

    for label, kind, medium, solution, sgrid in catalog(p):
        u, ut = solution_fields(solution, medium, sgrid)
        cases.append(InversionCase(label, EquationId(kind), medium, u, ut,
                                   is_solution=True))
    return cases


def run_case(case: InversionCase, backend: str = "spectral") -> dict:
    """All applicable checks for one case, as a flat JSON-friendly dict."""
    row: dict = {"label": case.label, "equation": case.eq.label(),
                 "kind": "solution" if case.is_solution else "random"}
    alg = algebraic_defect(case.u, case.ut, case.eq, case.params, backend=backend)
    row.update(algebraic_defect_value=alg.relative, algebraic_pass=alg.passed,
               algebraic_tol=alg.tolerance)
    passed = alg.passed
    if case.is_solution:
        upright, _ = residual(case.u, case.ut, case.eq, case.params,
                              tolerance=SOLUTION_TOL, backend=backend)
        mirrored = mirrored_residual(case.u, case.ut, case.eq, case.params,
                                     backend=backend)
        control = negative_control(case.u, case.ut, case.eq, case.params,
                                   backend=backend)
        control_ok = control.relative >= CONTROL_MIN
        row.update(upright_residual=upright.relative, upright_pass=upright.passed,
                   mirrored_residual=mirrored.relative, mirrored_pass=mirrored.passed,
                   control_residual=control.relative, control_min=CONTROL_MIN,
                   control_pass=control_ok)
        passed = passed and upright.passed and mirrored.passed and control_ok
    row["pass"] = passed
    return row
