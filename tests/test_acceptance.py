"""Desk-scale acceptance battery.

Each test exercises one headline property of the package at its stated
tolerance and prints a single PASS/FAIL line with the measured number,
so a full run reads as a checklist.  Everything here must run in
seconds, not minutes.
"""

import math

import numpy as np
from scipy import integrate

from kdvwaves.elliptic import elliptic_E, elliptic_K, jacobi_sn_cn_dn
from kdvwaves.equations import (
    EquationId,
    EquationKind,
    Field,
    Grid,
    residual,
    solution_fields,
    travelling_residual,
)
from kdvwaves.evolve import EvolveConfig, evolve, monitors
from kdvwaves.fitting import (
    AnsatzFamily,
    amplitude_starts,
    count_constraints,
    fit_travelling_wave,
    multi_start_fit,
)
from kdvwaves.inversion import (
    RandomField,
    algebraic_defect,
    catalog,
    default_matrix,
    ramp_bottom,
)
from kdvwaves.waves import (
    Frame,
    MediumParams,
    SolitonLadder,
    make_fifth_order_soliton,
    make_gardner_soliton,
    make_kdv2_soliton,
    make_kdv_cnoidal,
    make_kdv_soliton,
    make_kdv_superposition,
)
from reference_derivatives import negative_control

P = MediumParams(alpha=0.1, beta=0.1)
PG = MediumParams(alpha=0.1, beta=0.3, tau=0.0)
P5 = MediumParams(alpha=0.1, beta=0.1, tau=0.35)


def _check(line: str, ok: bool):
    print(f"{'PASS' if ok else 'FAIL'}  {line}")
    assert ok, line


def _solutions():
    """The catalog of P, which verify and symmetry check, and the
    beta = 0.3 Gardner soliton, each on its own n=1024 grid."""
    return catalog(P) + [
        ("soliton/gardner beta=0.3", EquationKind.GARDNER, PG,
         make_gardner_soliton(PG, Delta=1.0), Grid(-40.0, 80.0, 1024))]


def _ladder_residual(amplitudes, params, grid_span, t, kind=EquationKind.KDV):
    """Residual of an interacting state at time t, window tracking it."""
    ladder = SolitonLadder(amplitudes)
    x0, length = grid_span
    grid = Grid(x0, length, 1024)
    u, ut = ladder.fields(grid.x, t, params)
    report, _ = residual(Field(grid, u, t), Field(grid, ut, t), EquationId(kind), params)
    return report


def test_exact_solutions_satisfy_their_equations():
    tol = 1e-8
    worst = 0.0
    for label, kind, params, solution, grid in _solutions():
        report, _ = travelling_residual(solution, EquationId(kind), params, grid,
                                        tolerance=tol)
        worst = max(worst, report.relative)
    # interacting states, window following the group at each probe time
    for t in (-50.0, 0.0, 50.0):
        r2 = _ladder_residual((1.0, 2.0), P, (-64.0 + 1.075 * t, 128.0), t)
        r3 = _ladder_residual((1.0, 2.0, 3.0), P, (-48.0 + 1.1 * t, 96.0), t)
        worst = max(worst, r2.relative, r3.relative)
    _check(f"closed-form residuals: worst relative {worst:.3e} <= {tol:g}",
           worst <= tol)


def test_sign_inversion_identity_holds_algebraically():
    tol = 1e-13
    cases = default_matrix(seeds=range(20))
    worst = max(algebraic_defect(c.u, c.ut, c.eq, c.params).relative
                for c in cases)
    n_random = sum(1 for c in cases if not c.is_solution)
    _check(f"inversion identity over {len(cases)} cases "
           f"({n_random} random, flat+ramp): worst defect {worst:.3e} <= {tol:g}",
           worst <= tol)


def test_negated_solutions_solve_the_mirror_equation():
    tol = 1e-8
    worst = 0.0
    for label, kind, params, solution, grid in _solutions():
        u, ut = solution_fields(solution, params, grid)
        report, _ = residual(Field(grid, -u.values), Field(grid, -ut.values),
                             EquationId(kind), params.flipped(), tolerance=tol)
        worst = max(worst, report.relative)
    # negated ladders under the flipped medium
    for t in (0.0, 37.0):
        r = _ladder_residual((-1.0, -2.0), P.flipped(),
                             (-64.0 + 1.075 * t, 128.0), t)
        worst = max(worst, r.relative)
    _check(f"negated solutions under flipped nonlinearity: "
           f"worst relative {worst:.3e} <= {tol:g}", worst <= tol)


def test_elliptic_kernel_matches_independent_oracles():
    # (a) the defining ODE system, integrated at tight tolerance
    worst_ode = 0.0
    worst_identity = 0.0
    for m in (0.1, 0.5, 0.9):
        u_max = 4.0 * elliptic_K(m)
        u_eval = np.linspace(0.0, u_max, 100)

        def rhs(_, y, m=m):
            sn, cn, dn = y
            return [cn * dn, -sn * dn, -m * sn * cn]

        sol = integrate.solve_ivp(rhs, (0.0, u_max), [0.0, 1.0, 1.0],
                                  t_eval=u_eval, method="DOP853",
                                  rtol=1e-12, atol=1e-13)
        sn, cn, dn = jacobi_sn_cn_dn(u_eval, m)
        worst_ode = max(worst_ode,
                        np.max(np.abs(sn - sol.y[0])),
                        np.max(np.abs(cn - sol.y[1])),
                        np.max(np.abs(dn - sol.y[2])))
        worst_identity = max(worst_identity,
                             np.max(np.abs(sn * sn + cn * cn - 1.0)),
                             np.max(np.abs(dn * dn - (1.0 - m * sn * sn))))
    # (b) quadrature for the complete integrals
    k_ref, _ = integrate.quad(
        lambda t: 1.0 / math.sqrt(1.0 - 0.5 * math.sin(t) ** 2),
        0.0, math.pi / 2, epsabs=0.0, epsrel=1e-13)
    e_ref, _ = integrate.quad(
        lambda t: math.sqrt(1.0 - 0.5 * math.sin(t) ** 2),
        0.0, math.pi / 2, epsabs=0.0, epsrel=1e-13)
    rel_k = abs(elliptic_K(0.5) / k_ref - 1.0)
    rel_e = abs(elliptic_E(0.5) / e_ref - 1.0)
    ok = (worst_ode <= 1e-10 and worst_identity <= 1e-12
          and rel_k <= 1e-12 and rel_e <= 1e-12)
    _check(f"elliptic kernel: ode oracle {worst_ode:.3e} <= 1e-10, "
           f"identities {worst_identity:.3e} <= 1e-12, "
           f"K/E quadrature {max(rel_k, rel_e):.3e} <= 1e-12", ok)


def test_periodic_waves_degenerate_to_the_soliton():
    m = 1.0 - 1e-9
    sol = make_kdv_soliton(P, 1.0)

    cn_wave = make_kdv_cnoidal(P, 1.0, m)
    lam = cn_wave.wavelength()
    xi = np.linspace(-lam / 2, lam / 2, 4096)
    gap_cn = np.max(np.abs((cn_wave.profile(xi) - cn_wave.D)
                           - sol.profile(xi)))

    sup_B = math.sqrt(3 * P.alpha / (4 * P.beta))
    sup = make_kdv_superposition(P, 1.0, m, sup_B, sign=+1)
    lam_s = sup.wavelength()
    xi_s = np.linspace(-lam_s / 2, lam_s / 2, 8192)
    gap_sup = np.max(np.abs((sup.profile(xi_s) - sup.D) - sol.profile(xi_s)))

    # the pedestal itself must make the cnoidal profile zero-mean
    mean = abs(np.mean(cn_wave.profile(lam * np.arange(8192) / 8192)))

    ok = gap_cn <= 1e-5 and gap_sup <= 1e-5 and mean <= 1e-10
    _check(f"m->1 degeneration: cnoidal gap {gap_cn:.3e}, "
           f"superposed gap {gap_sup:.3e} <= 1e-05; "
           f"cnoidal mean {mean:.3e} <= 1e-10", ok)


def test_fits_recover_the_closed_forms():
    # (a) single-soliton width and speed from the equation alone
    w = make_kdv_soliton(P, 1.0)
    r = fit_travelling_wave(
        EquationKind.KDV, P,
        AnsatzFamily("sech2", ("B", "v"), {"A": 1.0, "D": 0.0}),
        {"B": 0.8 * w.B, "v": 1.03})
    gap_kdv = max(abs(r.values["B"] - w.B), abs(r.values["v"] - w.v))
    ok_kdv = r.converged and gap_kdv <= 1e-8

    # (b) gardner family: all three coefficients pinned at fixed width
    n_constraints = count_constraints(
        EquationKind.GARDNER, PG,
        AnsatzFamily("gardner", ("A", "B", "v"), {"Delta": 1.0}))
    ok_gardner = n_constraints == 3

    # (c) fifth-order: nontrivial basin, residual checked on a full grid
    w5 = make_fifth_order_soliton(P5)
    starts5 = [{"A": fa * w5.A, "B": fb * w5.B, "v": w5.v + dv}
               for fa, fb, dv in ((0.7, 0.9, 0.0), (1.3, 1.2, -0.001),
                                  (1.0, 1.1, 0.001), (1.4, 0.9, 0.0005))]
    a5 = AnsatzFamily("sech4", ("A", "B", "v"), {"D": 0.0})
    basins5, _ = multi_start_fit(EquationKind.FIFTH_ORDER, P5, a5, starts5)
    if len(basins5) == 1:
        rep5, _ = travelling_residual(a5.wave(basins5[0].values),
                                      EquationId(EquationKind.FIFTH_ORDER),
                                      P5, Grid(-60.0, 120.0, 1024))
        rel5 = rep5.relative
    else:
        rel5 = math.inf
    ok_fifth = len(basins5) == 1 and rel5 <= 1e-8

    # (d) extended-kdv: one amplitude basin across a wide start ladder
    w2 = make_kdv2_soliton(P)
    basins2, _ = multi_start_fit(
        EquationKind.KDV2, P,
        AnsatzFamily("sech2", ("A", "B", "v"), {"D": 0.0}),
        amplitude_starts(P, n=8, span=(0.5, 8.0)))
    gap2 = (max(abs(basins2[0].values[k] - getattr(w2, k))
                for k in ("A", "B", "v")) if len(basins2) == 1 else math.inf)
    ok_kdv2 = len(basins2) == 1 and gap2 <= 1e-6

    ok = ok_kdv and ok_gardner and ok_fifth and ok_kdv2
    _check(f"fits: soliton B,v gap {gap_kdv:.3e} <= 1e-08; "
           f"gardner constraints {n_constraints} == 3; "
           f"fifth-order basins {len(basins5)} == 1, grid rel {rel5:.3e} <= 1e-08; "
           f"extended-kdv basins {len(basins2)} == 1, gap {gap2:.3e} <= 1e-06", ok)


def _evolve_error(dt: float) -> tuple[float, float]:
    grid = Grid(-30.0, 60.0, 512)
    w = make_kdv_soliton(P, 1.0)
    cfg = EvolveConfig(eq=EquationId(EquationKind.KDV), params=P, grid=grid,
                       dt=dt, t_end=10.0, output_stride=0)
    traj = evolve(cfg, w.profile(grid.x))
    xi = np.mod(grid.x - w.v * 10.0 - grid.x0, grid.length) + grid.x0
    err = float(np.max(np.abs(traj.final.values - w.profile(xi))))
    mon = monitors(traj)
    drift = float(np.max(np.abs(mon["mass"] / mon["mass"][0] - 1.0)))
    return err, drift


def test_evolution_tracks_the_analytic_translate():
    e1, drift = _evolve_error(0.05)
    e2, _ = _evolve_error(0.025)
    e3, _ = _evolve_error(0.0125)
    r12, r23 = e1 / e2, e2 / e3
    ok = (e1 <= 1e-4 and 12.0 <= r12 <= 20.0 and 12.0 <= r23 <= 20.0
          and drift <= 1e-8)
    _check(f"evolution: T=10 shape error {e1:.3e} <= 1e-04, "
           f"dt ratios {r12:.1f}/{r23:.1f} in [12, 20], "
           f"mass drift {drift:.3e} <= 1e-08", ok)


def test_evolving_the_negated_field_negates_the_evolution():
    tol = 1e-10
    worst = 0.0
    for kind in (EquationKind.KDV, EquationKind.KDV2):
        for use_bottom in (False, True):
            grid = Grid(0.0, 40.0, 256)
            u0 = RandomField(seed=5, amplitude=0.2).build(grid)[0].values
            p = MediumParams(alpha=0.1, beta=0.1,
                             delta=0.05 if use_bottom else 0.0)
            eq = EquationId(kind, Frame.FIXED,
                            ramp_bottom(grid) if use_bottom else None)
            kw = dict(grid=grid, dt=0.01, t_end=2.0, output_stride=50)
            up = evolve(EvolveConfig(eq=eq, params=p, **kw), u0)
            dn = evolve(EvolveConfig(eq=eq, params=p.flipped(), **kw), -u0)
            for a, b in zip(up.snapshots, dn.snapshots):
                worst = max(worst, float(np.max(np.abs(a.values + b.values))))
    _check(f"dynamic antisymmetry (flat+ramp, both kdv variants): "
           f"worst snapshot defect {worst:.3e} <= {tol:g}", worst <= tol)


def test_cross_family_checks_fail_loudly():
    floor = 1e-3
    # a kdv soliton fed to the gardner operator must be rejected
    w = make_kdv_soliton(P, 1.0)
    rep, _ = travelling_residual(w, EquationId(EquationKind.GARDNER),
                                 MediumParams(0.1, 0.1, tau=0.0),
                                 Grid(-50.0, 100.0, 1024))
    margins = [rep.relative]
    # and un-flipped negation must not pass for any catalog solution
    for c in default_matrix(seeds=range(1)):
        if c.is_solution:
            margins.append(negative_control(c.u, c.ut, c.eq, c.params).relative)
    worst = min(margins)
    _check(f"negative controls: smallest rejected residual {worst:.3e} >= "
           f"{floor:g}", worst >= floor)
