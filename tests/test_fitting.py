"""Collocation fitting: recovery of closed forms, bookkeeping, landscapes."""

import math
from pathlib import Path

import numpy as np
import pytest
import yaml
from numpy.testing import assert_allclose

from kdvwaves import fitting, waves
from kdvwaves.cli import main
from kdvwaves.elliptic import jacobi_sn_cn_dn, sech
from kdvwaves.equations import EquationId, EquationKind, Grid, travelling_residual
from kdvwaves.fitting import (
    AnsatzFamily,
    amplitude_starts,
    count_constraints,
    fit_travelling_wave,
    multi_start_fit,
)
from kdvwaves.waves import (
    MediumParams,
    make_fifth_order_soliton,
    make_gardner_soliton,
    make_kdv2_soliton,
    make_kdv_cnoidal,
    make_kdv_soliton,
)
from reference_derivatives import profile_derivatives

P = MediumParams(alpha=0.1, beta=0.1)


# --- ansatz bookkeeping ---------------------------------------------------------

def test_ansatz_validation():
    with pytest.raises(ValueError):
        AnsatzFamily("sech3", ("A",))                       # unknown shape
    with pytest.raises(ValueError):
        AnsatzFamily("sech2", ("A", "Q"), {"B": 1, "v": 1, "D": 0})  # bad name
    with pytest.raises(ValueError):
        AnsatzFamily("sech2", ("A", "B"), {})               # v, D unaccounted
    with pytest.raises(ValueError):
        AnsatzFamily("sech2", ("A", "B", "v", "D"), zero_mean=True)  # not periodic


@pytest.mark.parametrize("shape,free,fixed,stray", [
    ("gardner", ("A", "B", "v"), {"Delta": 1.0, "D": 0.3}, "'D'"),
    ("sech2", ("A", "B", "v"), {"D": 0.0, "m": 0.5, "typo": 2.0}, "'m', 'typo'"),
])
def test_ansatz_rejects_fixed_parameters_its_shape_lacks(shape, free, fixed, stray):
    with pytest.raises(ValueError, match=f"fixed parameters \\[{stray}\\]"):
        AnsatzFamily(shape, free, fixed)


@pytest.mark.parametrize("shape", ["sech2", "sech4", "cn2", "gardner"])
def test_ansatz_rejects_a_branch_sign_its_shape_lacks(shape):
    with pytest.raises(ValueError, match="sign=-1"):
        AnsatzFamily(shape, fitting.SHAPE_PARAMS[shape], sign=-1)
    assert AnsatzFamily("dn2_pm_cndn", fitting.SHAPE_PARAMS["dn2_pm_cndn"], sign=-1).sign == -1


def test_cli_fit_with_a_stray_fixed_parameter_exits_two(capsys, tmp_path):
    cfg = tmp_path / "fit.yaml"
    cfg.write_text(yaml.safe_dump({
        "equation": "gardner", "medium": {"alpha": 0.1, "beta": 0.3},
        "ansatz": {"shape": "gardner", "free": ["A", "B", "v"],
                   "fixed": {"Delta": 1.0, "D": 0.3}},
        "start": {"A": 2.0, "B": 0.9, "v": 1.05}}))
    assert main(["fit", "--config", str(cfg)]) == 2
    assert "fixed parameters ['D']" in capsys.readouterr().err


def test_ansatz_value_assembly():
    a = AnsatzFamily("sech2", ("B", "v"), {"A": 1.0, "D": 0.0})
    vals = a.values(np.array([0.5, 1.1]))
    assert vals == {"A": 1.0, "D": 0.0, "B": 0.5, "v": 1.1}


# --- analytic profile derivatives -----------------------------------------------

@pytest.mark.parametrize("shape,values", [
    ("sech2", {"A": 1.0, "B": 0.866, "v": 1.05, "D": 0.0}),
    ("sech4", {"A": -0.03, "B": 0.44, "v": 0.998, "D": 0.0}),
    ("cn2", {"A": 1.0, "B": 0.91, "v": 0.99, "D": -0.36, "m": 0.9}),
    ("dn2_pm_cndn", {"A": 1.0, "B": 0.87, "v": 1.0, "D": -0.36, "m": 0.5}),
    ("gardner", {"A": 2.0, "B": 0.97, "v": 1.05, "Delta": 1.0}),
])
def test_profile_derivatives_match_finite_differences(shape, values):
    ansatz = AnsatzFamily(shape, tuple(values), {})
    xi = np.linspace(0.3, 6.0, 7)
    d = profile_derivatives(ansatz, xi, values)

    def f(z):
        return profile_derivatives(ansatz, z, values)[0]

    # central stencils on the analytic profile; h balances truncation
    # against the 1/h^order roundoff amplification
    h = 1e-6
    fd1 = (f(xi + h) - f(xi - h)) / (2 * h)
    assert_allclose(d[1], fd1, rtol=2e-6, atol=2e-9)
    h = 1e-4
    fd2 = (f(xi + h) - 2 * f(xi) + f(xi - h)) / h**2
    assert_allclose(d[2], fd2, rtol=2e-6, atol=2e-7)


def test_profile_derivative_orders_up_to_five():
    values = {"A": 1.0, "B": 0.8, "v": 1.05, "D": 0.0}
    ansatz = AnsatzFamily("sech2", tuple(values), {})
    xi = np.linspace(0.0, 5.0, 6)
    d = profile_derivatives(ansatz, xi, values)
    assert set(d) >= {0, 1, 2, 3, 5}
    # exact check at 0: odd derivatives of an even profile vanish
    assert abs(d[1][0]) < 1e-14
    assert abs(d[3][0]) < 1e-14


def _loop_derivatives(shape, sign, xi, values):
    """f^(k), k = 0..5, summed monomial by monomial, with the sum of |terms|."""
    A, B, D, m = values["A"], values["B"], values["D"], values.get("m", 1.0)
    poly = {"sech2": {(0, 1, 1): A}, "sech4": {(0, 2, 2): A}, "cn2": {(0, 2, 0): A},
            "dn2_pm_cndn": {(0, 0, 2): 0.5 * A,
                            (0, 1, 1): 0.5 * A * sign * math.sqrt(m)}}[shape]
    w = B * xi
    sn, cn, dn = ((np.tanh(w), sech(w), sech(w)) if m == 1.0
                  else jacobi_sn_cn_dn(w, m))
    out = []
    for k in range(6):
        terms = [B**k * c * sn**a * cn**b * dn**e for (a, b, e), c in poly.items()]
        if k == 0:
            terms.append(np.full_like(xi, D))
        out.append((sum(terms), sum(np.abs(t) for t in terms)))
        poly = waves._monomial_derivative(poly, m)
    return out


@pytest.mark.parametrize("shape,sign,values", [
    ("sech2", 1, {"A": 1.3, "B": 0.8, "v": 1.0, "D": 0.1}),
    ("sech4", 1, {"A": -0.03, "B": 0.44, "v": 1.0, "D": 0.0}),
    ("cn2", 1, {"A": 1.0, "B": 0.91, "v": 1.0, "D": -0.36, "m": 0.9}),
    ("cn2", 1, {"A": 2.0, "B": 1.7, "v": 1.0, "D": -0.36, "m": 0.2}),
    ("dn2_pm_cndn", 1, {"A": 1.0, "B": 0.87, "v": 1.0, "D": -0.36, "m": 0.5}),
    ("dn2_pm_cndn", -1, {"A": -1.0, "B": 1.4, "v": 1.0, "D": 0.2, "m": 0.99}),
])
def test_cached_chain_matches_the_monomial_loop(shape, sign, values):
    # the matrix product sums in another order than the loop: allow a few
    # ulps of the summed term magnitudes (float64 eps is 2.2e-16)
    xi = np.linspace(-7.0, 9.0, 41)
    d = profile_derivatives(AnsatzFamily(shape, tuple(values), {}, sign=sign),
                            xi, values)
    for k, (ref, magnitude) in enumerate(_loop_derivatives(shape, sign, xi, values)):
        assert np.all(np.abs(d[k] - ref) <= 1e-14 * magnitude), k


# --- closed-form recovery -------------------------------------------------------

def test_kdv_fit_recovers_soliton_speed_and_width():
    w = make_kdv_soliton(P, 1.0)
    ansatz = AnsatzFamily("sech2", ("B", "v"), {"A": 1.0, "D": 0.0})
    result = fit_travelling_wave(EquationKind.KDV, P, ansatz,
                                 {"B": 0.8 * w.B, "v": 1.03})
    assert result.converged
    assert abs(result.values["B"] - w.B) < 1e-8
    assert abs(result.values["v"] - w.v) < 1e-8


def test_kdv_fit_free_amplitude_lands_on_manifold():
    # with (A, B, v) free the solutions form a one-parameter family;
    # whatever A the fit lands on must satisfy the closed-form relations
    ansatz = AnsatzFamily("sech2", ("A", "B", "v"), {"D": 0.0})
    result = fit_travelling_wave(
        EquationKind.KDV, P, ansatz, {"A": 1.3, "B": 0.9, "v": 1.06})
    assert result.converged
    A, B, v = (result.values[k] for k in ("A", "B", "v"))
    assert abs(B - math.sqrt(3 * P.alpha * A / (4 * P.beta))) < 1e-7 * B
    assert abs(v - (1 + P.alpha * A / 2)) < 1e-9


def test_cnoidal_fit_with_zero_mean_pins_pedestal():
    w = make_kdv_cnoidal(P, 1.0, 0.9)
    ansatz = AnsatzFamily("cn2", ("B", "v", "D"),
                          {"A": 1.0, "m": 0.9}, zero_mean=True)
    result = fit_travelling_wave(
        EquationKind.KDV, P, ansatz,
        {"B": 1.1 * w.B, "v": 1.01 * w.v, "D": 0.0})
    assert result.converged
    assert abs(result.values["B"] - w.B) < 1e-8
    assert abs(result.values["v"] - w.v) < 1e-8
    assert abs(result.values["D"] - w.D) < 1e-8


def test_gardner_start_on_the_pole_branch_is_refused():
    # from A = 4A*, B = -0.9 the fit used to converge (residual 3e-11) to
    # B = -0.9747, whose profile has a pole at arccosh(1/0.9747) = 0.227
    pg = MediumParams(alpha=0.1, beta=0.3, tau=0.0)
    A = make_gardner_soliton(pg, Delta=1.0).A
    ansatz = AnsatzFamily("gardner", ("A", "B", "v"), {"Delta": 1.0})
    with pytest.raises(ValueError, match="cannot be evaluated at the start"):
        fit_travelling_wave(EquationKind.GARDNER, pg, ansatz,
                            {"A": 4.0 * A, "B": -0.9, "v": 1.05})


@pytest.mark.parametrize("B, pole", [
    (-1.0, True),                          # the zero sits at xi = 0
    (float(np.nextafter(-1.0, -2.0)), False),
    (-(1.0 + 1e-9), False),                # 1 + B cosh < 0 everywhere
    ("inside", True), ("beyond", False), (0.5, False), (-0.0, False)])
def test_gardner_pole_test_is_exact_at_the_window_edges(B, pole):
    from kdvwaves.fitting import _unit_rows, collocation_points

    ansatz = AnsatzFamily("gardner", ("A", "B", "v"), {"Delta": -1.3})
    values = {"A": 2.0, "v": 1.05, "Delta": -1.3}
    xi = collocation_points(ansatz, {**values, "B": 0.5}, 9)
    # a zero at |Delta| arccosh(-1/B) just inside or beyond the last node
    edge = -1.0 / math.cosh(xi[-1] / 1.3)
    B = {"inside": edge * (1.0 + 1e-9), "beyond": edge * (1.0 - 1e-9)}.get(B, B)
    if pole:
        with pytest.raises(ValueError, match="vanishes on the window"):
            _unit_rows(ansatz, xi, {**values, "B": B})
    else:
        assert np.all(np.isfinite(_unit_rows(ansatz, xi, {**values, "B": B})[1]))


def test_gardner_fit_recovers_closed_form():
    p = MediumParams(alpha=0.1, beta=0.3, tau=0.0)
    w = make_gardner_soliton(p, Delta=1.0)
    ansatz = AnsatzFamily("gardner", ("A", "B", "v"), {"Delta": 1.0})
    result = fit_travelling_wave(
        EquationKind.GARDNER, p, ansatz,
        {"A": 0.9 * w.A, "B": 0.9 * w.B, "v": 1.0})
    assert result.converged
    assert abs(result.values["A"] - w.A) < 1e-8
    assert abs(result.values["B"] - w.B) < 1e-8
    assert abs(result.values["v"] - w.v) < 1e-8


def test_fifth_order_fit_full_grid_residual():
    # the solution amplitude is tiny (~ -0.035), so the landscape also
    # holds a trivial u=0 well; multi-start and keep the nontrivial basin
    p = MediumParams(alpha=0.1, beta=0.1, tau=0.35)
    w = make_fifth_order_soliton(p)
    ansatz = AnsatzFamily("sech4", ("A", "B", "v"), {"D": 0.0})
    starts = [{"A": fa * w.A, "B": fb * w.B, "v": w.v + dv}
              for fa, fb, dv in ((0.7, 0.9, 0.0), (1.3, 1.2, -0.001),
                                 (1.0, 1.1, 0.001), (1.4, 0.9, 0.0005))]
    basins, _ = multi_start_fit(EquationKind.FIFTH_ORDER, p, ansatz, starts)
    assert len(basins) == 1
    assert abs(basins[0].values["A"] - w.A) < 1e-6
    # the fitted profile must solve on a real grid, not just at nodes
    fitted = ansatz.wave(basins[0].values)
    grid = Grid(-60.0, 120.0, 1024)
    report, _ = travelling_residual(fitted,
                                    EquationId(EquationKind.FIFTH_ORDER),
                                    p, grid)
    assert report.relative <= 1e-8


def test_kdv2_multi_start_single_basin():
    ansatz = AnsatzFamily("sech2", ("A", "B", "v"), {"D": 0.0})
    starts = amplitude_starts(P, n=6, span=(0.5, 8.0))
    basins, results = multi_start_fit(EquationKind.KDV2, P, ansatz, starts)
    assert len(basins) == 1
    w = make_kdv2_soliton(P)
    assert abs(basins[0].values["A"] - w.A) < 1e-6
    assert abs(basins[0].values["B"] - w.B) < 1e-6
    assert abs(basins[0].values["v"] - w.v) < 1e-6
    assert any(r.converged for r in results)


def test_fit_requires_complete_start():
    ansatz = AnsatzFamily("sech2", ("B", "v"), {"A": 1.0, "D": 0.0})
    with pytest.raises(ValueError, match="missing free parameters"):
        fit_travelling_wave(EquationKind.KDV, P, ansatz, {"B": 0.8})


# --- constraint counting --------------------------------------------------------

def test_constraint_counts():
    # kdv/sech2: one-parameter solution family -> 2 constraints on (A, B, v)
    assert count_constraints(
        EquationKind.KDV, P,
        AnsatzFamily("sech2", ("A", "B", "v"), {"D": 0.0})) == 2
    # kdv2: rigid solution -> all 3 pinned
    assert count_constraints(
        EquationKind.KDV2, P,
        AnsatzFamily("sech2", ("A", "B", "v"), {"D": 0.0})) == 3
    # gardner at fixed Delta: (A, B, v) all pinned
    pg = MediumParams(alpha=0.1, beta=0.3, tau=0.0)
    assert count_constraints(
        EquationKind.GARDNER, pg,
        AnsatzFamily("gardner", ("A", "B", "v"), {"Delta": 1.0})) == 3
    # fifth-order: rigid
    p5 = MediumParams(alpha=0.1, beta=0.1, tau=0.35)
    assert count_constraints(
        EquationKind.FIFTH_ORDER, p5,
        AnsatzFamily("sech4", ("A", "B", "v"), {"D": 0.0})) == 3


def test_gardner_family_with_free_width_has_one_freedom():
    # freeing Delta exposes the one-parameter Gardner family:
    # 4 unknowns minus 3 constraints
    pg = MediumParams(alpha=0.1, beta=0.3, tau=0.0)
    k = count_constraints(
        EquationKind.GARDNER, pg,
        AnsatzFamily("gardner", ("A", "B", "v", "Delta"), {}))
    assert k == 3


# --- collapse onto the trivial zero, and the cached derivative chain ---------------

KDV2_SECH2 = AnsatzFamily("sech2", ("A", "B", "v"), {"D": 0.0})
MULTISTART_CONFIG = (Path(__file__).resolve().parents[1]
                     / "scripts" / "configs" / "fit_kdv2_multistart.yaml")


def test_shipped_multistart_stops_collapsing_starts_early():
    doc = yaml.safe_load(MULTISTART_CONFIG.read_text())
    spec = doc["starts"]["amplitudes"]
    p = MediumParams(**doc["medium"])
    starts = amplitude_starts(p, spec["n"], tuple(spec["span"]))
    basins, results = multi_start_fit(EquationKind.KDV2, p, KDV2_SECH2, starts)
    assert [r.status for r in results] == ["trivial"] * 4 + ["converged"] * 4
    assert all(r.n_iterations <= 20 for r in results if r.status == "trivial")
    assert sum(r.n_iterations for r in results) <= 100
    assert len(basins) == 1 and basins[0].count == 4


def test_trivial_rule_keeps_every_converging_start_of_the_ladder():
    # the seven starts below A0 = 3 slide onto u = 0 (before the trivial
    # status they ran out of iterations); the six from 3.2 to 200 converge
    # to the soliton, A0 = 200 after 20 steps that shrink |A| each time
    for p in (P, P.flipped()):
        w = make_kdv2_soliton(p)
        starts = amplitude_starts(p, 13, (0.01, 200.0))
        assert starts[-1]["A"] == math.copysign(200.0, p.alpha)
        results = [fit_travelling_wave(EquationKind.KDV2, p, KDV2_SECH2, s)
                   for s in starts]
        assert [r.status for r in results] == ["trivial"] * 7 + ["converged"] * 6
        for r in results[7:]:
            assert_allclose([r.values[k] for k in "ABv"], [w.A, w.B, w.v], rtol=1e-6)


def test_fit_outcomes_mirror_under_inversion():
    # A f solves the equation at alpha iff -A f solves it at -alpha, so the
    # fits from mirrored starts end alike, at the same iteration
    runs = [multi_start_fit(EquationKind.KDV2, p, KDV2_SECH2,
                            amplitude_starts(p, 8, (0.5, 8.0)))
            for p in (P, P.flipped())]
    (up_basins, up), (dn_basins, dn) = runs
    assert [r.status for r in up] == ["trivial"] * 4 + ["converged"] * 4
    assert [(r.status, r.n_iterations) for r in dn] == \
        [(r.status, r.n_iterations) for r in up]
    assert len(up_basins) == len(dn_basins) == 1
    a, b = up_basins[0].values, dn_basins[0].values
    assert_allclose([-b["A"], b["B"], b["v"]], [a["A"], a["B"], a["v"]], rtol=1e-9)


def test_mirrored_fits_are_exact_negations():
    # every finite-difference bump points away from zero, so each iterate
    # from a mirrored start is the exact mirror of the upright one
    def mirror(values):
        return {**values, "A": -values["A"]}

    (up_basins, up), (dn_basins, dn) = [
        multi_start_fit(EquationKind.KDV2, p, KDV2_SECH2,
                        amplitude_starts(p, 8, (0.5, 8.0)))
        for p in (P, P.flipped())]
    assert [(mirror(b.values), b.residual, b.count) for b in dn_basins] == \
        [(b.values, b.residual, b.count) for b in up_basins]
    for a, b in zip(up, dn):
        assert (mirror(b.values), b.residual, b.status, b.n_iterations, b.rank) == \
            (a.values, a.residual, a.status, a.n_iterations, a.rank)


def test_singular_jacobian_exit_folds_the_sign_of_B(monkeypatch):
    start = {"A": 1.0, "B": -0.7, "v": 1.06}
    real = fitting._fit_residual

    def only_at_start(kind, params, ansatz, xi, values):
        if any(values[k] != start[k] for k in start):
            raise ValueError("bumped")
        return real(kind, params, ansatz, xi, values)

    monkeypatch.setattr(fitting, "_fit_residual", only_at_start)
    result = fit_travelling_wave(EquationKind.KDV2, P, KDV2_SECH2, start)
    assert result.status == "singular_jacobian"
    assert result.values["B"] == 0.7


def test_derivative_chain_cache_does_not_mix_keys():
    xi = np.linspace(0.2, 5.0, 9)
    calls = [("dn2_pm_cndn", sign, m) for m in (0.3, 0.5, 0.9) for sign in (1, -1)]
    calls += [("cn2", 1, m) for m in (0.3, 0.5, 0.9)]
    calls = calls[::2] + calls[1::2] + calls       # interleaved, then repeated

    def derivs(shape, sign, m):
        values = {"A": 1.3, "B": 0.8, "v": 1.0, "D": -0.2, "m": m}
        ansatz = AnsatzFamily(shape, tuple(values), {}, sign=sign)
        return profile_derivatives(ansatz, xi, values)

    warm = [derivs(*call) for call in calls]
    for call, got in zip(calls, warm):
        waves._derivative_chain.cache_clear()
        cold = derivs(*call)
        for k in range(6):
            assert np.array_equal(got[k], cold[k]), (call, k)


def test_cli_single_start_reports_trivial(capsys, tmp_path):
    cfg = tmp_path / "fit.yaml"
    cfg.write_text(yaml.safe_dump({
        "equation": "kdv2", "medium": {"alpha": 0.1, "beta": 0.1},
        "ansatz": {"shape": "sech2", "free": ["A", "B", "v"], "fixed": {"D": 0.0}},
        "start": {k: float(v) for k, v in amplitude_starts(P, 1, (0.5, 0.5))[0].items()}}))
    code = main(["fit", "--config", str(cfg)])
    assert code == 1
    assert '"status": "trivial"' in capsys.readouterr().out


def test_collapsed_width_reports_trivial():
    # with A pinned, B can slide to 0: sech^2 then reads A on every node, a
    # constant that solves the equation; 20% below the soliton the fit ends
    # there (B ~ 2e-6), 20% above it finds the soliton, under both signs
    for p in (MediumParams(alpha=0.3, beta=0.1), MediumParams(alpha=-0.3, beta=0.1)):
        w = make_kdv_soliton(p, math.copysign(1.0, p.alpha))
        ansatz = AnsatzFamily("sech2", ("B", "v"), {"A": w.A, "D": 0.0})
        low, high = [fit_travelling_wave(EquationKind.KDV, p, ansatz,
                                         {"B": f * w.B, "v": f * w.v}) for f in (0.8, 1.2)]
        assert low.status == "trivial" and low.values["B"] < 1e-5
        assert low.residual <= 1e-10          # it would pass the convergence test
        assert high.status == "converged"
        assert_allclose([high.values["B"], high.values["v"]], [w.B, w.v], rtol=1e-9)


# --- exact Jacobian columns --------------------------------------------------------

PG = MediumParams(alpha=0.1, beta=0.3, tau=0.0)
P5 = MediumParams(alpha=0.1, beta=0.1, tau=0.35)
CN2 = {"A": 1.0, "B": 0.91, "v": 0.99, "D": -0.36, "m": 0.9}
DN2 = {"A": 1.0, "B": 0.87, "v": 1.0, "D": -0.36, "m": 0.5}

# every shape with every parameter free, off the solution manifold; the
# second-order equation reads every product the term tables hold
COLUMN_CASES = [
    pytest.param(EquationKind.KDV2, P, "sech2", 1, False,
                 {"A": 1.3, "B": 0.8, "v": 1.05, "D": 0.1}, id="sech2"),
    pytest.param(EquationKind.FIFTH_ORDER, P5, "sech4", 1, False,
                 {"A": -0.03, "B": 0.44, "v": 0.998, "D": 0.01}, id="sech4"),
    pytest.param(EquationKind.KDV2, P, "cn2", 1, False, CN2, id="cn2"),
    pytest.param(EquationKind.KDV2, P, "cn2", 1, True, CN2, id="cn2-zero_mean"),
    pytest.param(EquationKind.KDV2, P, "dn2_pm_cndn", 1, False, DN2, id="dn2+cndn"),
    pytest.param(EquationKind.KDV2, P, "dn2_pm_cndn", -1, False, DN2, id="dn2-cndn"),
    pytest.param(EquationKind.KDV, P, "dn2_pm_cndn", 1, True, DN2, id="dn2+cndn-zero_mean"),
    pytest.param(EquationKind.KDV, P, "dn2_pm_cndn", -1, True, DN2, id="dn2-cndn-zero_mean"),
    pytest.param(EquationKind.GARDNER, PG, "gardner", 1, False,
                 {"A": 2.0, "B": 0.97, "v": 1.05, "Delta": 1.0}, id="gardner"),
    pytest.param(EquationKind.GARDNER, PG, "gardner", 1, False,
                 {"A": 1.5, "B": 0.3, "v": 1.02, "Delta": -1.4}, id="gardner-table-top"),
]


def _jacobian_at(kind, params, ansatz, values):
    xi = fitting.collocation_points(ansatz, values, 12)
    point = fitting._fit_residual(kind, params, ansatz, xi, values)
    return xi, fitting._jacobian(kind, params, ansatz, xi, values, point)


@pytest.mark.parametrize("kind,params,shape,sign,zero_mean,values", COLUMN_CASES)
def test_jacobian_columns_match_central_differences(kind, params, shape, sign,
                                                    zero_mean, values):
    ansatz = AnsatzFamily(shape, tuple(values), {}, sign=sign, zero_mean=zero_mean)
    xi, jac = _jacobian_at(kind, params, ansatz, values)
    for j, p in enumerate(ansatz.free):
        h = 1e-5 * (1.0 + abs(values[p]))
        up, down = (fitting._fit_residual(kind, params, ansatz, xi,
                                          {**values, p: values[p] + s}).res
                    for s in (h, -h))
        column = jac[:, j]
        assert np.max(np.abs(column - (up - down) / (2 * h))) <= \
            1e-6 * np.max(np.abs(column)), p


@pytest.mark.parametrize("kind,params,shape,sign,zero_mean,values", COLUMN_CASES)
def test_jacobian_columns_mirror_exactly(kind, params, shape, sign, zero_mean, values):
    # at (-A, -D, -alpha) the residual is negated: its A and D columns stay
    # bit for bit, every other column is negated exactly
    ansatz = AnsatzFamily(shape, tuple(values), {}, sign=sign, zero_mean=zero_mean)
    mirrored = {p: -x if p in ("A", "D") else x for p, x in values.items()}
    _, up = _jacobian_at(kind, params, ansatz, values)
    _, down = _jacobian_at(kind, params.flipped(), ansatz, mirrored)
    for j, p in enumerate(ansatz.free):
        assert np.array_equal(down[:, j], up[:, j] if p in ("A", "D") else -up[:, j]), p


@pytest.mark.parametrize("kind,params,ansatz,rank,null_bound", [
    # every column exact: the null singular values are roundoff
    (EquationKind.KDV, P, AnsatzFamily("sech2", ("A", "B", "v"), {"D": 0.0}), 2, 1e-11),
    (EquationKind.KDV, P, AnsatzFamily("sech2", ("A", "B", "v", "D"), {}), 2, 1e-11),
    (EquationKind.GARDNER, PG, AnsatzFamily("gardner", ("A", "B", "v", "Delta"), {}),
     3, 1e-11),
    # the m column is a central difference
    (EquationKind.KDV, P, AnsatzFamily("cn2", ("A", "B", "v", "m"), {"D": 0.0}), 2, 1e-10),
    (EquationKind.KDV, P, AnsatzFamily("cn2", ("A", "B", "v", "D", "m"), {}), 2, 1e-10),
    # rigid solutions: no null space
    (EquationKind.KDV2, P, KDV2_SECH2, 3, None),
    (EquationKind.FIFTH_ORDER, P5, AnsatzFamily("sech4", ("A", "B", "v"), {"D": 0.0}),
     3, None),
    (EquationKind.GARDNER, PG, AnsatzFamily("gardner", ("A", "B", "v"), {"Delta": 1.0}),
     3, None),
])
@pytest.mark.parametrize("flip", [False, True])
def test_constraint_jacobian_separates_null_from_genuine(kind, params, ansatz, rank,
                                                         null_bound, flip):
    params = params.flipped() if flip else params
    jac = fitting._manifold_jacobian(kind, params, ansatz)
    sigma = np.linalg.svd(jac, compute_uv=False)
    assert np.all(sigma[:rank] >= 1e-4 * sigma[0])
    if null_bound is not None:
        assert np.all(sigma[rank:] <= null_bound * sigma[0])
    assert count_constraints(kind, params, ansatz) == rank


def test_m_column_is_one_sided_where_one_side_cannot_be_evaluated():
    # m - h < 0 cannot be evaluated: the column takes the three-point
    # formula above m, which matches a central difference of a smaller step
    values = {"A": 1.0, "B": 0.91, "v": 0.99, "D": -0.36, "m": 5e-7}
    ansatz = AnsatzFamily("cn2", ("m",), {k: x for k, x in values.items() if k != "m"})
    xi, jac = _jacobian_at(EquationKind.KDV, P, ansatz, values)
    h = 1e-7
    up, down = (fitting._fit_residual(EquationKind.KDV, P, ansatz, xi,
                                      {**values, "m": values["m"] + s}).res
                for s in (h, -h))
    column = jac[:, 0]
    assert np.max(np.abs(column - (up - down) / (2 * h))) <= 1e-6 * np.max(np.abs(column))
