"""Inputs the library and the CLI refuse, each by name.

The library's guards raise ValueError; through the CLI, a refused config
exits 2 with empty stdout and a message that names the key.
"""

import math

import numpy as np
import pytest
import yaml

from kdvwaves import fitting
from kdvwaves.cli import main
from kdvwaves.equations import (EquationId, EquationKind, Field, Grid, derivative_set,
                                residual)
from kdvwaves.evolve import EvolveConfig, evolve
from kdvwaves.fitting import (AnsatzFamily, StartError, _fit_residual, collocation_points,
                              fit_travelling_wave)
from kdvwaves.inversion import InversionCase, run_matrix
from kdvwaves.waves import (MediumParams, make_fifth_order_soliton, make_gardner_soliton,
                            make_kdv2_soliton, make_kdv_cnoidal, make_kdv_soliton,
                            make_kdv_superposition, make_soliton_ladder)

P = MediumParams(0.1, 0.1)
KDV = EquationId(EquationKind.KDV)
GRID = Grid(-20.0, 40.0, 64)


def _split_pair() -> tuple[Field, Field]:
    """u and u_t sampled on two different grids."""
    other = Grid(-20.0, 40.0, 32)
    return Field(GRID, np.sin(GRID.x)), Field(other, np.cos(other.x))


def test_an_unknown_backend_is_refused():
    with pytest.raises(ValueError, match="backend must be one of .* got 'fd4'"):
        derivative_set("fd4")


def test_residual_refuses_u_and_u_t_on_different_grids():
    with pytest.raises(ValueError, match="u and u_t must share a grid"):
        residual(*_split_pair(), KDV, P)


def test_run_matrix_refuses_a_case_on_two_grids():
    u, ut = _split_pair()
    case = InversionCase("split", KDV, P, u, ut, is_solution=False)
    with pytest.raises(ValueError, match="split: u and u_t must share a grid"):
        run_matrix([case])


def test_evolve_refuses_samples_of_another_grid():
    config = EvolveConfig(eq=KDV, params=P, grid=GRID, dt=0.05, t_end=1.0)
    with pytest.raises(ValueError, match=r"u0 has shape \(32,\), expected \(64,\)"):
        evolve(config, np.zeros(32))


def test_a_gardner_start_at_zero_width_is_refused():
    ansatz = AnsatzFamily("gardner", ("A", "B", "v", "Delta"))
    start = {"A": 1.0, "B": 0.5, "v": 1.0, "Delta": 0.0}
    xi = collocation_points(ansatz, start, 9)
    with pytest.raises(ValueError, match="Delta must be nonzero"):
        _fit_residual(EquationKind.GARDNER, P, ansatz, xi, start)
    with pytest.raises(StartError, match="cannot be evaluated at the start values"):
        fit_travelling_wave(EquationKind.GARDNER, P, ansatz, start)


@pytest.mark.parametrize("alpha,A", [(0.1, -1.0), (-0.1, 1.0), (0.1, 0.0)])
def test_a_cnoidal_wave_needs_alpha_times_A_positive(alpha, A):
    with pytest.raises(ValueError, match="cnoidal wave requires alpha\\*A > 0"):
        make_kdv_cnoidal(MediumParams(alpha, 0.1), A, 0.5)


def test_an_ansatz_without_free_parameters_is_refused():
    with pytest.raises(ValueError, match="ansatz has no free parameters"):
        AnsatzFamily("sech2", (), {"A": 1.0, "B": 0.5, "v": 1.05, "D": 0.0})


# widths whose square is not a normal float: each used to fail in the
# arithmetic (float division by zero, a beta'/Delta^2 of inf, or an
# OverflowError) with a message that did not name Delta
FAR_WIDTHS = [1e-300, -1e-300, 1e-200, 1e-160, 1e-154, 2e154, -1e300, 1e300,
              float("inf"), float("-inf"), float("nan")]


@pytest.mark.parametrize("Delta", FAR_WIDTHS)
def test_a_gardner_width_whose_square_is_not_normal_is_refused_by_name(Delta):
    with pytest.raises(ValueError) as err:
        make_gardner_soliton(MediumParams(0.1, 0.3), Delta)
    assert str(err.value) == ("Gardner width Delta must be finite with Delta**2 "
                              f"a normal float, got {Delta!r}")


@pytest.mark.parametrize("Delta", [1.5e-154, 1e-3, 1.0, 1e154])
def test_a_gardner_width_whose_square_is_normal_is_built(Delta):
    p = MediumParams(-0.1, 0.3, tau=0.5)    # beta' < 0: any width has a soliton
    wave = make_gardner_soliton(p, Delta)
    bp = p.beta_prime()
    assert (wave.A, wave.B, wave.v, wave.Delta) == (
        4.0 * bp / (p.alpha * Delta**2), math.sqrt(1.0 - bp / Delta**2),
        1.0 + bp / Delta**2, Delta)


GARDNER_MEDIUM = {"alpha": 0.1, "beta": 0.3, "tau": 0.0}
GARDNER_GRID = {"x0": -40.0, "length": 80.0, "n": 256}


def _far_width(key: str, Delta: float) -> str:
    return (f"invalid '{key}': Gardner width Delta must be finite with Delta**2 "
            f"a normal float, got {Delta!r}")


NO_FREE = {"equation": "kdv", "medium": {"alpha": 0.1, "beta": 0.1},
           "ansatz": {"shape": "sech2", "free": [],
                      "fixed": {"A": 1.0, "B": 0.5, "v": 1.05, "D": 0.0}},
           "start": {}}


@pytest.mark.parametrize("command,doc,message", [
    # an ansatz with nothing to fit, counted or fitted
    ("fit", {**NO_FREE, "count_constraints": True},
     "invalid 'ansatz': ansatz has no free parameters"),
    ("fit", NO_FREE, "invalid 'ansatz': ansatz has no free parameters"),
    # a width whose square is not a normal float, refused by name
    ("verify", {"medium": GARDNER_MEDIUM,
                "cases": [{"equation": "gardner", "grid": GARDNER_GRID,
                           "wave": {"family": "gardner_soliton", "Delta": 1.0e-300}}]},
     _far_width("cases[0].wave", 1.0e-300)),
    ("profile", {"medium": GARDNER_MEDIUM, "grid": GARDNER_GRID,
                 "wave": {"family": "gardner_soliton", "Delta": 1.0e-200}},
     _far_width("wave", 1.0e-200)),
    ("fit", {"equation": "gardner", "medium": GARDNER_MEDIUM, "count_constraints": True,
             "ansatz": {"shape": "gardner", "free": ["A", "B", "v"],
                        "fixed": {"Delta": 1.0e300}},
             "start": {"A": 1.0, "B": 0.5, "v": 1.0}},
     _far_width("count_constraints", 1.0e300)),
    # a ladder is solitary: it has no period to lay a default grid on
    ("verify", {"medium": {"alpha": 0.1, "beta": 0.1},
                "cases": [{"equation": "kdv",
                           "wave": {"family": "two_soliton", "amplitudes": [1.0, 2.0]}}]},
     "missing required key 'cases[0].grid'"),
    # the library's node rule, as the CLI reports it
    ("fit", {**NO_FREE, "ansatz": {"shape": "sech2", "free": ["A", "B", "v"],
                                   "fixed": {"D": 0.0}},
             "count_constraints": True, "n_points": 2,
             "start": {"A": 1.0, "B": 0.5, "v": 1.05}},
     "invalid 'n_points': n_points must be at least the number of free parameters (3), "
     "got 2"),
    # a subnormal Delta**2, whose beta'/Delta^2 overflows
    ("profile", {"medium": GARDNER_MEDIUM, "grid": GARDNER_GRID,
                 "wave": {"family": "gardner_soliton", "Delta": 1.0e-160}},
     _far_width("wave", 1.0e-160)),
    # a multi-start with no start to run, refused before its count could print
    ("fit", {"equation": "kdv2", "medium": {"alpha": 0.1, "beta": 0.1},
             "count_constraints": True, "starts": [],
             "ansatz": {"shape": "sech2", "free": ["A", "B", "v"], "fixed": {"D": 0.0}}},
     "'starts' must be a non-empty list of start points"),
    # the Gardner soliton has one branch, so no key chooses it
    ("profile", {"medium": GARDNER_MEDIUM, "grid": GARDNER_GRID,
                 "wave": {"family": "gardner_soliton", "Delta": 1.0, "sign_B": 1}},
     "unknown key 'wave.sign_B' (did you mean 'Delta'?)"),
])
def test_a_refused_config_exits_two_and_names_its_key(capsys, tmp_path, command, doc, message):
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump(doc))
    code = main([command, "--config", str(path)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == f"config error: {message}\n"


def _not_finite(family: str, name: str, shown: str = "inf") -> str:
    return f"{family} coefficient {name} must be finite, got {shown}"


# closed forms whose coefficients overflow, or divide by a medium that
# underflowed: each used to build a wave with no finite sample
@pytest.mark.parametrize("build,message", [
    (lambda: make_kdv_soliton(MediumParams(0.1, 1e-320), 1.0), _not_finite("kdv_soliton", "B")),
    (lambda: make_kdv_soliton(MediumParams(1e300, 0.1), 1e300), _not_finite("kdv_soliton", "B")),
    (lambda: make_kdv_cnoidal(MediumParams(0.1, 1e-320), 1.0, 0.5),
     _not_finite("kdv_cnoidal", "B")),
    (lambda: make_kdv_cnoidal(MediumParams(0.1, 0.1), 1e308, 0.5),
     _not_finite("kdv_cnoidal", "v", "-inf")),
    (lambda: make_kdv_superposition(MediumParams(1e300, 0.1), 1e300, 0.5, B=1.0),
     _not_finite("kdv_superposition_plus", "v")),
    (lambda: make_kdv_superposition(MediumParams(1e300, 0.1), 1e300, 0.5, B=1.0, sign=-1),
     _not_finite("kdv_superposition_minus", "v")),
    # the default width is the kdv soliton's
    (lambda: make_kdv_superposition(MediumParams(0.1, 1e-320), 1.0, 0.5),
     _not_finite("kdv_soliton", "B")),
    (lambda: make_kdv2_soliton(MediumParams(1e-310, 0.1)), _not_finite("kdv2_soliton", "A")),
    (lambda: make_fifth_order_soliton(MediumParams(1e-320, 0.1, tau=0.35)),
     _not_finite("fifth_order_soliton", "A", "-inf")),
    (lambda: make_gardner_soliton(MediumParams(1e-310, 0.1), 1.0),
     _not_finite("gardner_soliton", "A")),
    # every amplitude of a ladder, not only the first (1.0 alone builds)
    (lambda: make_soliton_ladder(MediumParams(1e300, 0.1), (1.0, 1e10)),
     _not_finite("kdv_soliton", "B")),
])
def test_a_closed_form_whose_coefficient_overflows_is_refused_by_name(build, message):
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == message


OVERFLOWING_MEDIUM = {"alpha": 0.1, "beta": 1.0e200}     # beta**2 of beta5 overflows
UNDERFLOWED_MEDIUM = {"alpha": 0.1, "beta": 1.0e-320}    # a soliton's B = inf
SOLITON = {"family": "kdv_soliton", "A": 1.0}
SMALL_GRID = {"x0": -20.0, "length": 40.0, "n": 64}


@pytest.mark.parametrize("command,doc", [
    ("verify", {"medium": OVERFLOWING_MEDIUM}),
    ("verify", {"medium": OVERFLOWING_MEDIUM, "inverted": True}),
    ("symmetry", {"medium": OVERFLOWING_MEDIUM}),
])
def test_a_catalog_whose_arithmetic_fails_exits_two_and_names_the_medium(capsys, tmp_path,
                                                                         command, doc):
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump(doc))
    code = main([command, "--config", str(path)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith("config error: invalid 'medium': ")


@pytest.mark.parametrize("command,doc,where", [
    ("profile", {"medium": UNDERFLOWED_MEDIUM, "grid": SMALL_GRID, "wave": SOLITON}, "wave"),
    ("verify", {"medium": UNDERFLOWED_MEDIUM,
                "cases": [{"equation": "kdv", "grid": SMALL_GRID, "wave": SOLITON}]},
     "cases[0].wave"),
    ("evolve", {"equation": "kdv", "medium": UNDERFLOWED_MEDIUM, "grid": SMALL_GRID,
                "initial": SOLITON, "dt": 0.1, "t_end": 0.2}, "initial"),
    ("fit", {"equation": "kdv", "medium": UNDERFLOWED_MEDIUM,
             "ansatz": {"shape": "sech2", "free": ["A", "B", "v"], "fixed": {"D": 0.0}},
             "starts": {"amplitudes": {"n": 2}}}, "starts"),
])
def test_a_closed_form_whose_coefficient_overflows_exits_two_and_names_its_key(
        capsys, tmp_path, command, doc, where):
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump(doc))
    code = main([command, "--config", str(path)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == f"config error: invalid '{where}': {_not_finite('kdv_soliton', 'B')}\n"


# a constraint count is taken at the catalog point with the ansatz's fixed keys
# (A, m, B, Delta) pinned where it pins them, not at the catalog's own values
COUNTED = {"equation": "kdv", "medium": {"alpha": -0.1, "beta": 0.3}, "count_constraints": True}


@pytest.mark.parametrize("ansatz,start,message", [
    ({"shape": "sech2", "free": ["B", "v"], "fixed": {"A": 2.0, "D": 0.0}},
     {"B": 0.5, "v": 1.0}, "soliton requires alpha*A > 0, got alpha=-0.1, A=2.0"),
    ({"shape": "dn2_pm_cndn", "free": ["A", "v", "D"], "fixed": {"m": 0.6, "B": 0.8}},
     {"A": -1.0, "v": 1.0, "D": 0.4},
     "the catalog point is not on the solution manifold (relative residual 7.426e-02)"),
])
def test_a_count_honours_the_fixed_keys_of_its_ansatz(capsys, tmp_path, ansatz, start, message):
    path = tmp_path / "count.yaml"
    path.write_text(yaml.safe_dump({**COUNTED, "ansatz": ansatz, "start": start}))
    code = main(["fit", "--config", str(path)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == f"config error: invalid 'count_constraints': {message}\n"


@pytest.mark.parametrize("kind,ansatz,relative", [
    (EquationKind.KDV, AnsatzFamily("sech2", ("A", "B"), {"v": 5.0, "D": 0.0}), "7.900e-01"),
    (EquationKind.KDV2, AnsatzFamily("sech2", ("B", "v"), {"A": 7.0, "D": 0.0}), "2.804e-01"),
    (EquationKind.KDV, AnsatzFamily("sech2", ("A", "v"), {"B": 3.0, "D": 0.0}), "6.706e-01"),
])
def test_a_count_refuses_a_pinned_value_off_the_manifold(kind, ansatz, relative):
    # v, D and a rigid soliton's A and B are no keys of a family row, so
    # the catalog wave leaves them at its own values; the count does not
    with pytest.raises(ValueError) as err:
        fitting.count_constraints(kind, MediumParams(0.1, 0.1), ansatz)
    assert str(err.value) == ("the catalog point is not on the solution manifold "
                              f"(relative residual {relative})")


@pytest.mark.parametrize("alpha", [0.1, -0.1])
def test_a_count_is_taken_at_the_amplitude_its_ansatz_pins(alpha):
    # the soliton of each pinned amplitude is on the solution family, with
    # its own width and speed, so the two Jacobians differ and both count 2
    params = MediumParams(alpha, 0.3)
    ansatze = [AnsatzFamily("sech2", ("B", "v"), {"A": math.copysign(A, alpha), "D": 0.0})
               for A in (1.0, 2.0)]
    jacs = [fitting._manifold_jacobian(EquationKind.KDV, params, a) for a in ansatze]
    assert not np.array_equal(*jacs)
    assert [fitting.count_constraints(EquationKind.KDV, params, a) for a in ansatze] == [2, 2]


def _beta5_refused(beta: float, tau: float) -> str:
    return (f"MediumParams.beta={beta!r} and tau={tau!r} give a fifth-order coefficient "
            "beta5 that is not a finite float")


@pytest.mark.parametrize("beta,tau", [(1.0e200, 0.0), (1.4e154, 0.0), (0.1, 1.0e160),
                                      (1.0e150, 1.0e10), (1.0e-100, 1.3e154)])
def test_a_medium_whose_fifth_order_coefficient_is_not_finite_is_refused(beta, tau):
    with pytest.raises(ValueError) as err:
        MediumParams(0.1, beta, tau=tau)
    assert str(err.value) == _beta5_refused(beta, tau)


@pytest.mark.parametrize("beta,tau", [(3.0e153, 0.0), (0.1, 1.0e150), (1.0e-300, 1.0e150)])
def test_a_medium_whose_fifth_order_coefficient_is_finite_is_built(beta, tau):
    assert math.isfinite(MediumParams(0.1, beta, tau=tau).beta5())


def test_an_evolve_whose_medium_overflows_beta5_exits_two_and_names_beta_and_tau(
        capsys, tmp_path):
    path = tmp_path / "evolve.yaml"
    path.write_text(yaml.safe_dump({
        "equation": "fifth_order", "medium": {"alpha": 0.1, "beta": 0.1, "tau": 1.0e160},
        "grid": SMALL_GRID, "initial": SOLITON, "dt": 0.01, "t_end": 0.02}))
    code = main(["evolve", "--config", str(path)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == f"config error: invalid 'medium': {_beta5_refused(0.1, 1.0e160)}\n"
