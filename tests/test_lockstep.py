"""Multi-start fits advance their starts in lockstep.

One round stacks the residual evaluations, the Jacobians and the SVDs of
all running starts; every result must still be, bit for bit, the fit from
that start alone, and the fits of the shipped ladder must stay the values
frozen below.
"""
from pathlib import Path

import pytest
import yaml

from kdvwaves import fitting
from kdvwaves.cli import main
from kdvwaves.equations import EquationKind
from kdvwaves.fitting import (AnsatzFamily, amplitude_starts, fit_travelling_wave,
                              multi_start_fit)
from kdvwaves.waves import MediumParams, TravellingWave, make_kdv_cnoidal

P = MediumParams(alpha=0.1, beta=0.1)
PG = MediumParams(alpha=0.1, beta=0.3, tau=0.0)
KDV2_SECH2 = AnsatzFamily("sech2", ("A", "B", "v"), {"D": 0.0})
CONFIGS = Path(__file__).resolve().parents[1] / "scripts" / "configs"

# the shipped ladder (fit_kdv2_multistart.yaml) at alpha = 0.1, one row per
# start: (A, B, v), residual, status, n_iterations, rank; D stays 0.0
SHIPPED_LADDER = [
    ((0.3448596229396646, 0.5055693636588349, 1.0169734256099843),
     6.789849763093215e-05, "trivial", 9, 3),
    ((0.3485039814978766, 0.5099577668574472, 1.0170576490314667),
     0.0001580217297780494, "trivial", 9, 3),
    ((0.33499953678405414, 0.5026827468118723, 1.0163825472468293),
     0.0002629707842101669, "trivial", 9, 3),
    ((0.9465839672231452, 0.8306523236039406, 1.0451211766921933),
     0.0007324139614741804, "trivial", 9, 3),
    ((2.4239874031591397, 1.204727805033842, 1.1145459265780535),
     5.784663641990835e-13, "converged", 7, 3),
    ((2.4239874057334427, 1.204727805375291, 1.1145459267051199),
     8.298166679960803e-12, "converged", 7, 3),
    ((2.423987415170197, 1.2047278072929608, 1.1145459271275173),
     7.876131028489428e-11, "converged", 8, 3),
    ((2.423987402736287, 1.20472780497039, 1.1145459265582316),
     2.153926283842595e-14, "converged", 10, 3),
]


def _record(result):
    return (result.values, result.residual, result.status, result.n_iterations,
            result.rank)


def _shipped_starts(params):
    spec = yaml.safe_load((CONFIGS / "fit_kdv2_multistart.yaml").read_text())
    amplitudes = spec["starts"]["amplitudes"]
    return amplitude_starts(params, amplitudes["n"], tuple(amplitudes["span"]))


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_shipped_ladder_keeps_its_frozen_fits(sign):
    # the mirror (A, alpha) -> (-A, -alpha) negates A and keeps the rest
    params = P if sign > 0 else P.flipped()
    _, results = multi_start_fit(EquationKind.KDV2, params, KDV2_SECH2,
                                 _shipped_starts(params))
    assert [_record(r) for r in results] == [
        ({"D": 0.0, "A": sign * A, "B": B, "v": v}, residual, status, n, rank)
        for (A, B, v), residual, status, n, rank in SHIPPED_LADDER]


def test_shipped_ladder_evaluates_its_rows_once_per_round(monkeypatch):
    # 13 is the longest start's evaluation count: the start values and one
    # trial per round; one start at a time took 88
    calls = []
    real = TravellingWave.derivatives

    def counted(self, xi, order=5):
        calls.append(order)
        return real(self, xi, order)

    monkeypatch.setattr(TravellingWave, "derivatives", counted)
    multi_start_fit(EquationKind.KDV2, P, KDV2_SECH2, _shipped_starts(P))
    assert len(calls) == 13


def _assert_each_start_fits_alone(kind, params, ansatz, starts):
    _, results = multi_start_fit(kind, params, ansatz, starts)
    assert [_record(r) for r in results] == [
        _record(fit_travelling_wave(kind, params, ansatz, s)) for s in starts]


def test_gardner_starts_whose_trial_meets_a_pole_fit_as_alone(monkeypatch):
    # no start holds a pole of 1/(1 + B cosh xi) in its window, but trials of
    # the second and third starts do: those trials alone are rejected, in
    # their stack too
    poles = []
    real = fitting._unit_rows

    def watched(ansatz, xi, values):
        try:
            return real(ansatz, xi, values)
        except ValueError as exc:
            poles.append(str(exc))
            raise

    monkeypatch.setattr(fitting, "_unit_rows", watched)
    ansatz = AnsatzFamily("gardner", ("A", "B", "v"), {"Delta": 1.0})
    starts = [{"A": 1.4, "B": 0.7, "v": 1.03},
              {"A": 1.87, "B": 1.95, "v": 1.06},
              {"A": 1.84, "B": 1.72, "v": 0.98},
              {"A": -3.0, "B": -1.3, "v": 1.02}]
    _assert_each_start_fits_alone(EquationKind.GARDNER, PG, ansatz, starts)
    assert "gardner denominator vanishes on the window" in poles


def test_gardner_start_with_a_pole_in_its_window_is_refused_by_index():
    # the start whose first trial put a pole within 1e-14 of a node holds
    # one itself, at arccosh(1/0.48) = 1.37, inside its window [0, 8]
    ansatz = AnsatzFamily("gardner", ("A", "B", "v"), {"Delta": 1.0})
    starts = [{"A": 1.4, "B": 0.7, "v": 1.03},
              {"A": 7.247715919835332, "B": -0.48, "v": 1.02}]
    with pytest.raises(fitting.StartError, match="cannot be evaluated") as err:
        multi_start_fit(EquationKind.GARDNER, PG, ansatz, starts)
    assert err.value.index == 1


@pytest.mark.parametrize("free,fixed,zero_mean", [
    (("A", "B", "v", "m"), {"D": 0.0}, False),
    (("A", "B", "v", "D", "m"), {}, True),
])
def test_cnoidal_starts_with_free_m_fit_as_alone(free, fixed, zero_mean):
    # starts that share m share a stack; m near 0 and 1 takes one-sided
    # differences and rejected trials
    wave = make_kdv_cnoidal(P, 1.0, 0.9)
    ansatz = AnsatzFamily("cn2", free, fixed, zero_mean=zero_mean)
    starts = [{"A": 1.0, "B": wave.B * g, "v": wave.v, "D": wave.D, "m": m}
              for g in (0.7, 1.4) for m in (1e-7, 0.9, 0.9, 0.9999999)]
    _assert_each_start_fits_alone(EquationKind.KDV, P, ansatz,
                                  [{p: s[p] for p in free} for s in starts])


@pytest.mark.parametrize("n_points", [2, 0])
def test_fewer_nodes_than_free_parameters_are_refused(n_points):
    with pytest.raises(ValueError, match="n_points"):
        fit_travelling_wave(EquationKind.KDV2, P, KDV2_SECH2,
                            {"A": 2.4, "B": 1.2, "v": 1.1}, n_points=n_points)


def _fit_config(tmp_path, changes: dict, name: str) -> str:
    doc = yaml.safe_load((CONFIGS / name).read_text())
    doc.update(changes)
    path = tmp_path / name
    path.write_text(yaml.safe_dump(doc))
    return str(path)


@pytest.mark.parametrize("amplitudes,key", [
    ({"n": -2}, "starts.amplitudes.n"),
    ({"n": 0}, "starts.amplitudes.n"),
    ({"span": [0.0, 8.0]}, "starts.amplitudes.span"),
    ({"span": [-1.0, 8.0]}, "starts.amplitudes.span"),
    ({"span": [0.5, float("nan")]}, "starts.amplitudes.span"),
    ({"span": [0.5, float("inf")]}, "starts.amplitudes.span"),
])
def test_cli_refuses_a_bad_amplitude_ladder(capsys, tmp_path, amplitudes, key):
    cfg = _fit_config(tmp_path, {"starts": {"amplitudes": amplitudes}},
                      "fit_kdv2_multistart.yaml")
    assert main(["fit", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert key in captured.err and captured.out == ""


@pytest.mark.parametrize("name", ["fit_kdv2_multistart.yaml", "fit_gardner.yaml"])
@pytest.mark.parametrize("n_points", [2, 0])
def test_cli_refuses_fewer_nodes_than_free_parameters(capsys, tmp_path, name, n_points):
    cfg = _fit_config(tmp_path, {"n_points": n_points}, name)
    assert main(["fit", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert "'n_points'" in captured.err and captured.out == ""
