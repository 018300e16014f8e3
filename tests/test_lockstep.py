"""Multi-start fits advance their starts in lockstep.

One round stacks the residual evaluations, the Jacobians and the damped
least-squares solves of all running starts; every result must still
be, bit for bit, the fit from that start alone, and the fits of the shipped
ladder must stay the values frozen below.
"""
import math
from pathlib import Path

import numpy as np
import pytest
import yaml
from numpy._core._multiarray_umath import __cpu_features__

from kdvwaves import fitting
from kdvwaves.cli import main
from kdvwaves.equations import EquationKind
from kdvwaves.fitting import (AnsatzFamily, amplitude_starts, fit_travelling_wave,
                              multi_start_fit)
from kdvwaves.waves import (MediumParams, TravellingWave, make_kdv_cnoidal,
                            make_kdv_soliton)

P = MediumParams(alpha=0.1, beta=0.1)
PG = MediumParams(alpha=0.1, beta=0.3, tau=0.0)
KDV2_SECH2 = AnsatzFamily("sech2", ("A", "B", "v"), {"D": 0.0})
CONFIGS = Path(__file__).resolve().parents[1] / "scripts" / "configs"

# the shipped ladder (fit_kdv2_multistart.yaml) at alpha = 0.1, one row per
# start: (A, B, v), residual, status, n_iterations, rank; D stays 0.0.  The
# values are the bytes of numpy's loops, so two sets are recorded: one where
# numpy dispatches its AVX-512 (AVX512_SKX) loops, and one on its baseline
# loops, as under NPY_DISABLE_CPU_FEATURES=X86_V4
AVX512_LADDER = [
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
BASELINE_LADDER = [
    ((0.3448596229396694, 0.5055693636588361, 1.0169734256099847),
     6.789849763090294e-05, "trivial", 9, 3),
    ((0.3485039814979031, 0.5099577668574653, 1.017057649031468),
     0.00015802172977800793, "trivial", 9, 3),
    ((0.3349995367840267, 0.5026827468118517, 1.016382547246828),
     0.0002629707842101349, "trivial", 9, 3),
    ((0.9465839672231443, 0.8306523236039409, 1.045121176692193),
     0.0007324139614742223, "trivial", 9, 3),
    ((2.4239874031591384, 1.2047278050338408, 1.1145459265780535),
     5.784992504613846e-13, "converged", 7, 3),
    ((2.423987405733445, 1.204727805375292, 1.11454592670512),
     8.298158066311465e-12, "converged", 7, 3),
    ((2.423987415170184, 1.2047278072929586, 1.1145459271275169),
     7.876141702757778e-11, "converged", 8, 3),
    ((2.4239874027363078, 1.2047278049703933, 1.1145459265582325),
     2.1628222106731025e-14, "converged", 10, 3),
]
SHIPPED_LADDER = AVX512_LADDER if __cpu_features__.get("AVX512_SKX") else BASELINE_LADDER


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


def test_shipped_ladder_solves_each_round_in_one_call(monkeypatch):
    # its 80 damped least-squares trials, one lstsq call each before, take
    # one stacked call per round
    stacks = []
    real = fitting._lstsq

    def counted(a, *args, **kwargs):
        stacks.append(len(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(fitting, "_lstsq", counted)
    multi_start_fit(EquationKind.KDV2, P, KDV2_SECH2, _shipped_starts(P))
    assert (len(stacks), sum(stacks)) == (12, 80)


def _systems(shape, count, seed):
    rng = np.random.default_rng(seed)
    augs = rng.standard_normal((count,) + shape)
    # a repeated column leaves rank to rcond, as a deficient Jacobian does
    augs[0, :, -1] = augs[0, :, 0]
    return augs, rng.standard_normal((count, shape[0]))


@pytest.mark.parametrize("count", [1, 8])
@pytest.mark.parametrize("shape", [(12, 3), (13, 3), (13, 4), (9, 3)])
def test_stacked_solve_is_lstsq_bit_for_bit(shape, count):
    augs, rhss = _systems(shape, count, seed=sum(shape) * count)
    steps = fitting._solve(list(augs), list(rhss))
    assert len(steps) == count
    for aug, rhs, step in zip(augs, rhss, steps):
        assert step.tobytes() == np.linalg.lstsq(aug, rhs, rcond=None)[0].tobytes()


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_stacked_solve_refuses_a_non_finite_system_as_lstsq_does(value):
    augs, rhss = _systems((12, 3), 3, seed=5)
    augs[1, 4, 2] = value
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.lstsq(augs[1], rhss[1], rcond=None)
    with pytest.raises(np.linalg.LinAlgError):
        fitting._solve(list(augs), list(rhss))


def test_a_non_finite_start_fails_alone_by_index():
    starts = [{"A": 2.4, "B": 1.2, "v": 1.1}, {"A": math.nan, "B": 1.2, "v": 1.1}]
    with pytest.raises(fitting.StartError, match="start value A must be finite, got nan") as err:
        multi_start_fit(EquationKind.KDV2, P, KDV2_SECH2, starts)
    assert err.value.index == 1


def test_a_non_finite_fixed_value_is_refused_by_name():
    with pytest.raises(ValueError, match="fixed parameter D must be finite, got inf"):
        AnsatzFamily("sech2", ("A", "B", "v"), {"D": math.inf})


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


def test_a_start_whose_m_column_cannot_be_formed_ends_alone(monkeypatch):
    # next to m = 0.5 nothing but m = 0.5 itself evaluates, so that start's
    # first Jacobian has no m column: its stacked call falls back to one
    # call per start, and the start ends singular_jacobian as alone
    real = fitting._fit_residual

    def no_bumps(kind, params, ansatz, xi, values):
        if values["m"] != 0.5 and abs(values["m"] - 0.5) < 1e-4:
            raise ValueError("bumped")
        return real(kind, params, ansatz, xi, values)

    monkeypatch.setattr(fitting, "_fit_residual", no_bumps)
    wave = make_kdv_cnoidal(P, 1.0, 0.9)
    ansatz = AnsatzFamily("cn2", ("A", "B", "v", "m"), {"D": wave.D})
    starts = [{"A": 1.0, "B": wave.B * g, "v": wave.v, "m": m}
              for g, m in ((1.1, 0.9), (1.0, 0.5), (0.9, 0.9))]
    _assert_each_start_fits_alone(EquationKind.KDV, P, ansatz, starts)
    results = [fit_travelling_wave(EquationKind.KDV, P, ansatz, s) for s in starts]
    assert [(r.status, r.n_iterations, r.rank) for r in results][1] == \
        ("singular_jacobian", 1, None)
    assert all(r.rank == 4 for r in results[::2])


def test_a_step_stops_trying_once_the_damping_passes_its_cap(monkeypatch):
    # every trial is rejected but the first step's twelfth, taken at mu = 1e8; the
    # second step starts at mu = 1e8/3 and passes 1e12 after five more rejections,
    # so it ends with no trial accepted: stalled, at full rank
    real, calls = fitting._fit_residual, []

    def rejected(kind, params, ansatz, xi, values):
        point = real(kind, params, ansatz, xi, values)
        calls.append(values["A"])
        return point if len(calls) in (1, 13) else point._replace(res=point.res + 1e3)

    monkeypatch.setattr(fitting, "_fit_residual", rejected)
    result = fit_travelling_wave(EquationKind.KDV2, P, KDV2_SECH2,
                                 {"A": 3.0, "B": 1.3, "v": 1.1})
    assert (result.status, result.n_iterations, result.rank) == ("stalled", 2, 3)
    assert len(calls) == 1 + 12 + 5


def test_a_converged_fit_of_tiny_amplitude_counts_but_forms_no_basin(capsys, tmp_path):
    # at B = 4.7e-4 the kdv soliton's amplitude is 3e-7, below MERGE_TOL: both fits
    # converge there, and neither is a basin
    wave = make_kdv_soliton(P, 3e-7)
    ansatz = AnsatzFamily("sech2", ("A",), {"B": wave.B, "v": wave.v, "D": 0.0})
    starts = [{"A": 2e-7}, {"A": 5e-7}]
    basins, results = multi_start_fit(EquationKind.KDV, P, ansatz, starts)
    assert basins == [] and all(r.converged for r in results)
    assert all(0.0 < r.values["A"] < fitting.MERGE_TOL for r in results)
    path = tmp_path / "tiny.yaml"
    path.write_text(yaml.safe_dump({
        "equation": "kdv", "medium": {"alpha": P.alpha, "beta": P.beta},
        "ansatz": {"shape": "sech2", "free": ["A"], "fixed": ansatz.fixed},
        "starts": starts}))
    assert main(["fit", "--config", str(path)]) == 1
    assert capsys.readouterr().out == '{"n_starts": 2, "n_converged": 2, "n_basins": 0}\n'


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
def test_cli_refuses_an_n_points_key_as_unknown(capsys, tmp_path, name, n_points):
    # a fit lays out max(3 n_free, 9) nodes by rule: no key sets their count
    cfg = _fit_config(tmp_path, {"n_points": n_points}, name)
    assert main(["fit", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert "unknown key 'n_points'" in captured.err and captured.out == ""


@pytest.mark.parametrize("changes,message", [
    ({"starts": [{"A": 2.4, "B": 1.2, "v": 1.1}, {"A": float("nan"), "B": 1.2, "v": 1.1}]},
     "invalid 'starts[1]': start value A must be finite, got nan"),
    ({"starts": None, "start": {"A": 2.4, "B": 1.2, "v": float("inf")}},
     "invalid 'start': start value v must be finite, got inf"),
    ({"ansatz": {"shape": "sech2", "free": ["A", "B", "v"], "fixed": {"D": float("nan")}}},
     "invalid 'ansatz': fixed parameter D must be finite, got nan"),
])
def test_cli_refuses_a_non_finite_start_or_fixed_value_by_name(capsys, tmp_path, changes,
                                                             message):
    cfg = _fit_config(tmp_path, changes, "fit_kdv2_multistart.yaml")
    assert main(["fit", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert message in captured.err and captured.out == ""
