"""Command-line surface: exit codes, output formats, determinism."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import kdvwaves
from kdvwaves import cli
from kdvwaves.cli import main

SHIPPED_CONFIGS = sorted((Path(__file__).resolve().parents[1] / "scripts" / "configs")
                         .rglob("*.yaml"))


def _load_both(path) -> list:
    """The document under the CLI's loader and under PyYAML's pure-Python
    SafeLoader, or YAMLError where a loader refuses it."""
    docs = []
    for loader in (cli._LOADER, yaml.SafeLoader):
        try:
            with open(path) as fh:
                docs.append(yaml.load(fh, Loader=loader))
        except yaml.YAMLError:
            docs.append(yaml.YAMLError)
    return docs


@pytest.fixture(autouse=True)
def _every_written_config_loads_alike(tmp_path):
    # after each test: every config document it wrote reads the same
    # under libyaml as under the pure-Python loader
    yield
    for path in sorted(tmp_path.rglob("*.yaml")):
        first, second = _load_both(path)
        assert first == second, path.name


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(doc))
    return str(path)


def _records(out: str) -> list[dict]:
    return [json.loads(line) for line in out.splitlines() if line.strip()]


def _strict(out: str) -> list[dict]:
    """The records as strict JSON: NaN or Infinity fails the test."""
    return [json.loads(line, parse_constant=pytest.fail) for line in out.splitlines()]


PROFILE_DOC = {
    "medium": {"alpha": 0.1, "beta": 0.1},
    "grid": {"x0": -20.0, "length": 40.0, "n": 64},
    "wave": {"family": "kdv_soliton", "A": 1.0},
}


def test_profile_csv_peak_equals_amplitude(capsys, tmp_path):
    cfg = _write(tmp_path, "p.yaml", PROFILE_DOC)
    code, out, _ = _run(capsys, ["profile", "--config", cfg])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "x,u"
    rows = [tuple(map(float, ln.split(","))) for ln in lines[1:]]
    by_x = dict(rows)
    assert by_x[0.0] == 1.0          # peak value A at xi = 0, exactly
    assert len(rows) == 64


def test_profile_inverted_negates_everything(capsys, tmp_path):
    cfg_up = _write(tmp_path, "up.yaml", PROFILE_DOC)
    cfg_dn = _write(tmp_path, "dn.yaml", {**PROFILE_DOC, "inverted": True})
    _, out_up, _ = _run(capsys, ["profile", "--config", cfg_up])
    _, out_dn, _ = _run(capsys, ["profile", "--config", cfg_dn])
    u_up = [float(ln.split(",")[1]) for ln in out_up.splitlines()[1:]]
    u_dn = [float(ln.split(",")[1]) for ln in out_dn.splitlines()[1:]]
    assert u_dn == [-u for u in u_up]


def test_profile_two_soliton_peak_count(capsys, tmp_path):
    doc = {
        "medium": {"alpha": 0.1, "beta": 0.1},
        "grid": {"x0": -300.0, "length": 600.0, "n": 4096},
        "wave": {"family": "two_soliton", "amplitudes": [1.0, 2.0]},
        "times": [-40.0, 40.0],
    }
    cfg = _write(tmp_path, "two.yaml", doc)
    code, out, _ = _run(capsys, ["profile", "--config", cfg])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "t,x,u"
    for t_want in (-40.0, 40.0):
        u = np.array([float(ln.split(",")[2]) for ln in lines[1:]
                      if float(ln.split(",")[0]) == t_want])
        du = np.diff(u)
        crossings = np.sum((du[:-1] > 0) & (du[1:] <= 0) & (u[1:-1] > 0.2))
        assert crossings == 2


def test_verify_default_catalog_passes(capsys, tmp_path):
    cfg = _write(tmp_path, "v.yaml", {})
    code, out, err = _run(capsys, ["verify", "--config", cfg])
    assert code == 0
    recs = _records(out)
    assert len(recs) == 8
    assert all(r["passed"] for r in recs)
    assert "8/8 passed" in err


def test_verify_mismatch_fails_with_exit_one(capsys, tmp_path):
    doc = {
        "medium": {"alpha": 0.1, "beta": 0.1, "tau": 0.0},
        "grid": {"x0": -50.0, "length": 100.0, "n": 1024},
        "cases": [{"label": "mismatch", "equation": "gardner",
                   "wave": {"family": "kdv_soliton", "A": 1.0}}],
    }
    cfg = _write(tmp_path, "vm.yaml", doc)
    code, out, _ = _run(capsys, ["verify", "--config", cfg])
    assert code == 1
    (rec,) = _records(out)
    assert not rec["passed"]
    assert rec["relative"] >= 1e-3


def test_verify_a_field_that_vanishes_on_the_grid_fails_as_zero_field(capsys, tmp_path):
    # at t = 1e6 the soliton has left the grid and u underflows to 0 there,
    # so every term of any equation is 0: the report checks nothing and fails
    doc = {
        "medium": {"alpha": 0.1, "beta": 0.1, "tau": 0.0},
        "grid": {"x0": -50.0, "length": 100.0, "n": 1024},
        "cases": [{"label": "gone", "equation": "gardner", "t": 1.0e6,
                   "wave": {"family": "kdv_soliton", "A": 1.0}}],
    }
    cfg = _write(tmp_path, "vz.yaml", doc)
    code, out, err = _run(capsys, ["verify", "--config", cfg])
    assert code == 1
    (rec,) = [json.loads(line, parse_constant=pytest.fail) for line in out.splitlines()]
    assert rec["scale"] == 0.0 and rec["relative"] == 0.0
    assert not rec["passed"]
    assert rec["flags"] == ["zero_field"]
    assert "0/1 passed" in err


def test_verify_empty_request_succeeds(capsys, tmp_path):
    cfg = _write(tmp_path, "ve.yaml", {"cases": []})
    code, out, _ = _run(capsys, ["verify", "--config", cfg])
    assert code == 0
    assert _records(out) == []


def test_verify_inverted_case_checks_against_the_flipped_medium(capsys, tmp_path):
    # the mirror wave solves the alpha-flipped equation, so the residual
    # must be computed under that medium, not the one in the config
    doc = {
        "medium": {"alpha": 0.1, "beta": 0.1},
        "grid": {"x0": -50.0, "length": 100.0, "n": 1024},
        "inverted": True,
        "cases": [
            {"label": "mirror soliton", "equation": "kdv",
             "wave": {"family": "kdv_soliton", "A": 1.0}},
            {"label": "mirror pair", "equation": "kdv",
             "grid": {"x0": -64.0, "length": 128.0, "n": 1024},
             "wave": {"family": "two_soliton", "amplitudes": [1.0, 2.0]}},
        ],
    }
    cfg = _write(tmp_path, "vi.yaml", doc)
    code, out, _ = _run(capsys, ["verify", "--config", cfg])
    assert code == 0
    assert all(r["passed"] for r in _records(out))


def test_verify_periodic_waves_next_to_m_one(capsys, tmp_path):
    # no grid: each wave is checked over its own wavelength
    wave = {"A": 1.0, "m": 1.0 - 5e-13}
    doc = {
        "medium": {"alpha": 0.1, "beta": 0.1},
        "cases": [
            {"label": "cnoidal", "equation": "kdv",
             "wave": {"family": "kdv_cnoidal", **wave}},
            {"label": "inverted cnoidal", "equation": "kdv", "inverted": True,
             "wave": {"family": "kdv_cnoidal", **wave}},
            {"label": "superposition minus", "equation": "kdv",
             "wave": {"family": "kdv_superposition_minus", **wave}},
        ],
    }
    cfg = _write(tmp_path, "vm1.yaml", doc)
    code, out, _ = _run(capsys, ["verify", "--config", cfg])
    recs = _records(out)
    assert code == 0
    assert len(recs) == 3
    assert all(r["passed"] and r["relative"] <= 1e-8 for r in recs)


def test_verify_ladders_honour_time_and_frame(capsys, tmp_path):
    # each window tracks its ladder; u_t takes the frame's speeds
    three = {"family": "three_soliton", "amplitudes": [1.0, 2.0, 3.0]}
    doc = {
        "medium": {"alpha": 0.1, "beta": 0.1},
        "equation": "kdv",
        "cases": [
            {"label": "t0", "grid": {"x0": -48.0, "length": 96.0, "n": 1024},
             "wave": three},
            {"label": "t30", "t": 30.0, "wave": three,
             "grid": {"x0": -15.0, "length": 96.0, "n": 1024}},
            {"label": "moving pair", "frame": "moving",
             "grid": {"x0": -64.0, "length": 128.0, "n": 1024},
             "wave": {"family": "two_soliton", "amplitudes": [1.0, 2.0]}},
            {"label": "moving t30", "frame": "moving", "t": 30.0, "wave": three,
             "grid": {"x0": -45.0, "length": 96.0, "n": 1024}},
        ],
    }
    cfg = _write(tmp_path, "vl.yaml", doc)
    code, out, _ = _run(capsys, ["verify", "--config", cfg])
    recs = _records(out)
    assert code == 0
    assert [r["equation"] for r in recs] == ["kdv/fixed"] * 2 + ["kdv/moving"] * 2
    assert all(r["passed"] and r["relative"] <= 1e-8 for r in recs)
    t0, t30 = ({k: v for k, v in r.items() if k != "label"} for r in recs[:2])
    assert t0 != t30


@pytest.mark.parametrize("family,amplitudes", [("two_soliton", [4.0, 8.0]),
                                               ("three_soliton", [2.0, 4.0, 6.0])])
def test_verify_fast_ladders_pass(capsys, tmp_path, family, amplitudes):
    doc = {
        "medium": {"alpha": 0.5, "beta": 0.1},
        "grid": {"x0": -24.0, "length": 48.0, "n": 2048},
        "cases": [{"equation": "kdv",
                   "wave": {"family": family, "amplitudes": amplitudes}}],
    }
    cfg = _write(tmp_path, "vf.yaml", doc)
    code, out, _ = _run(capsys, ["verify", "--config", cfg])
    (rec,) = _records(out)
    assert code == 0
    assert rec["relative"] <= 1e-8


def test_profile_moving_ladder_is_the_fixed_one_shifted(capsys, tmp_path):
    t = 8.0
    base = {"medium": {"alpha": 0.1, "beta": 0.1}, "times": [t],
            "wave": {"family": "three_soliton", "amplitudes": [1.0, 2.0, 3.0]}}
    moving = _write(tmp_path, "pm.yaml", {
        **base, "frame": "moving", "grid": {"x0": -40.0, "length": 80.0, "n": 512}})
    fixed = _write(tmp_path, "pf.yaml", {
        **base, "grid": {"x0": -40.0 + t, "length": 80.0, "n": 512}})
    rows = []
    for cfg in (moving, fixed):
        code, out, _ = _run(capsys, ["profile", "--config", cfg])
        assert code == 0
        rows.append(np.array([[float(v) for v in ln.split(",")]
                              for ln in out.splitlines()[1:]]))
    (x_m, u_m), (x_f, u_f) = rows[0].T, rows[1].T
    np.testing.assert_allclose(x_m + t, x_f, rtol=0, atol=1e-12)
    np.testing.assert_allclose(u_m, u_f, rtol=0, atol=1e-12 * np.max(u_f))


def test_config_errors_exit_two(capsys, tmp_path):
    code, _, err = _run(capsys, ["verify", "--config", str(tmp_path / "nope.yaml")])
    assert code == 2
    assert "not found" in err

    cfg = _write(tmp_path, "bad.yaml", {**PROFILE_DOC,
                                        "wave": {"family": "airy"}})
    code, _, err = _run(capsys, ["profile", "--config", cfg])
    assert code == 2
    assert "family" in err

    cfg = _write(tmp_path, "badgrid.yaml",
                 {**PROFILE_DOC, "grid": {"x0": 0.0, "length": 10.0, "n": 7}})
    code, _, err = _run(capsys, ["profile", "--config", cfg])
    assert code == 2
    assert "grid" in err


def test_symmetry_single_case_selection(capsys, tmp_path):
    cfg = _write(tmp_path, "s.yaml", {"select": "soliton/kdv", "n_seeds": 1})
    code, out, err = _run(capsys, ["symmetry", "--config", cfg])
    assert code == 0
    recs = _records(out)
    assert len(recs) == 1
    assert recs[0]["label"] == "soliton/kdv"
    assert recs[0]["pass"]
    assert "worst antisymmetry defect" in err


def test_symmetry_runs_without_config(capsys):
    code, out, _ = _run(capsys, ["symmetry", "--seed", "7"])
    assert code == 0
    recs = _records(out)
    # 4 kinds x {flat, ramp} x 5 seeds + 8 catalog solutions
    assert len(recs) == 48
    assert all(r["pass"] for r in recs)


def test_symmetry_tolerance_is_the_reported_algebraic_tolerance(capsys):
    code, out, err = _run(capsys, ["symmetry", "--seed", "7", "--tolerance", "1e-10"])
    assert code == 0
    recs = _records(out)
    assert len(recs) == 48
    assert all(r["algebraic_tol"] == 1e-10 for r in recs)
    assert "(tolerance 1e-10)" in err


def test_a_reader_closing_the_pipe_ends_the_run_quietly_with_141(tmp_path):
    # four 4096-point profiles overfill the pipe buffer, so the run is
    # still writing when the reader leaves
    cfg = _write(tmp_path, "big.yaml", {
        **PROFILE_DOC, "grid": {"x0": -20.0, "length": 40.0, "n": 4096},
        "times": [0.0, 1.0, 2.0, 3.0]})
    env = {**os.environ, "PYTHONPATH": str(Path(kdvwaves.__file__).parents[1])}
    proc = subprocess.Popen(
        [sys.executable, "-W", "error", "-m", "kdvwaves", "profile", "--config", cfg],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline() == b"t,x,u\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert err == b""


def test_fit_subcommand_recovers_soliton(capsys, tmp_path):
    doc = {
        "equation": "kdv",
        "medium": {"alpha": 0.1, "beta": 0.1},
        "ansatz": {"shape": "sech2", "free": ["B", "v"],
                   "fixed": {"A": 1.0, "D": 0.0}},
        "start": {"B": 0.7, "v": 1.03},
    }
    cfg = _write(tmp_path, "f.yaml", doc)
    code, out, _ = _run(capsys, ["fit", "--config", cfg])
    assert code == 0
    (rec,) = _records(out)
    assert rec["status"] == "converged"
    assert abs(rec["values"]["B"] - math.sqrt(0.75)) < 1e-8
    assert abs(rec["values"]["v"] - 1.05) < 1e-8


def test_fit_requires_exactly_one_start_mode(capsys, tmp_path):
    doc = {
        "equation": "kdv",
        "medium": {"alpha": 0.1, "beta": 0.1},
        "ansatz": {"shape": "sech2", "free": ["B", "v"],
                   "fixed": {"A": 1.0, "D": 0.0}},
    }
    cfg = _write(tmp_path, "f2.yaml", doc)
    code, _, err = _run(capsys, ["fit", "--config", cfg])
    assert code == 2
    assert "start" in err


def test_evolve_soliton_peak_translates(capsys, tmp_path):
    doc = {
        "equation": "kdv",
        "medium": {"alpha": 0.1, "beta": 0.1},
        "grid": {"x0": -30.0, "length": 60.0, "n": 256},
        "dt": 0.05, "t_end": 10.0, "output_stride": 0,
        "initial": {"family": "kdv_soliton", "A": 1.0},
    }
    cfg = _write(tmp_path, "e.yaml", doc)
    out_dir = tmp_path / "out"
    code, out, _ = _run(capsys, ["evolve", "--config", cfg,
                                 "--out", str(out_dir)])
    assert code == 0
    (rec,) = _records(out)
    assert abs(rec["estimated_speed"] - 1.05) < 1e-3
    assert rec["mass_drift"] < 1e-10
    # concatenated table: initial and final snapshot, time column first
    rows = (out_dir / "trajectory.csv").read_text().splitlines()
    assert rows[0] == "t,x,u"
    times = {float(r.split(",")[0]) for r in rows[1:]}
    assert times == {0.0, 10.0}
    assert (out_dir / "monitors.csv").exists()


def test_evolve_inverted_run_negates_the_trajectory(capsys, tmp_path):
    # 'inverted' on the initial state flips the medium of the run too,
    # so the whole trajectory is the exact pointwise mirror
    doc = {
        "equation": "kdv",
        "medium": {"alpha": 0.1, "beta": 0.1},
        "grid": {"x0": -30.0, "length": 60.0, "n": 256},
        "dt": 0.05, "t_end": 2.0, "output_stride": 20,
        "initial": {"family": "kdv_soliton", "A": 1.0},
    }
    up_dir, dn_dir = tmp_path / "up", tmp_path / "dn"
    cfg_up = _write(tmp_path, "up.yaml", doc)
    cfg_dn = _write(tmp_path, "dn.yaml", {**doc, "inverted": True})
    assert _run(capsys, ["evolve", "--config", cfg_up, "--out", str(up_dir)])[0] == 0
    assert _run(capsys, ["evolve", "--config", cfg_dn, "--out", str(dn_dir)])[0] == 0
    up_rows = (up_dir / "trajectory.csv").read_text().splitlines()[1:]
    dn_rows = (dn_dir / "trajectory.csv").read_text().splitlines()[1:]
    for up_line, dn_line in zip(up_rows, dn_rows):
        _, _, u_up = map(float, up_line.split(","))
        _, _, u_dn = map(float, dn_line.split(","))
        assert u_dn == -u_up


def test_evolve_abort_exits_three(capsys, tmp_path):
    doc = {
        "equation": "kdv",
        "medium": {"alpha": 10.0, "beta": 0.1},
        "grid": {"x0": -30.0, "length": 60.0, "n": 256},
        "dt": 5.0, "t_end": 50.0, "output_stride": 1,
        "initial": {"family": "kdv_soliton", "A": 30.0},
    }
    cfg = _write(tmp_path, "blow.yaml", doc)
    code, out, err = _run(capsys, ["evolve", "--config", cfg])
    assert code == 3
    (rec,) = _records(out)
    assert "aborted" in rec
    assert "abort" in err


def test_verify_reports_a_finite_norm_2_where_the_squares_overflow(capsys, tmp_path):
    # at alpha = 1e-300 the kdv2, fifth-order and gardner residuals pass 1e154
    cfg = _write(tmp_path, "tiny.yaml", {"medium": {"alpha": 1.0e-300, "beta": 0.1}})
    code, out, _ = _run(capsys, ["verify", "--config", cfg])
    assert code == 1
    recs = _strict(out)
    assert max(r["norm_inf"] for r in recs) > 1e154
    assert all(math.isfinite(r["norm_2"]) for r in recs)


HUGE = {"medium": {"alpha": 1.0e-306, "beta": 0.1},
        "grid": {"x0": -50.0, "length": 100.0, "n": 1024}}
HUGE_SOLITON = {"family": "kdv_soliton", "A": 1.0e306}


def test_profile_prints_finite_samples_whose_derivatives_overflow(capsys, tmp_path):
    # profile reads u alone, as evolve does: no u_t is formed
    cfg = _write(tmp_path, "huge.yaml", {**HUGE, "wave": HUGE_SOLITON})
    code, out, _ = _run(capsys, ["profile", "--config", cfg])
    assert code == 0
    u = np.array([float(line.split(",")[1]) for line in out.splitlines()[1:]])
    assert u.size == 1024 and np.all(np.isfinite(u))


def test_verify_of_a_wave_whose_derivatives_overflow_is_a_numerical_abort(capsys, tmp_path):
    cfg = _write(tmp_path, "huge.yaml", {**HUGE, "cases": [
        {"label": "tame", "equation": "kdv", "medium": {"alpha": 0.1, "beta": 0.1},
         "wave": {"family": "kdv_soliton", "A": 1.0}},
        {"label": "huge", "equation": "kdv", "wave": HUGE_SOLITON}]})
    code, out, err = _run(capsys, ["verify", "--config", cfg])
    assert code == 3
    assert [r["label"] for r in _records(out)] == ["tame"]
    assert err.startswith("verify: numerical abort in case 'huge': overflow encountered in ")


def test_evolve_abort_names_a_drift_that_overflows(capsys):
    # dx sum(u^2) of the initial soliton is inf: its drift is no number
    code, out, err = _run(capsys, ["evolve", "--config",
                                   str(CONFIGS / "checks" / "evolve_huge_soliton.yaml")])
    assert code == 3
    (rec,) = _strict(out)
    assert rec["momentum_drift"] is None and rec["non_finite"] == ["momentum_drift"]
    assert rec["mass_drift"] == 0.0 and "aborted" in rec
    assert err.startswith("evolve: numerical abort at t=0: non-finite spectrum at step 1")


@pytest.mark.parametrize("A,non_finite", [(1.0e154, ["momentum_drift"]), (3.0e153, None)])
def test_evolve_at_max_u_near_1e154_prints_finite_speed_and_named_drifts(capsys, tmp_path,
                                                                         A, non_finite):
    doc = {"equation": "kdv", "medium": {"alpha": 1.0e-154, "beta": 0.1},
           "grid": {"x0": -50.0, "length": 100.0, "n": 1024}, "dt": 0.01, "t_end": 0.1,
           "initial": {"family": "kdv_soliton", "A": A}}
    code, out, _ = _run(capsys, ["evolve", "--config", _write(tmp_path, "big.yaml", doc)])
    assert code == 0
    (rec,) = _strict(out)
    assert math.isfinite(rec["estimated_speed"])
    assert rec.get("non_finite") == non_finite
    assert (rec["momentum_drift"] is None) == bool(non_finite)


def test_a_huge_initial_transform_is_an_abort_with_both_drifts_named(capsys, tmp_path):
    # at max|u| = 1e308 the first rfft and the sums of u and u^2 overflow
    doc = {"equation": "kdv", "medium": {"alpha": 1.0e-308, "beta": 0.1},
           "grid": {"x0": -50.0, "length": 100.0, "n": 1024}, "dt": 0.01, "t_end": 0.1,
           "initial": {"family": "kdv_soliton", "A": 1.0e308}}
    code, out, _ = _run(capsys, ["evolve", "--config", _write(tmp_path, "max.yaml", doc)])
    assert code == 3
    (rec,) = _strict(out)
    assert rec["non_finite"] == ["mass_drift", "momentum_drift"]
    assert rec["mass_drift"] is None and rec["momentum_drift"] is None


def test_an_initial_spectrum_that_overflows_is_the_abort_at_step_0(capsys):
    # max|u| = 1e308: the rfft of the initial state is already not finite
    code, out, err = _run(capsys, ["evolve", "--config",
                                   str(CONFIGS / "checks" / "evolve_overflowing_spectrum.yaml")])
    assert code == 3
    (rec,) = _strict(out)
    assert rec["t_final"] == 0.0 and rec["n_snapshots"] == 1
    assert rec["aborted"] == "non-finite spectrum at step 0 (t = 0.0); check the initial state"
    assert err == f"evolve: numerical abort at t=0: {rec['aborted']}\n"


def test_the_inverted_step_0_abort_prints_the_mirrored_record(capsys, tmp_path):
    upright = CONFIGS / "checks" / "evolve_overflowing_spectrum.yaml"
    cfg = _write(tmp_path, "inverted.yaml",
                 {**yaml.safe_load(upright.read_text()), "inverted": True})
    _, up, up_err = _run(capsys, ["evolve", "--config", str(upright)])
    code, dn, dn_err = _run(capsys, ["evolve", "--config", cfg])
    assert code == 3 and dn_err == up_err
    (rec_up,), (rec_dn,) = _strict(up), _strict(dn)
    assert (rec_dn["u_min"], rec_dn["u_max"]) == (-rec_up["u_max"], -rec_up["u_min"])
    assert {k: v for k, v in rec_dn.items() if k not in ("u_min", "u_max")} == \
        {k: v for k, v in rec_up.items() if k not in ("u_min", "u_max")}


def test_evolve_refuses_the_retired_dealias_key(capsys, tmp_path):
    # the 2/3 rule follows the equation's cubic terms; no key sets it
    cfg = _write(tmp_path, "dealias.yaml", {**EVOLVE_DOC, "dealias": True})
    code, out, err = _run(capsys, ["evolve", "--config", cfg])
    assert code == 2
    assert out == ""
    assert "unknown key 'dealias'" in err


@pytest.mark.parametrize("key,value", [("dt", float("nan")), ("dt", float("inf")),
                                       ("t_end", float("nan")), ("t_end", float("inf"))])
def test_evolve_non_finite_time_exits_two_and_names_it(capsys, tmp_path, key, value):
    cfg = _write(tmp_path, "inf.yaml", {**EVOLVE_DOC, key: value})
    code, out, err = _run(capsys, ["evolve", "--config", cfg])
    assert code == 2
    assert out == ""
    assert f"{key} must be finite, got {value!r}" in err


def test_byte_identical_reruns(capsys, tmp_path):
    cfg = _write(tmp_path, "d.yaml", {"n_seeds": 2})
    _, out1, _ = _run(capsys, ["symmetry", "--config", cfg, "--seed", "3"])
    _, out2, _ = _run(capsys, ["symmetry", "--config", cfg, "--seed", "3"])
    assert out1 == out2

    pcfg = _write(tmp_path, "p.yaml", PROFILE_DOC)
    _, pout1, _ = _run(capsys, ["profile", "--config", pcfg])
    _, pout2, _ = _run(capsys, ["profile", "--config", pcfg])
    assert pout1 == pout2


def test_full_precision_round_trip(capsys, tmp_path):
    cfg = _write(tmp_path, "p.yaml", PROFILE_DOC)
    _, out, _ = _run(capsys, ["profile", "--config", cfg])
    from kdvwaves.waves import MediumParams, make_kdv_soliton
    w = make_kdv_soliton(MediumParams(0.1, 0.1), 1.0)
    for line in out.splitlines()[1:5]:
        x, u = map(float, line.split(","))
        assert float(repr(u)) == u            # %.17g parses back exactly
        assert u == w.profile(x)


def test_tolerance_zero_is_not_replaced_by_the_default(capsys, tmp_path):
    # the antisymmetry defects are exactly zero, so a zero tolerance passes
    code, _, err = _run(capsys, ["symmetry", "--seed", "7", "--tolerance", "0"])
    assert code == 0
    assert "(tolerance 0)" in err
    # no residual of a closed form is exactly zero
    cfg = _write(tmp_path, "v0.yaml", {})
    code, _, err = _run(capsys, ["verify", "--config", cfg, "--tolerance", "0"])
    assert code == 1
    assert "(tolerance 0)" in err


def test_symmetry_with_negative_alpha_runs_the_mirror_catalog(capsys, tmp_path):
    rows = {}
    for alpha in (0.1, -0.1):
        cfg = _write(tmp_path, f"s{alpha}.yaml",
                     {"medium": {"alpha": alpha, "beta": 0.1}, "n_seeds": 1})
        code, out, _ = _run(capsys, ["symmetry", "--config", cfg])
        assert code == 0
        rows[alpha] = {r["label"]: r for r in _records(out)}
        assert all(r["algebraic_defect_value"] == 0.0 for r in rows[alpha].values())
    solutions = [label for label, r in rows[0.1].items() if r["kind"] == "solution"]
    assert len(solutions) == 8
    for label in solutions:
        up, dn = rows[0.1][label], rows[-0.1][label]
        assert dn["upright_residual"] == up["mirrored_residual"]
        assert dn["mirrored_residual"] == up["upright_residual"]


@pytest.mark.parametrize("backend", ["spectral", "fd8"])
@pytest.mark.parametrize("alpha", [0.1, -0.1])
def test_verify_and_symmetry_check_the_same_catalog_pairs(capsys, tmp_path, backend, alpha):
    # verify's residual of each catalog case is symmetry's upright residual
    vcfg = _write(tmp_path, "v.yaml", {"inverted": alpha < 0.0})
    _, out, _ = _run(capsys, ["verify", "--config", vcfg, "--backend", backend])
    verified = {r["label"]: r["relative"] for r in _records(out)}
    scfg = _write(tmp_path, "s.yaml", {"medium": {"alpha": alpha, "beta": 0.1},
                                       "n_seeds": 0})
    _, out, _ = _run(capsys, ["symmetry", "--config", scfg, "--backend", backend])
    upright = {r["label"]: r["upright_residual"] for r in _records(out)}
    assert len(verified) == 8
    assert verified == upright


def test_csv_rows_format_like_the_per_value_join(capsys, tmp_path):
    # one '%' per block of rows gives the bytes of "%.17g" value by value,
    # also on a block boundary and on the values with special spellings
    from kdvwaves.cli import _csv_lines, _write_csv

    specials = [-0.0, 0.0, 1e-300, -1e-300, 5e-324, math.inf, -math.inf, math.nan,
                0.1, -2.5, 1.0 / 3.0, 1e300, 7, np.float64(-0.0), np.float64(np.nan)]
    rows = [(specials[i % len(specials)], float(i), specials[(7 * i) % len(specials)])
            for i in range(5000)]
    want = "t,x,u\n" + "".join(",".join("%.17g" % v for v in row) + "\n" for row in rows)
    assert "".join(_csv_lines(["t", "x", "u"], iter(rows))) == want
    _write_csv(tmp_path / "rows.csv", ["t", "x", "u"], rows)
    assert (tmp_path / "rows.csv").read_bytes() == want.encode()
    assert "".join(_csv_lines(["a"], [])) == "a\n"
    # profile's stdout rows take the same formatter
    cfg = _write(tmp_path, "p.yaml", PROFILE_DOC)
    _, out, _ = _run(capsys, ["profile", "--config", cfg, "--out", str(tmp_path / "p")])
    _, stdout, _ = _run(capsys, ["profile", "--config", cfg])
    assert (tmp_path / "p" / "profile.csv").read_text() == stdout


@pytest.mark.parametrize("command,flag", [
    ("evolve", "--backend"), ("evolve", "--seed"), ("evolve", "--tolerance"),
    ("profile", "--backend"), ("profile", "--seed"), ("profile", "--tolerance"),
    ("fit", "--backend"), ("fit", "--seed"), ("verify", "--seed")])
def test_a_flag_the_subcommand_does_not_read_is_rejected(capsys, command, flag):
    value = "fd8" if flag == "--backend" else "3"
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", "unused.yaml", flag, value])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_verify_without_cases_checks_the_catalog_of_its_medium(capsys, tmp_path):
    medium = {"alpha": 0.3, "beta": 0.1}
    vcfg = _write(tmp_path, "v.yaml", {"medium": medium})
    _, out, _ = _run(capsys, ["verify", "--config", vcfg])
    verified = {r["label"]: r["relative"] for r in _records(out)}
    scfg = _write(tmp_path, "s.yaml", {"medium": medium, "n_seeds": 0})
    _, out, _ = _run(capsys, ["symmetry", "--config", scfg])
    upright = {r["label"]: r["upright_residual"] for r in _records(out)}
    assert len(verified) == 8
    assert verified == upright


EVOLVE_DOC = {
    "equation": "kdv",
    "medium": {"alpha": 0.1, "beta": 0.1},
    "grid": {"x0": -30.0, "length": 60.0, "n": 256},
    "bottom": {"knots": [[-10.0, 0.0], [10.0, 0.1]]},
    "dt": 0.05, "t_end": 1.0, "output_stride": 0,
    "initial": {"family": "kdv_soliton", "A": 1.0},
}
FIT_DOC = {
    "equation": "kdv2",
    "medium": {"alpha": 0.1, "beta": 0.1},
    "ansatz": {"shape": "sech2", "free": ["A", "B", "v"], "fixed": {"D": 0.0}},
    "starts": {"amplitudes": {"n": 2, "span": [0.5, 8.0]}},
}
VERIFY_DOC = {
    "medium": {"alpha": 0.1, "beta": 0.1},
    "cases": [{"label": "soliton", "equation": "kdv",
               "grid": {"x0": -50.0, "length": 100.0, "n": 1024},
               "wave": {"family": "kdv_soliton", "A": 1.0}}],
}


def _copy_at(doc: dict, path: tuple) -> tuple[dict, dict]:
    """A deep copy of doc, and its section that holds the last key of path."""
    doc = json.loads(json.dumps(doc))
    section = doc
    for p in path[:-1]:
        section = section[p]
    return doc, section


def _misspell(doc: dict, path: tuple, wrong: str) -> dict:
    """A deep copy of doc with the last key of path renamed to wrong."""
    doc, section = _copy_at(doc, path)
    section[wrong] = section.pop(path[-1])
    return doc


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("command,doc,path,value,where,message", [
    ("verify", VERIFY_DOC, ("cases", 0, "grid", "length"), NAN, "cases[0].grid",
     "Grid.length must be finite, got nan"),
    ("verify", VERIFY_DOC, ("medium", "alpha"), NAN, "medium",
     "MediumParams.alpha must be finite, got nan"),
    ("evolve", EVOLVE_DOC, ("grid", "length"), INF, "grid",
     "Grid.length must be finite, got inf"),
    ("evolve", EVOLVE_DOC, ("grid", "x0"), NAN, "grid", "Grid.x0 must be finite, got nan"),
    ("evolve", EVOLVE_DOC, ("medium", "beta"), INF, "medium",
     "MediumParams.beta must be finite, got inf"),
    ("evolve", EVOLVE_DOC, ("bottom", "knots", 1, 1), NAN, "bottom",
     "BottomProfile.knots must be finite, got (10.0, nan)"),
])
def test_non_finite_medium_grid_or_bottom_exits_two_and_names_it(
        capsys, tmp_path, command, doc, path, value, where, message):
    doc, section = _copy_at(doc, path)
    section[path[-1]] = value
    cfg = _write(tmp_path, "bad.yaml", doc)
    code, out, err = _run(capsys, [command, "--config", cfg])
    assert code == 2
    assert out == ""
    assert f"invalid '{where}': {message}" in err


@pytest.mark.parametrize("command,doc,path,wrong,where", [
    ("profile", PROFILE_DOC, ("medium", "alpha"), "alpah", "medium.alpah"),
    ("profile", PROFILE_DOC, ("grid", "length"), "lenght", "grid.lenght"),
    ("evolve", EVOLVE_DOC, ("bottom", "knots"), "knot", "bottom.knot"),
    ("profile", PROFILE_DOC, ("wave", "A"), "a", "wave.a"),
    ("fit", FIT_DOC, ("ansatz", "fixed"), "fixd", "ansatz.fixd"),
    ("fit", FIT_DOC, ("starts", "amplitudes", "span"), "spam", "starts.amplitudes.spam"),
    ("verify", VERIFY_DOC, ("cases", 0, "grid"), "grdi", "cases[0].grdi"),
    ("profile", PROFILE_DOC, ("wave",), "wav", "wav"),
    ("verify", VERIFY_DOC, ("medium",), "meduim", "meduim"),
    ("symmetry", {"n_seeds": 0}, ("n_seeds",), "n_seed", "n_seed"),
    ("fit", FIT_DOC, ("equation",), "equaton", "equaton"),
    ("evolve", EVOLVE_DOC, ("output_stride",), "output_strid", "output_strid"),
])
def test_a_misspelt_key_names_the_nearest_legal_one(capsys, tmp_path, command, doc,
                                                     path, wrong, where):
    cfg = _write(tmp_path, "typo.yaml", _misspell(doc, path, wrong))
    code, out, err = _run(capsys, [command, "--config", cfg])
    assert code == 2
    assert out == ""
    assert f"unknown key '{where}' (did you mean '{path[-1]}'?)" in err


@pytest.mark.parametrize("command,doc,key,value", [
    ("profile", PROFILE_DOC, "inverted", "false"),
    ("profile", PROFILE_DOC, "grid", {"x0": -20.0, "length": 40.0, "n": 16.7}),
    ("profile", PROFILE_DOC, "times", ["a"]),
    ("fit", FIT_DOC, "starts", [1, 2]),
    ("fit", FIT_DOC, "starts", {"amplitudes": {"span": 3}}),
    ("verify", VERIFY_DOC, "tolerance", "abc"),
])
def test_a_malformed_value_exits_two_and_names_its_key(capsys, tmp_path, command, doc,
                                                       key, value):
    cfg = _write(tmp_path, "bad.yaml", {**doc, key: value})
    code, out, err = _run(capsys, [command, "--config", cfg])
    assert code == 2
    assert out == ""
    assert err.startswith(f"config error: '{key}")


@pytest.mark.parametrize("value", ["-1", "-1e-12", "nan"])
@pytest.mark.parametrize("command,doc,key", [
    ("verify", VERIFY_DOC, "tolerance"), ("fit", FIT_DOC, "rtol"),
    ("symmetry", None, None)])
def test_a_negative_or_nan_tolerance_exits_two_and_names_it(capsys, tmp_path, value,
                                                           command, doc, key):
    # as a flag on each command that takes one, and as a config key
    argv = [command] if doc is None else [command, "--config", _write(tmp_path, "c.yaml", doc)]
    # the = form, since argparse reads a bare -1e-12 as an option
    code, out, err = _run(capsys, argv + [f"--tolerance={value}"])
    assert (code, out) == (2, "")
    assert err.startswith("config error: '--tolerance' must be a finite real number >= 0")
    if key is not None:
        path = tmp_path / "k.yaml"
        path.write_text(yaml.safe_dump(doc) + f"{key}: {'.nan' if value == 'nan' else value}\n")
        code, out, err = _run(capsys, [command, "--config", str(path)])
        assert (code, out) == (2, "")
        assert err.startswith(f"config error: '{key}' must be a finite real number >= 0")


def test_a_negative_seed_exits_two_and_names_it(capsys):
    code, out, err = _run(capsys, ["symmetry", "--seed", "-1"])
    assert (code, out) == (2, "")
    assert err.startswith("config error: '--seed' must be an integer >= 0, got -1")


def test_a_tolerance_without_a_dot_is_read_as_a_real(capsys, tmp_path):
    # PyYAML reads 1e-8 (no dot, unlike 1.0e-8) as the string '1e-8'
    path = tmp_path / "v.yaml"
    path.write_text("tolerance: 1e-8\n")
    assert yaml.safe_load(path.read_text()) == {"tolerance": "1e-8"}
    code, out, err = _run(capsys, ["verify", "--config", str(path)])
    assert code == 0
    assert {r["tolerance"] for r in _records(out)} == {1e-8}
    assert "(tolerance 1e-08)" in err


def test_the_cli_reads_configs_with_libyaml_when_pyyaml_has_it():
    assert cli._LOADER is (yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader)


@pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=lambda p: p.name)
def test_shipped_configs_load_alike_under_both_loaders(path):
    first, second = _load_both(path)
    assert isinstance(first, dict)
    assert first == second


def test_malformed_yaml_exits_two(capsys, tmp_path):
    path = tmp_path / "broken.yaml"
    path.write_text("medium: {alpha: 0.1\ngrid: [1, 2\n")
    assert _load_both(path) == [yaml.YAMLError, yaml.YAMLError]
    code, out, err = _run(capsys, ["verify", "--config", str(path)])
    assert code == 2
    assert out == ""
    assert err.startswith("config error: config is not valid YAML")


def test_repeated_main_calls_match_fresh_processes(capsys):
    # main builds its parser once per process: no call may leave state
    # that a later call reads
    sequence = [["verify", "--config", os.devnull, "--backend", "fd8"],
                ["verify", "--config", os.devnull],
                ["symmetry", "--seed", "7"]]
    env = {**os.environ, "PYTHONPATH": str(Path(kdvwaves.__file__).parents[1])}
    for argv in sequence:
        code, out, _ = _run(capsys, argv)
        fresh = subprocess.run([sys.executable, "-W", "error", "-m", "kdvwaves", *argv],
                               capture_output=True, env=env, timeout=120)
        assert code == fresh.returncode
        assert out.encode() == fresh.stdout


@pytest.mark.parametrize("key,value,where,reason", [
    ("start", {"A": 1.0, "B": 0.0, "v": 1.0}, "start",
     "B must be nonzero to set the collocation window"),
    ("starts", [{"A": 1.0, "B": 0.0, "v": 1.0}], "starts[0]",
     "B must be nonzero to set the collocation window"),
    ("starts", [{"A": 1.0, "B": 1.2, "v": 1.1}, {"A": 1.0, "v": 1.1}], "starts[1]",
     "start is missing free parameters ['B']"),
    # a fixed or unknown parameter in a start is refused, not dropped
    ("start", {"A": 1.0, "B": 0.61, "v": 1.05, "D": 0.5, "Bogus": 3.0}, "start",
     "start names parameters that are not free: ['Bogus', 'D']"),
    ("starts", [{"A": 1.0, "B": 1.2, "v": 1.1}, {"A": 1.0, "B": 1.2, "v": 1.1, "m": 0.5}],
     "starts[1]", "start names parameters that are not free: ['m']"),
])
def test_a_start_that_cannot_be_laid_out_exits_two_and_names_it(capsys, tmp_path, key,
                                                                value, where, reason):
    doc = {k: v for k, v in FIT_DOC.items() if k != "starts"}
    cfg = _write(tmp_path, "fit.yaml", {**doc, key: value})
    code, out, err = _run(capsys, ["fit", "--config", cfg])
    assert code == 2
    assert out == ""
    assert err == f"config error: invalid '{where}': {reason}\n"


def _case(wave: dict, **keys) -> dict:
    """VERIFY_DOC with its one case's wave, and any other case keys, replaced."""
    return {**VERIFY_DOC, "cases": [{**VERIFY_DOC["cases"][0], "wave": wave, **keys}]}


@pytest.mark.parametrize("command,doc,where,shown", [
    ("verify", _case({"family": "kdv_soliton", "A": INF}), "cases[0].wave.A", "inf"),
    ("verify", _case({"family": "kdv_cnoidal", "A": 1.0, "m": NAN}), "cases[0].wave.m", "nan"),
    ("verify", _case({"family": "gardner_soliton", "Delta": NAN}), "cases[0].wave.Delta",
     "nan"),
    ("verify", _case({"family": "kdv_superposition_plus", "A": 1.0, "m": 0.5, "B": NAN}),
     "cases[0].wave.B", "nan"),
    ("verify", _case({"family": "two_soliton", "amplitudes": [1.0, INF]}),
     "cases[0].wave.amplitudes[1]", "inf"),
    # sampled at t = inf, a soliton is u = 0, which passes with residual 0
    ("verify", _case({"family": "kdv_soliton", "A": 1.0}, t=INF), "cases[0].t", "inf"),
    ("verify", {**VERIFY_DOC, "t": NAN}, "t", "nan"),
    ("profile", {**PROFILE_DOC, "times": [0.0, NAN]}, "times[1]", "nan"),
    ("evolve", {**EVOLVE_DOC, "initial": {"family": "kdv_soliton", "A": -INF}}, "initial.A",
     "-inf"),
])
def test_a_non_finite_wave_parameter_or_time_exits_two_and_names_it(capsys, tmp_path, command,
                                                                     doc, where, shown):
    cfg = _write(tmp_path, "bad.yaml", doc)
    code, out, err = _run(capsys, [command, "--config", cfg])
    assert (code, out) == (2, "")
    assert err == f"config error: '{where}' must be a finite real number, got {shown}\n"


CONFIGS = Path(__file__).resolve().parents[1] / "scripts" / "configs"


def _csv(path: Path) -> tuple[list[str], list[list[float]]]:
    header, *rows = path.read_text().splitlines()
    return header.split(","), [[float(v) for v in row.split(",")] for row in rows]


def test_multi_start_fit_records_and_basins_csv(capsys, tmp_path):
    code, out, err = _run(capsys, ["fit", "--config", str(CONFIGS / "fit_kdv2_multistart.yaml"),
                                   "--out", str(tmp_path)])
    assert code == 0
    *basins, summary = _records(out)
    assert summary == {"n_starts": 8, "n_converged": 4, "n_basins": len(basins)}
    assert [b["basin"] for b in basins] == list(range(len(basins)))
    assert basins[0]["count"] == 4
    header, rows = _csv(tmp_path / "basins.csv")
    names = sorted(basins[0]["values"])
    assert header == names + ["residual", "count"]
    assert rows == [[b["values"][k] for k in names] + [b["residual"], b["count"]]
                    for b in basins]
    assert err == f"fit: {len(basins)} basin(s) from 8 starts (4 converged)\n"


def test_count_constraints_record_precedes_the_fit(capsys, tmp_path):
    code, out, err = _run(capsys, ["fit", "--config", str(CONFIGS / "fit_gardner.yaml"),
                                   "--out", str(tmp_path)])
    assert code == 0
    count, fit = _records(out)
    assert count == {"constraint_count": 3, "free_parameters": ["A", "B", "v"]}
    assert fit["status"] == "converged"
    assert err.startswith("fit: 3 independent constraints on 3 free parameters\n")
    header, rows = _csv(tmp_path / "fit.csv")
    assert header == sorted(fit["values"]) == ["A", "B", "Delta", "v"]
    assert rows == [[fit["values"][k] for k in header]]


def test_verify_out_writes_each_report_to_residuals_csv(capsys, tmp_path):
    code, out, _ = _run(capsys, ["verify", "--config", str(CONFIGS / "verify_catalog.yaml"),
                                 "--out", str(tmp_path)])
    assert code == 0
    header, rows = _csv(tmp_path / "residuals.csv")
    assert header == ["norm_inf", "norm_2", "scale", "relative", "tolerance"]
    assert rows == [[r[k] for k in header] for r in _records(out)]
    assert len(rows) == 5


def test_a_second_verify_of_equal_grids_builds_no_new_row(capsys):
    # (ik)^o rows are cached by (n, dx, order): a rerun in one process finds them all
    from kdvwaves.equations import _multiplier

    argv = ["verify", "--config", str(CONFIGS / "checks" / "verify_n8192.yaml")]
    first = _run(capsys, argv)
    misses = _multiplier.cache_info().misses
    assert _run(capsys, argv) == first
    assert _multiplier.cache_info().misses == misses


def test_symmetry_out_writes_each_row_to_symmetry_csv(capsys, tmp_path):
    code, out, _ = _run(capsys, ["symmetry", "--seed", "7", "--out", str(tmp_path)])
    assert code == 0
    header, rows = _csv(tmp_path / "symmetry.csv")
    assert header == ["algebraic_defect", "pass"]
    assert rows == [[r["algebraic_defect_value"], float(r["pass"])] for r in _records(out)]
    assert len(rows) == 48


@pytest.mark.parametrize("command,doc,message", [
    ("fit", {k: v for k, v in FIT_DOC.items() if k != "equation"},
     "missing required key 'equation'"),
    ("profile", {**PROFILE_DOC, "medium": {"alpha": 0.1}}, "missing required key 'medium.beta'"),
    ("profile", {**PROFILE_DOC, "times": []}, "'times' must be a non-empty list of reals"),
    ("verify", {"equation": "kdv"}, "'equation' is read only by a case, and there are no 'cases'"),
    ("verify", {"grid": VERIFY_DOC["cases"][0]["grid"]},
     "'grid' is read only by a case, and there are no 'cases'"),
    ("verify", {"wave": {"family": "kdv_soliton", "A": 1.0}},
     "'wave' is read only by a case, and there are no 'cases'"),
    ("verify", {**VERIFY_DOC, "cases": [{"equation": "kdv",
                                         "wave": {"family": "kdv_soliton", "A": 1.0}}]},
     "missing required key 'cases[0].grid'"),
    ("symmetry", {"select": "soliton/airy", "n_seeds": 0},
     "'select' matches no case label: 'soliton/airy'"),
    ("verify", _case({"family": "kdv_superposition_plus", "A": -1.0, "m": 0.5}),
     "invalid 'cases[0].wave': superposition default width requires alpha*A > 0, "
     "got alpha=0.1, A=-1.0"),
])
def test_a_config_the_command_cannot_run_exits_two_and_says_why(capsys, tmp_path, command, doc,
                                                               message):
    cfg = _write(tmp_path, "bad.yaml", doc)
    code, out, err = _run(capsys, [command, "--config", cfg])
    assert (code, out) == (2, "")
    assert err == f"config error: {message}\n"


def test_a_config_root_that_is_not_a_mapping_exits_two(capsys, tmp_path):
    path = tmp_path / "list.yaml"
    path.write_text("- verify\n- fit\n")
    code, out, err = _run(capsys, ["verify", "--config", str(path)])
    assert (code, out) == (2, "")
    assert err == "config error: config root must be a mapping, got list\n"


INVERTED_MEDIUM = {"alpha": -0.1, "beta": 0.1}
UPRIGHT_LADDER = {"family": "two_soliton", "amplitudes": [1.0, 2.0]}
LADDER_REFUSED = "soliton requires alpha*A > 0, got alpha=-0.1, A=1.0"
COUNTED_FIT = {**{k: v for k, v in FIT_DOC.items() if k != "starts"},
               "count_constraints": True}


@pytest.mark.parametrize("command,doc,message", [
    # an upright ladder in an inverted medium, as each command reads it
    ("verify", {**_case(UPRIGHT_LADDER), "medium": INVERTED_MEDIUM},
     f"invalid 'cases[0].wave': {LADDER_REFUSED}"),
    ("profile", {**PROFILE_DOC, "medium": INVERTED_MEDIUM, "wave": UPRIGHT_LADDER},
     f"invalid 'wave': {LADDER_REFUSED}"),
    ("evolve", {**EVOLVE_DOC, "medium": INVERTED_MEDIUM, "bottom": None,
                "initial": {"family": "three_soliton", "amplitudes": [1.0, 2.0, 3.0]}},
     f"invalid 'initial': {LADDER_REFUSED}"),
    # constraint counts with no catalog point to count at
    ("fit", {**COUNTED_FIT, "ansatz": {"shape": "cn2", "free": ["A", "B", "v", "D"],
                                       "fixed": {"m": 0.9}},
             "start": {"A": 1.0, "B": 0.9, "v": 1.0, "D": -0.4}},
     "invalid 'count_constraints': no catalog solution for (kdv2, cn2)"),
    ("fit", {**COUNTED_FIT, "equation": "fifth_order",
             "ansatz": {"shape": "sech4", "free": ["A", "B", "v"], "fixed": {"D": 0.0}},
             "start": {"A": 1.0, "B": 0.5, "v": 1.0}},
     "invalid 'count_constraints': no real sech^4 width: need opposite-sign dispersion "
     "coefficients, got b3=0.016666666666666666, b5=0.0005277777777777778 (tau=0.0)"),
    ("fit", {**COUNTED_FIT, "equation": "gardner", "medium": {"alpha": 0.1, "beta": 0.3},
             "ansatz": {"shape": "gardner", "free": ["A", "B", "v"], "fixed": {"Delta": 0.1}},
             "start": {"A": 1.0, "B": 0.5, "v": 1.0}},
     "invalid 'count_constraints': Gardner soliton needs beta'/Delta^2 <= 1, "
     "got 4.999999999999998"),
    # a bottom whose knots span the grid's period
    ("evolve", {**EVOLVE_DOC, "medium": {"alpha": 0.1, "beta": 0.1, "delta": 0.1},
                "grid": {"x0": -50.0, "length": 100.0, "n": 256},
                "bottom": {"knots": [[10.1, 0.0], [150.1, 0.25]]}},
     "invalid 'evolve': BottomProfile knots must span less than one period"),
])
def test_a_config_the_command_cannot_solve_exits_two_and_names_its_key(capsys, tmp_path,
                                                                       command, doc, message):
    cfg = _write(tmp_path, "bad.yaml", doc)
    code, out, err = _run(capsys, [command, "--config", cfg])
    assert (code, out) == (2, "")
    assert err == f"config error: {message}\n"
