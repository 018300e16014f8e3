"""Command-line surface: exit codes, output formats, determinism."""

import json
import math

import numpy as np
import pytest
import yaml

from kdvwaves.cli import main


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
