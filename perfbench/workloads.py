"""The three workloads: CLI commands, the configs they read, their checks.

Each workload is a fixed list of ``kdvwaves`` commands.  The seed jitters
start points and amplitudes within the ranges the checks allow; it never
changes a grid size or a step count, so the work per pass is the same
for every seed.  Shipped configs are used as shipped.

Every command carries a check that turns (exit code, stdout) into a list
of problems; an empty list means the output is right.  Checks of one
pass may read the records of earlier commands of the same pass through
``seen`` (the inverted kdv2 run is compared with the upright one).
"""
from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import yaml

from kdvwaves import (MediumParams, make_gardner_soliton, make_kdv2_soliton,
                      make_kdv_cnoidal, make_kdv_superposition)

SPECTRAL_TOL = 1e-8
# fd8 uses centred stencils of at least eighth order, so on a grid of
# spacing h its error for a profile of inverse width kappa scales like
# (kappa h)^8.  The default catalog's steepest profile on its coarsest
# grid is the kdv2 soliton (kappa h = 1.2047 * 80/1024 = 0.094), which
# puts the worst report near 1e-6.  1e-5 leaves a decade above that,
# while a stencil that slipped to sixth order ((kappa h)^6, 150x larger)
# would exceed it.
FD8_TOL = 1e-5

WORKLOADS = ("evolve", "fit", "verify")


@dataclass
class Command:
    name: str
    argv: list[str]
    check: Callable[[int, str, dict], list[str]]
    outputs: tuple[Path, ...] = ()   # files written, compared across passes


@dataclass
class Workload:
    name: str
    commands: list[Command]
    configs: list[Path] = field(default_factory=list)   # read at cold start


def _records(out: str) -> list[dict]:
    return [json.loads(line) for line in out.splitlines() if line.strip()]


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def _write(path: Path, doc: dict) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(yaml.safe_dump(doc, sort_keys=False))
    return path


def _expect_exit(rc: int, want: int = 0) -> list[str]:
    return [] if rc == want else [f"exit code {rc}, expected {want}"]


def build(name: str, seed: int, root: Path, workdir: Path) -> Workload:
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    rng = random.Random(f"{name}:{seed}")
    return {"evolve": _evolve, "fit": _fit, "verify": _verify}[name](
        seed, rng, root / "scripts" / "configs", workdir)


# --- evolve ---------------------------------------------------------------------

def _evolve(seed, rng, shipped: Path, work: Path) -> Workload:
    shoal_out = work / "shoal"
    shoaling = shipped / "evolve_shoaling.yaml"

    def check_shoaling(rc, out, seen):
        recs = _records(out)
        bad = _expect_exit(rc)
        if len(recs) != 1:
            return bad + [f"expected one record, got {len(recs)}"]
        r = recs[0]
        if r.get("t_final") != 30.0 or r.get("n_snapshots") != 7:
            bad.append(f"run ended at t={r.get('t_final')} with "
                       f"{r.get('n_snapshots')} snapshots, expected t=30, 7")
        if "aborted" in r or "estimated_speed" not in r:
            bad.append("run aborted or has no speed estimate")
        elif not (0.9 < r["u_max"] < 1.1 and abs(r["estimated_speed"] - 1.05) < 0.05
                  and r["mass_drift"] < 0.05):
            bad.append(f"shoaling record out of its physical range: {r}")
        lines = [(shoal_out / f).read_bytes().count(b"\n")
                 if (shoal_out / f).exists() else -1
                 for f in ("trajectory.csv", "monitors.csv")]
        if lines != [1 + 7 * 1024, 1 + 7]:
            bad.append(f"CSV line counts {lines}, expected [7169, 8]")
        return bad

    p = MediumParams(alpha=0.1, beta=0.1)
    k2 = make_kdv2_soliton(p)
    kdv2_doc = {
        "equation": "kdv2",
        "medium": {"alpha": 0.1, "beta": 0.1},
        "grid": {"x0": -20.0 + rng.uniform(-2.0, 2.0), "length": 80.0, "n": 4096},
        "initial": {"family": "kdv2_soliton"},
        "dt": 0.005, "t_end": 1.0, "output_stride": 0,
    }
    kdv2_up = _write(work / "evolve_kdv2.yaml", kdv2_doc)
    kdv2_inv = _write(work / "evolve_kdv2_inverted.yaml", {**kdv2_doc, "inverted": True})

    def check_travelling(key, speed, peak, speed_tol):
        def check(rc, out, seen):
            recs = _records(out)
            bad = _expect_exit(rc)
            if len(recs) != 1 or "estimated_speed" not in recs[0]:
                return bad + [f"expected one record with a speed, got {recs}"]
            r = recs[0]
            seen[key] = r
            if _rel(r["estimated_speed"], speed) > speed_tol:
                bad.append(f"speed {r['estimated_speed']!r} vs closed form {speed!r}")
            # the sampled peak sits at most half a grid step off the crest
            if not peak * (1 - 2e-2) < r["u_max"] < peak * (1 + 1e-4):
                bad.append(f"peak {r['u_max']!r} vs closed form {peak!r}")
            if r["mass_drift"] > 1e-9:
                bad.append(f"mass drift {r['mass_drift']!r} on a flat bottom")
            return bad
        return check

    def check_mirror(rc, out, seen):
        recs = _records(out)
        bad = _expect_exit(rc)
        up = seen.get("kdv2")
        if len(recs) != 1 or up is None:
            return bad + ["no inverted record, or no upright record to mirror"]
        r = recs[0]
        pairs = [("u_min", -up["u_max"]), ("u_max", -up["u_min"]),
                 ("mass_drift", up["mass_drift"]),
                 ("momentum_drift", up["momentum_drift"]),
                 ("estimated_speed", up.get("estimated_speed")),
                 ("t_final", up["t_final"]), ("n_snapshots", up["n_snapshots"])]
        for key, want in pairs:
            if r.get(key) != want:      # bitwise: the mirror map is exact
                bad.append(f"inverted {key} = {r.get(key)!r}, mirror expects {want!r}")
        return bad

    pg = MediumParams(alpha=0.1, beta=0.3, tau=0.0)
    delta = rng.uniform(0.9, 1.1)
    gw = make_gardner_soliton(pg, Delta=delta)
    gardner = _write(work / "evolve_gardner.yaml", {
        "equation": "gardner",
        "medium": {"alpha": 0.1, "beta": 0.3, "tau": 0.0},
        "grid": {"x0": -40.0 + rng.uniform(-2.0, 2.0), "length": 80.0, "n": 256},
        "initial": {"family": "gardner_soliton", "Delta": delta},
        "dt": 0.02, "t_end": 30.0, "output_stride": 0,
    })

    commands = [
        Command("evolve_shoaling",
                ["evolve", "--config", str(shoaling), "--out", str(shoal_out)],
                check_shoaling,
                outputs=(shoal_out / "trajectory.csv", shoal_out / "monitors.csv")),
        Command("evolve_kdv2_n4096", ["evolve", "--config", str(kdv2_up)],
                check_travelling("kdv2", k2.v, k2.A, 1e-5)),
        Command("evolve_kdv2_n4096_inverted", ["evolve", "--config", str(kdv2_inv)],
                check_mirror),
        Command("evolve_gardner_n256", ["evolve", "--config", str(gardner)],
                check_travelling("gardner", gw.v, gw.A / (1.0 + gw.B), 1e-4)),
    ]
    return Workload("evolve", commands, [shoaling, kdv2_up, kdv2_inv, gardner])


# --- fit --------------------------------------------------------------------------

def _values_match(got: dict, want: dict, tol: float) -> list[str]:
    return [f"{k} = {got.get(k)!r}, closed form {v!r}" for k, v in want.items()
            if not isinstance(got.get(k), float) or abs(got[k] - v) > tol * max(1.0, abs(v))]


def _fit(seed, rng, shipped: Path, work: Path) -> Workload:
    p = MediumParams(alpha=0.1, beta=0.1)
    k2 = make_kdv2_soliton(p)
    multistart = shipped / "fit_kdv2_multistart.yaml"

    def check_multistart(rc, out, seen):
        recs = _records(out)
        bad = _expect_exit(rc)
        basins = [r for r in recs if "basin" in r]
        summary = [r for r in recs if "n_starts" in r]
        if len(basins) != 1 or len(summary) != 1:
            return bad + [f"expected one basin and one summary, got {recs}"]
        if summary[0]["n_starts"] != 8 or summary[0]["n_basins"] != 1:
            bad.append(f"summary {summary[0]}")
        return bad + _values_match(basins[0]["values"],
                                   {"A": k2.A, "B": k2.B, "v": k2.v, "D": 0.0}, 1e-6)

    pg = MediumParams(alpha=0.1, beta=0.3, tau=0.0)
    gw = make_gardner_soliton(pg, Delta=1.0)
    gardner = shipped / "fit_gardner.yaml"

    def check_gardner(rc, out, seen):
        recs = _records(out)
        bad = _expect_exit(rc)
        if len(recs) != 2 or recs[0].get("constraint_count") != 3:
            return bad + [f"expected constraint_count 3 and one fit, got {recs}"]
        if recs[1].get("status") != "converged":
            bad.append(f"fit status {recs[1].get('status')!r}")
        return bad + _values_match(recs[1]["values"],
                                   {"A": gw.A, "B": gw.B, "v": gw.v, "Delta": 1.0}, 1e-6)

    cw = make_kdv_cnoidal(p, 1.0, 0.9)
    cn2 = _write(work / "fit_cn2.yaml", {
        "equation": "kdv",
        "medium": {"alpha": 0.1, "beta": 0.1},
        "ansatz": {"shape": "cn2", "free": ["B", "v", "D"],
                   "fixed": {"A": 1.0, "m": 0.9}, "zero_mean": True},
        "start": {"B": cw.B * (1.0 + rng.uniform(-0.05, 0.05)),
                  "v": cw.v * (1.0 + rng.uniform(-0.02, 0.02)),
                  "D": cw.D * (1.0 + rng.uniform(-0.1, 0.1))},
    })

    def check_cn2(rc, out, seen):
        recs = _records(out)
        bad = _expect_exit(rc)
        if len(recs) != 1 or recs[0].get("status") != "converged":
            return bad + [f"expected one converged fit, got {recs}"]
        return bad + _values_match(recs[0]["values"],
                                   {"A": 1.0, "m": 0.9, "B": cw.B, "v": cw.v, "D": cw.D},
                                   1e-8)

    commands = [
        Command("fit_kdv2_multistart", ["fit", "--config", str(multistart)],
                check_multistart),
        Command("fit_gardner", ["fit", "--config", str(gardner)], check_gardner),
        Command("fit_cn2_zero_mean", ["fit", "--config", str(cn2)], check_cn2),
    ]
    return Workload("fit", commands, [multistart, gardner, cn2])


# --- verify -------------------------------------------------------------------------

def _check_reports(n_cases: int | None, tol: float):
    def check(rc, out, seen):
        recs = _records(out)
        bad = _expect_exit(rc)
        if not recs or (n_cases is not None and len(recs) != n_cases):
            return bad + [f"got {len(recs)} reports, expected {n_cases or 'some'}"]
        for r in recs:
            if not (r["relative"] <= tol and r["passed"]):
                bad.append(f"{r['label']}: relative residual {r['relative']!r} > {tol:g}")
        return bad
    return check


def _check_symmetry(rc, out, seen):
    rows = _records(out)
    bad = _expect_exit(rc)
    # 4 equations x {flat, ramp} x 5 seeds of random fields, plus solutions
    if len(rows) < 40:
        return bad + [f"symmetry sweep has {len(rows)} rows, expected >= 40"]
    for r in rows:
        if r["algebraic_defect_value"] != 0.0 or not r["pass"]:
            bad.append(f"{r['label']}: defect {r['algebraic_defect_value']!r}, "
                       f"pass {r['pass']}")
    return bad


def _verify(seed, rng, shipped: Path, work: Path) -> Workload:
    catalog = shipped / "verify_catalog.yaml"
    default = _write(work / "verify_default.yaml", {"tolerance": SPECTRAL_TOL})

    p = MediumParams(alpha=0.1, beta=0.1)
    n = 8192
    a_cn, a_sup = rng.uniform(0.8, 1.2), rng.uniform(0.8, 1.2)
    cn_len = make_kdv_cnoidal(p, a_cn, 0.9).wavelength()
    sup_len = make_kdv_superposition(
        p, a_sup, 0.5, math.sqrt(3.0 * p.alpha * a_sup / (4.0 * p.beta))).wavelength()
    large_cases = [
        {"label": "soliton/kdv", "equation": "kdv",
         "grid": {"x0": -100.0, "length": 200.0, "n": n},
         "wave": {"family": "kdv_soliton", "A": rng.uniform(0.8, 1.2)}},
        {"label": "cnoidal/kdv", "equation": "kdv",
         "grid": {"x0": 0.0, "length": 32.0 * cn_len, "n": n},
         "wave": {"family": "kdv_cnoidal", "A": a_cn, "m": 0.9}},
        {"label": "superposition/kdv", "equation": "kdv",
         "grid": {"x0": 0.0, "length": 16.0 * sup_len, "n": n},
         "wave": {"family": "kdv_superposition_plus", "A": a_sup, "m": 0.5}},
        {"label": "soliton/kdv2", "equation": "kdv2",
         "grid": {"x0": -320.0, "length": 640.0, "n": n},
         "wave": {"family": "kdv2_soliton"}},
        {"label": "two_soliton/kdv", "equation": "kdv",
         "grid": {"x0": -128.0, "length": 256.0, "n": n},
         "wave": {"family": "two_soliton",
                  "amplitudes": [rng.uniform(0.8, 1.2), rng.uniform(1.8, 2.2)]}},
        {"label": "three_soliton/kdv", "equation": "kdv",
         "grid": {"x0": -96.0, "length": 192.0, "n": n},
         "wave": {"family": "three_soliton",
                  "amplitudes": [rng.uniform(0.8, 1.2), rng.uniform(1.8, 2.2),
                                 rng.uniform(2.8, 3.2)]}},
    ]
    large = _write(work / "verify_n8192.yaml", {
        "medium": {"alpha": 0.1, "beta": 0.1}, "tolerance": SPECTRAL_TOL,
        "cases": large_cases})

    commands = [
        Command("symmetry", ["symmetry", "--seed", str(abs(seed))], _check_symmetry),
        Command("verify_catalog", ["verify", "--config", str(catalog)],
                _check_reports(5, SPECTRAL_TOL)),
        Command("verify_default_spectral", ["verify", "--config", str(default)],
                _check_reports(None, SPECTRAL_TOL)),
        Command("verify_default_fd8",
                ["verify", "--config", str(default), "--backend", "fd8",
                 "--tolerance", repr(FD8_TOL)],
                _check_reports(None, FD8_TOL)),
        Command("verify_n8192", ["verify", "--config", str(large)],
                _check_reports(len(large_cases), SPECTRAL_TOL)),
    ]
    return Workload("verify", commands, [catalog, default, large])
