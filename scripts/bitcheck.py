#!/usr/bin/env python3
"""Byte identity: `PYTHONPATH=src python scripts/bitcheck.py [TREE]`.

Runs each table entry in a fresh `python -W error` process on this tree's src/ and on
TREE/src (default: this tree, a rerun); both read this tree's configs and write one --out.
Exit code, stdout, stderr and listed CSVs must match byte for byte, and each run must meet
its entry (exit code; no stdout on exit 2; `holds`; `row_of`) and print every stdout line
that starts with `{` as strict JSON, without NaN or Infinity, or the script exits 1.
Compare two trees on one machine, never against recorded bytes: numpy's AVX-512 loops
round differently on other CPUs.
"""
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
import workloads  # noqa: E402

SCRIPTS = ROOT / "scripts"


class Entry(NamedTuple):
    argv: list[str]                  # after `python -W error`
    exit: int = 0
    csvs: tuple[str, ...] = ()       # written under the argv's --out directory
    holds: str | None = None         # text that stdout contains
    row_of: tuple[list[str], str] | None = None   # (sweep argv, label): stdout is its row


def table(tmp: Path) -> list[Entry]:
    """The commands in run order; their --out and benchmark configs lie under `tmp`."""
    def kdv(*args, csvs=(), **expect) -> Entry:
        out = ["--out", str(tmp / "out")] if csvs else []
        return Entry(["-m", "kdvwaves", *map(str, args), *out], csvs=csvs, **expect)

    def cfg(name):
        return "--config", SCRIPTS / "configs" / f"{name}.yaml"

    seven, traj = ("symmetry", "--seed", 7), ("trajectory.csv", "monitors.csv")
    fd8 = ("--backend", "fd8", "--tolerance", "1e-5")
    entries = [
        kdv("fit", *cfg("fit_gardner")),
        kdv("fit", *cfg("fit_kdv2_multistart")),
        # the multi-start's starts advance in lockstep: its basins too
        kdv("fit", *cfg("fit_kdv2_multistart"), csvs=("basins.csv",)),
        # the benchmark's cn2 zero-mean fit, started near the wave of A = 1, m = 0.9
        kdv("fit", *cfg("checks/fit_cn2")),
        kdv("fit", *cfg("checks/fit_cn2"), csvs=("fit.csv",)),
        # the flat Gardner wave at B = 0 exactly: its d/dB column is finite and warning-free,
        # the count reads 0 and the fit is trivial at its start
        kdv("fit", *cfg("checks/count_gardner_flat"), exit=1),
        kdv("verify", *cfg("verify_catalog")),
        kdv("verify", *cfg("verify_catalog"), csvs=("residuals.csv",)),
        kdv("verify", *cfg("verify_catalog"), *fd8),
        kdv("evolve", *cfg("evolve_shoaling"), csvs=traj),
        # the stepper's workspace: a dealiased kdv2 run fills the (ik)^o v rows
        # past order 0; a gardner run's stack is the copy of v alone
        kdv("evolve", *cfg("checks/evolve_kdv2_dealiased"), csvs=traj),
        kdv("evolve", *cfg("checks/evolve_gardner"), csvs=traj),
        # an inverted ladder at two times: signed tau-functions in the mirror medium
        kdv("profile", *cfg("checks/profile_inverted_ladder")),
        kdv("profile", *cfg("checks/profile_inverted_ladder"), csvs=("profile.csv",)),
        kdv(*seven),
        kdv(*seven, csvs=("symmetry.csv",)),
        # a user-set tolerance is the one every row reports and judges by
        kdv(*seven, "--tolerance", "1e-10"),
        # one case selected is a one-row stack: it prints its row of the full sweep
        *(kdv(*seven, *cfg(f"checks/select_{name}"), row_of=(kdv(*seven).argv, label))
          for name, label in (("kdv_ramp", "random/kdv/ramp/seed7"),
                              ("fifth_order_flat", "random/fifth_order/flat/seed9"),
                              ("soliton_kdv2", "soliton/kdv2"))),
        kdv("verify", "--config", os.devnull),
        kdv("verify", "--config", os.devnull, *fd8),
        # the mirror catalog: each family row, amplitude negated, in the flipped medium
        kdv("verify", *cfg("checks/verify_inverted")),
        # n = 8192: a wave's u_t and residual derivatives from one rfft; ladders' exact u_t
        kdv("verify", *cfg("checks/verify_n8192")),
        # the moving frame drops the largest term: cnoidal/kdv fails on u_xxx's roundoff
        kdv("verify", *cfg("checks/verify_moving"), exit=1),
        # fd8's truncation leaves some solutions above the sweep's fixed 1e-8
        kdv(*seven, "--backend", "fd8", exit=1),
        # a soliton long gone from its grid at t = 1e6: u underflows to 0
        kdv("verify", *cfg("checks/verify_zero_field"), exit=1, holds='"flags": ["zero_field"]'),
        # exact fd8 weights rounded once hold the kdv2 soliton under 3e-9 at n = 4096
        kdv("verify", *cfg("checks/verify_fd8_kdv2"), "--backend", "fd8", "--tolerance", "3e-9"),
        # residuals past 1e154 whose squares overflow: each norm_2 is still a finite number
        kdv("verify", *cfg("checks/verify_tiny_alpha"), exit=1),
        # max|u| = 1e306: the samples print, while their derivatives overflow and the
        # check of the wave is a numerical abort
        kdv("profile", *cfg("checks/profile_huge_soliton")),
        # the flat Gardner wave at B = 0 prints u = A on every row, past cosh's overflow too
        kdv("profile", *cfg("checks/profile_flat_gardner"), holds="-800,40\n"),
        kdv("verify", *cfg("checks/verify_huge_soliton"), exit=3),
        # evolve of that soliton aborts at step 1 with a momentum dx sum(u^2) of inf; at
        # max|u| = 1e154 the run completes.  Each drift that overflows prints as null
        kdv("evolve", *cfg("checks/evolve_huge_soliton"), exit=3,
            holds='"non_finite": ["momentum_drift"]'),
        kdv("evolve", *cfg("checks/evolve_overflowing_momentum"),
            holds='"non_finite": ["momentum_drift"]'),
        # at max|u| = 1e308 the initial state's own spectrum is not finite: the abort names step 0
        kdv("evolve", *cfg("checks/evolve_overflowing_spectrum"), exit=3,
            holds="non-finite spectrum at step 0 (t = 0.0)"),
        # refused: no free parameter, a fixed A of the wrong sign for alpha, a Gardner
        # width whose arithmetic fails, beta5 overflowing (beta**2, tau**2), B = inf,
        # a multi-start with no starts, a start that names a fixed or unknown parameter
        *(kdv(command, *cfg(f"checks/refuse_{name}"), exit=2) for command, name in (
            ("fit", "no_free"), ("fit", "fixed_A"), ("verify", "narrow_gardner"),
            ("verify", "huge_beta"), ("symmetry", "huge_beta"), ("evolve", "huge_tau"),
            ("profile", "tiny_beta"), ("fit", "no_starts"), ("fit", "extra_start_key"))),
        *(Entry([str(SCRIPTS / name)]) for name in (
            "collision_phase_shift.py", "degeneration_scan.py", "mirror_symmetry_report.py")),
    ]
    # the benchmark's commands at constant seeds, each run once: a command that reads a
    # shipped config as shipped is the same at every seed, and may be in the table already
    for seed in (1, 2, 3):
        for name in workloads.WORKLOADS:
            for c in workloads.build(name, seed, ROOT, tmp / f"{name}{seed}").commands:
                entry = Entry(["-m", "kdvwaves", *c.argv], csvs=tuple(p.name for p in c.outputs))
                if entry not in entries:
                    entries.append(entry)
    return entries


def run(entry: Entry, src: Path, cwd: str) -> dict:
    """Exit code, stdout, stderr and each listed CSV (None if missing) of one run."""
    proc = subprocess.run([sys.executable, "-W", "error", *entry.argv], capture_output=True,
                          cwd=cwd, env={**os.environ, "PYTHONPATH": str(src)})
    got = {"exit code": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr}
    if "--out" in entry.argv:      # read before the next run writes the same directory
        out = Path(entry.argv[entry.argv.index("--out") + 1])
        got |= {n: (out / n).read_bytes() if (out / n).is_file() else None for n in entry.csvs}
        shutil.rmtree(out, ignore_errors=True)
    return got


def _not_json(constant: str):
    raise ValueError(f"{constant} is not a JSON number")


def problems(entry: Entry, got: dict, stdouts: dict) -> list[str]:
    """Where one run misses its entry's expectations."""
    bad = [f"{name} missing" for name in entry.csvs if got[name] is None]
    if got["exit code"] != entry.exit:
        bad.append(f"exit code {got['exit code']}, expected {entry.exit}")
    if entry.exit == 2 and got["stdout"]:
        bad.append("stdout on a refusal")
    if entry.holds is not None and entry.holds.encode() not in got["stdout"]:
        bad.append(f"stdout lacks {entry.holds}")
    for line in got["stdout"].splitlines():
        if line.startswith(b"{"):
            try:
                json.loads(line, parse_constant=_not_json)
            except ValueError as exc:
                bad.append(f"stdout record is not strict JSON: {exc}")
                break
    if entry.row_of is not None:
        sweep, label = entry.row_of
        row = [line for line in stdouts[tuple(sweep)].splitlines(keepends=True)
               if f'"label": "{label}",'.encode() in line]
        if got["stdout"] != b"".join(row):
            bad.append(f"stdout is not the row of {label} in the sweep")
    return bad


def main(args: list[str]) -> int:
    tree = Path(args[0] if args else ROOT).resolve()
    if len(args) > 1 or not (tree / "src" / "kdvwaves").is_dir():
        sys.exit("usage: bitcheck.py [TREE], where TREE holds src/kdvwaves")
    with tempfile.TemporaryDirectory() as tmp:
        entries, stdouts, failed = table(Path(tmp)), {}, 0
        for entry in entries:
            here, there = (run(entry, side / "src", tmp) for side in (ROOT, tree))
            bad = [f"{key} differs" for key in here if here[key] != there[key]]
            for got in (here, there):
                bad += [p for p in problems(entry, got, stdouts) if p not in bad]
            stdouts[tuple(entry.argv)] = here["stdout"]
            failed += bool(bad)
            shown = " ".join(entry.argv).replace(f"{tmp}/", "").replace(f"{ROOT}/", "")
            print("DIFF" if bad else "same", shown + "".join(f"\n  {b}" for b in bad), flush=True)
    print(f"bitcheck: {len(entries) - failed}/{len(entries)} commands identical and as expected")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
