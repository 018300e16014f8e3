"""Command-line driver.

Subcommands
-----------
profile    sample a catalog wave or ladder onto (x, t) points, write a CSV table
verify     residual reports for (wave or ladder, equation) pairs
symmetry   sign-inversion sweep: max|R_a(u, u_t) + R_{-a}(-u, -u_t)|
fit        collocation fit of a travelling ansatz, single- or multi-start
evolve     ETDRK4 time integration with snapshot and monitor export

profile, verify and evolve read (u, u_t) from equations.solution_fields.

Configs are YAML documents (see scripts/ for worked examples).  Reports
go to stdout as one JSON object per line; human-readable summaries go to
stderr; tables are CSV with full-precision (%.17g) floats.  Identical
config and seed give byte-identical output.

Exit codes: 0 success, 1 verification/fit failure, 2 bad configuration,
3 numerical abort.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from itertools import chain, islice
from pathlib import Path

import numpy as np
import yaml

from .equations import (
    BottomProfile,
    EquationId,
    EquationKind,
    Field,
    Grid,
    solution_fields,
    travelling_residual,
)
from .evolve import EvolveConfig, NumericalAbort, estimate_speed, evolve, monitors
from .fitting import (
    AnsatzFamily,
    amplitude_starts,
    count_constraints,
    fit_travelling_wave,
    multi_start_fit,
)
from .inversion import (
    ALGEBRAIC_TOL,
    DEFAULT_MEDIUM,
    catalog,
    default_matrix,
    run_case,
)
from .waves import (
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

__all__ = ["main", "ConfigError"]


class ConfigError(Exception):
    """A config value violates a precondition; message names the parameter."""


# --- config parsing -----------------------------------------------------------

def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            doc = yaml.safe_load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except yaml.YAMLError as exc:
        raise ConfigError(f"config is not valid YAML ({path}): {exc}")
    if doc is None:
        doc = {}
    if not isinstance(doc, dict):
        raise ConfigError(f"config root must be a mapping, got {type(doc).__name__}")
    return doc


def _section(doc: dict, key: str, required: bool = True) -> dict | None:
    val = doc.get(key)
    if val is None:
        if required:
            raise ConfigError(f"config is missing required section '{key}'")
        return None
    if not isinstance(val, dict):
        raise ConfigError(f"config section '{key}' must be a mapping")
    return val


def _take(section: dict, name: str, where: str, default=None, required: bool = False):
    if name not in section:
        if required:
            raise ConfigError(f"'{where}' is missing required key '{name}'")
        return default
    return section[name]


def _build(where: str, ctor, **kwargs):
    # funnel the dataclass validators' ValueErrors into config errors
    try:
        return ctor(**kwargs)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"invalid '{where}': {exc}")


def _medium(doc: dict, required: bool = True) -> MediumParams | None:
    sec = _section(doc, "medium", required)
    if sec is None:
        return None
    return _build("medium", MediumParams,
                  alpha=float(_take(sec, "alpha", "medium", required=True)),
                  beta=float(_take(sec, "beta", "medium", required=True)),
                  tau=float(_take(sec, "tau", "medium", 0.0)),
                  delta=float(_take(sec, "delta", "medium", 0.0)))


def _grid(doc: dict, key: str = "grid", required: bool = True) -> Grid | None:
    sec = _section(doc, key, required)
    if sec is None:
        return None
    return _build(key, Grid,
                  x0=float(_take(sec, "x0", key, required=True)),
                  length=float(_take(sec, "length", key, required=True)),
                  n=int(_take(sec, "n", key, required=True)))


def _frame(doc: dict) -> Frame:
    name = doc.get("frame", "fixed")
    try:
        return Frame(name)
    except ValueError:
        raise ConfigError(f"'frame' must be one of "
                          f"{[f.value for f in Frame]}, got {name!r}")


def _equation_kind(doc: dict, key: str = "equation") -> EquationKind:
    name = _take(doc, key, "config", required=True)
    try:
        return EquationKind(name)
    except ValueError:
        raise ConfigError(f"'{key}' must be one of "
                          f"{[k.value for k in EquationKind]}, got {name!r}")


def _bottom(doc: dict) -> BottomProfile | None:
    sec = _section(doc, "bottom", required=False)
    if sec is None:
        return None
    knots = _take(sec, "knots", "bottom", required=True)
    if not isinstance(knots, list) or not all(
            isinstance(k, list) and len(k) == 2 for k in knots):
        raise ConfigError("'bottom.knots' must be a list of [x, h] pairs")
    return _build("bottom", BottomProfile,
                  knots=tuple((float(x), float(h)) for x, h in knots))


_LADDER_FAMILIES = ("two_soliton", "three_soliton")


def _wave_or_ladder(doc: dict, params: MediumParams, key: str = "wave"):
    """Build (TravellingWave | SolitonLadder, effective params) from a wave spec.

    The 'inverted' flag flips alpha and negates the amplitude(s); for the
    families whose amplitude is derived from the medium, flipping alpha
    alone produces the negated profile.  Callers must use the returned
    params for anything downstream -- the flip is part of the state.
    """
    sec = _section(doc, key, required=True)
    family = _take(sec, "family", key, required=True)
    inverted = bool(doc.get("inverted", False))
    if inverted:
        params = params.flipped()

    def amp(default=None):
        a = float(_take(sec, "A", key, default, required=default is None))
        return -a if inverted else a

    try:
        if family == "kdv_soliton":
            return make_kdv_soliton(params, amp()), params
        if family == "kdv_cnoidal":
            return make_kdv_cnoidal(params, amp(),
                                    float(_take(sec, "m", key, required=True))), params
        if family in ("kdv_superposition_plus", "kdv_superposition_minus"):
            A = amp()
            m = float(_take(sec, "m", key, required=True))
            B = _take(sec, "B", key)
            if B is None:
                B = make_kdv_soliton(params, A).B
            sign = +1 if family.endswith("plus") else -1
            return make_kdv_superposition(params, A, m, float(B), sign=sign), params
        if family == "kdv2_soliton":
            return make_kdv2_soliton(params), params
        if family == "fifth_order_soliton":
            return make_fifth_order_soliton(params), params
        if family == "gardner_soliton":
            return make_gardner_soliton(params,
                                        Delta=float(_take(sec, "Delta", key, required=True)),
                                        sign_B=int(_take(sec, "sign_B", key, 1))), params
        if family in _LADDER_FAMILIES:
            amps = _take(sec, "amplitudes", key, required=True)
            want = 2 if family == "two_soliton" else 3
            if not isinstance(amps, list) or len(amps) != want:
                raise ConfigError(
                    f"'{key}.amplitudes' must list exactly {want} values for {family}")
            amps = [float(a) for a in amps]
            if inverted:
                amps = [-a for a in amps]
            return SolitonLadder(tuple(amps)), params
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"invalid '{key}' ({family}): {exc}")
    raise ConfigError(
        f"'{key}.family' must be a catalog family or ladder, got {family!r}")


# --- output helpers -----------------------------------------------------------

def _emit(record: dict):
    sys.stdout.write(json.dumps(record) + "\n")


def _say(msg: str):
    sys.stderr.write(msg + "\n")


def _csv_lines(header: list[str], rows):
    """The CSV text: the header, then one '%' of %.17g fields per block of rows."""
    yield ",".join(header) + "\n"
    rows = iter(rows)
    while block := list(islice(rows, 4096)):
        line = ",".join(["%.17g"] * len(block[0])) + "\n"
        yield line * len(block) % tuple(chain.from_iterable(block))


def _write_csv(path: Path, header: list[str], rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.writelines(_csv_lines(header, rows))


def _report_record(label: str, report) -> dict:
    rec = {"label": label}
    rec.update(asdict(report))
    rec["flags"] = list(rec["flags"])
    return rec


# --- subcommands --------------------------------------------------------------

def cmd_profile(args) -> int:
    doc = _load_config(args.config)
    params = _medium(doc)
    frame = _frame(doc)
    grid = _grid(doc)
    times = doc.get("times", [0.0])
    if not isinstance(times, list) or not times:
        raise ConfigError("'times' must be a non-empty list of reals")
    times = [float(t) for t in times]

    built, eff = _wave_or_ladder(doc, params)
    x = grid.x
    rows = []
    for t in times:
        u = solution_fields(built, eff, grid, t, frame)[0].values
        if len(times) == 1:
            rows.extend(zip(x, u))
        else:
            rows.extend((t, xi, ui) for xi, ui in zip(x, u))

    header = ["x", "u"] if len(times) == 1 else ["t", "x", "u"]
    if args.out:
        path = Path(args.out) / "profile.csv"
        _write_csv(path, header, rows)
        _say(f"profile: {len(rows)} rows -> {path}")
    else:
        sys.stdout.writelines(_csv_lines(header, rows))
    return 0


def _verify_cases(doc: dict):
    """(label, equation, medium, solution, grid, t) per case, built one at
    a time; without 'cases', the catalog (mirrored by 'inverted')."""
    cases = doc.get("cases")
    if cases is None:
        medium = DEFAULT_MEDIUM.flipped() if doc.get("inverted", False) else DEFAULT_MEDIUM
        frame, t = _frame(doc), float(doc.get("t", 0.0))
        for label, kind, params, solution, grid in catalog(medium):
            yield label, EquationId(kind, frame), params, solution, grid, t
        return
    if not isinstance(cases, list):
        raise ConfigError("'cases' must be a list")
    for i, case in enumerate(cases):
        if not isinstance(case, dict):
            raise ConfigError(f"'cases[{i}]' must be a mapping")
        merged = {**doc, **case}
        params = _medium(merged)
        eq = EquationId(_equation_kind(merged), _frame(merged))
        built, eff = _wave_or_ladder(merged, params)
        wavelength = built.wavelength()
        grid = _grid(merged, required=wavelength is None)
        if grid is None:
            # one full period of the periodic families
            grid = Grid(0.0, wavelength, 1024)
        yield (case.get("label", f"case{i}"), eq, eff, built, grid,
               float(merged.get("t", 0.0)))


def cmd_verify(args) -> int:
    doc = _load_config(args.config)
    tolerance = (float(doc.get("tolerance", 1e-8)) if args.tolerance is None
                 else args.tolerance)

    any_fail = False
    rows = []
    for label, eq, params, solution, grid, t in _verify_cases(doc):
        report, _ = travelling_residual(solution, eq, params, grid, t=t,
                                        tolerance=tolerance, backend=args.backend)
        _emit(_report_record(label, report))
        rows.append((label, report))
        any_fail = any_fail or not report.passed

    if args.out and rows:
        _write_csv(Path(args.out) / "residuals.csv",
                   ["norm_inf", "norm_2", "scale", "relative", "tolerance"],
                   [(r.norm_inf, r.norm_2, r.scale, r.relative, r.tolerance)
                    for _, r in rows])
    n_pass = sum(r.passed for _, r in rows)
    _say(f"verify: {n_pass}/{len(rows)} passed (tolerance {tolerance:g})")
    return 1 if any_fail else 0


def cmd_symmetry(args) -> int:
    doc = _load_config(args.config) if args.config else {}
    params = _medium(doc, required=False)
    n_seeds = int(doc.get("n_seeds", 5))
    if n_seeds < 0:
        raise ConfigError(f"'n_seeds' must be >= 0, got {n_seeds}")
    base = args.seed or 0
    cases = default_matrix(params, seeds=range(base, base + n_seeds))

    select = doc.get("select")
    if select is not None:
        cases = [c for c in cases if c.label == select]
        if not cases:
            raise ConfigError(f"'select' matches no case label: {select!r}")

    rows = [run_case(c, backend=args.backend) for c in cases]
    tolerance = ALGEBRAIC_TOL if args.tolerance is None else args.tolerance
    worst = 0.0
    any_fail = False
    for row in rows:
        row["algebraic_pass"] = row["algebraic_defect_value"] <= tolerance
        row["pass"] = row["algebraic_pass"] and all(
            row[k] for k in row if k.endswith("_pass") and k != "algebraic_pass")
        _emit(row)
        worst = max(worst, row["algebraic_defect_value"])
        any_fail = any_fail or not row["pass"]

    if args.out and rows:
        _write_csv(Path(args.out) / "symmetry.csv",
                   ["algebraic_defect", "pass"],
                   [(r["algebraic_defect_value"], float(r["pass"])) for r in rows])
    _say(f"symmetry: {sum(r['pass'] for r in rows)}/{len(rows)} passed, "
         f"worst antisymmetry defect {worst:.3e} (tolerance {tolerance:g})")
    return 1 if any_fail else 0


def _ansatz(doc: dict) -> AnsatzFamily:
    sec = _section(doc, "ansatz")
    free = _take(sec, "free", "ansatz", required=True)
    if not isinstance(free, list):
        raise ConfigError("'ansatz.free' must be a list of parameter names")
    fixed = _take(sec, "fixed", "ansatz", {})
    if not isinstance(fixed, dict):
        raise ConfigError("'ansatz.fixed' must be a mapping")
    return _build("ansatz", AnsatzFamily,
                  shape=_take(sec, "shape", "ansatz", required=True),
                  free=tuple(free),
                  fixed={k: float(v) for k, v in fixed.items()},
                  sign=int(_take(sec, "sign", "ansatz", 1)),
                  zero_mean=bool(_take(sec, "zero_mean", "ansatz", False)))


def cmd_fit(args) -> int:
    doc = _load_config(args.config)
    params = _medium(doc)
    kind = _equation_kind(doc)
    ansatz = _ansatz(doc)
    fit_kwargs = {}
    if "n_points" in doc:
        fit_kwargs["n_points"] = int(doc["n_points"])
    if args.tolerance is not None:
        fit_kwargs["rtol"] = args.tolerance
    elif "rtol" in doc:
        fit_kwargs["rtol"] = float(doc["rtol"])

    if doc.get("count_constraints", False):
        k = count_constraints(kind, params, ansatz)
        _emit({"constraint_count": k, "free_parameters": list(ansatz.free)})
        _say(f"fit: {k} independent constraints on {len(ansatz.free)} free parameters")

    starts = doc.get("starts")
    start = doc.get("start")
    if (starts is None) == (start is None):
        raise ConfigError("provide exactly one of 'start' (single fit) "
                          "or 'starts' (multi-start)")

    if start is not None:
        if not isinstance(start, dict):
            raise ConfigError("'start' must be a mapping of parameter -> value")
        try:
            result = fit_travelling_wave(
                kind, params, ansatz,
                {k: float(v) for k, v in start.items()}, **fit_kwargs)
        except ValueError as exc:
            raise ConfigError(f"invalid 'start': {exc}")
        _emit({"values": result.values, "residual": result.residual,
               "status": result.status, "n_iterations": result.n_iterations,
               "rank": result.rank})
        if args.out:
            names = sorted(result.values)
            _write_csv(Path(args.out) / "fit.csv", names,
                       [[result.values[k] for k in names]])
        _say(f"fit: {result.status} after {result.n_iterations} iterations, "
             f"relative residual {result.residual:.3e}")
        return 0 if result.converged else 1

    if isinstance(starts, dict) and "amplitudes" in starts:
        spec = starts["amplitudes"]
        start_list = amplitude_starts(
            params, n=int(spec.get("n", 8)),
            span=tuple(float(s) for s in spec.get("span", (0.05, 3.0))))
    elif isinstance(starts, list):
        start_list = [{k: float(v) for k, v in s.items()} for s in starts]
    else:
        raise ConfigError("'starts' must be a list of start points or "
                          "{amplitudes: {n, span}}")
    basins, results = multi_start_fit(kind, params, ansatz, start_list, **fit_kwargs)
    for i, b in enumerate(basins):
        _emit({"basin": i, "values": b.values, "residual": b.residual,
               "count": b.count})
    n_conv = sum(r.converged for r in results)
    _emit({"n_starts": len(start_list), "n_converged": n_conv,
           "n_basins": len(basins)})
    if args.out and basins:
        names = sorted(basins[0].values)
        _write_csv(Path(args.out) / "basins.csv", names + ["residual", "count"],
                   [[b.values[k] for k in names] + [b.residual, b.count]
                    for b in basins])
    _say(f"fit: {len(basins)} basin(s) from {len(start_list)} starts "
         f"({n_conv} converged)")
    return 0 if basins else 1


def cmd_evolve(args) -> int:
    doc = _load_config(args.config)
    params = _medium(doc)
    grid = _grid(doc)
    eq = EquationId(_equation_kind(doc), _frame(doc), _bottom(doc))
    # the initial-state spec may carry 'inverted', which flips the medium
    # the run itself must use -- mirror data evolves in the mirror medium
    built, eff = _wave_or_ladder(doc, params, key="initial")
    config = _build("evolve", EvolveConfig,
                    eq=eq, params=eff, grid=grid,
                    dt=float(_take(doc, "dt", "config", required=True)),
                    t_end=float(_take(doc, "t_end", "config", required=True)),
                    output_stride=int(doc.get("output_stride", 1)),
                    dealias=doc.get("dealias"))

    u0, _ = solution_fields(built, eff, grid, 0.0, eq.frame)
    aborted = None
    try:
        traj = evolve(config, u0)
    except NumericalAbort as exc:
        aborted = str(exc)
        traj = exc.trajectory

    mon = monitors(traj)
    if args.out:
        out = Path(args.out)
        rows = [(t, x, u) for snap, t in zip(traj.snapshots, traj.times)
                for x, u in zip(grid.x.tolist(), snap.values.tolist())]
        _write_csv(out / "trajectory.csv", ["t", "x", "u"], rows)
        _write_csv(out / "monitors.csv",
                   ["time", "mass", "momentum", "min", "max"],
                   zip(mon["time"], mon["mass"], mon["momentum"],
                       mon["min"], mon["max"]))

    record = {
        "equation": eq.label(),
        "t_final": traj.times[-1],
        "n_snapshots": len(traj.snapshots),
        "mass_drift": float(np.max(np.abs(mon["mass"] - mon["mass"][0]))),
        "momentum_drift": float(np.max(np.abs(mon["momentum"] - mon["momentum"][0]))),
        "u_min": float(mon["min"][-1]),
        "u_max": float(mon["max"][-1]),
    }
    if len(traj.snapshots) >= 2 and aborted is None:
        record["estimated_speed"] = estimate_speed(traj.snapshots[0], traj.final)
    if aborted is not None:
        record["aborted"] = aborted
    _emit(record)
    if aborted is not None:
        _say(f"evolve: numerical abort at t={traj.times[-1]:g}: {aborted}")
        return 3
    _say(f"evolve: reached t={traj.times[-1]:g} in {config.n_steps} steps, "
         f"{len(traj.snapshots)} snapshots")
    return 0


# --- entry point ----------------------------------------------------------------

def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kdvwaves",
        description="Travelling-wave catalog, residual checks, sign-inversion "
                    "sweeps, coefficient fits, and time evolution for "
                    "KdV-family equations.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, needs_config in (
            ("profile", cmd_profile, True),
            ("verify", cmd_verify, True),
            ("symmetry", cmd_symmetry, False),
            ("fit", cmd_fit, True),
            ("evolve", cmd_evolve, True)):
        p = sub.add_parser(name, help=fn.__doc__)
        p.add_argument("--config", required=needs_config,
                       help="YAML run configuration")
        p.add_argument("--out", help="directory for CSV outputs")
        p.add_argument("--seed", type=int, default=None,
                       help="base seed for randomised sweeps")
        p.add_argument("--tolerance", type=float, default=None,
                       help="override the module's default tolerance")
        p.add_argument("--backend", choices=("spectral", "fd8"),
                       default="spectral", help="derivative backend")
        p.set_defaults(fn=fn)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        _say(f"config error: {exc}")
        return 2
    except NumericalAbort as exc:
        _say(f"numerical abort: {exc}")
        return 3


if __name__ == "__main__":
    sys.exit(main())
