"""Command-line driver.

Subcommands
-----------
profile    sample a catalog wave or ladder onto (x, t) points, print a CSV table
verify     residual reports for (wave or ladder, equation) pairs
symmetry   sign-inversion sweep: max|R_a(u, u_t) + R_{-a}(-u, -u_t)|
fit        collocation fit of a travelling ansatz, single- or multi-start
evolve     ETDRK4 time integration with snapshot and monitor export

profile and evolve read u from evaluate, verify from travelling_residual.

Configs are YAML documents (see scripts/ for worked examples).  Reports
go to stdout as one JSON object per line; human-readable summaries go to
stderr; tables are CSV with full-precision (%.17g) floats.  Identical
config and seed give byte-identical output.

Every config key is checked against the schema below: one table per
section and per command maps each legal key to (type, default).  An
unknown key (named with the nearest legal one), a missing required key or
a malformed value exits 2 with the key's name.  Every subcommand takes
--config; evolve adds --out, verify --tolerance and --backend, symmetry
--seed and --backend.  A tolerance is finite and >= 0 and a seed >= 0,
as flag or key alike; a wave parameter and a time are finite.

Exit codes: 0 success, 1 verification/fit failure, 2 bad configuration,
3 numerical abort, 141 stdout closed by its reader (as SIGPIPE would).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from functools import lru_cache
from itertools import chain, islice
from pathlib import Path

import numpy as np
import yaml

from .equations import (
    SOLUTION_TOL,
    BottomProfile,
    EquationId,
    EquationKind,
    Grid,
    travelling_residual,
)
from .evolve import EvolveConfig, NumericalAbort, estimate_speed, evolve, monitors
from .fitting import (
    AnsatzFamily,
    StartError,
    amplitude_starts,
    count_constraints,
    fit_travelling_wave,
    multi_start_fit,
)
from .inversion import (
    ALGEBRAIC_TOL,
    DEFAULT_MEDIUM,
    FAMILIES,
    catalog,
    default_matrix,
    run_matrix,
    signed,
)
from .waves import Frame, MediumParams

__all__ = ["main", "ConfigError"]


class ConfigError(Exception):
    """A config value violates a precondition; message names the parameter."""


# --- config schema -------------------------------------------------------------

REQUIRED = object()
# libyaml's parser if PyYAML has it; both share the Python resolver and constructor
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            doc = yaml.load(fh, Loader=_LOADER)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except yaml.YAMLError as exc:
        raise ConfigError(f"config is not valid YAML ({path}): {exc}")
    if doc is None:
        doc = {}
    if not isinstance(doc, dict):
        raise ConfigError(f"config root must be a mapping, got {type(doc).__name__}")
    return doc


def _read(section, table: dict, where: str) -> dict:
    """Every key of the table, read from the section or filled in from its
    default; a key given as null counts as absent.  A (table, constructor)
    pair in place of a type marks a nested section, built from its keys.
    The only code that takes values out of a config."""
    for key in _dict(section, where):
        if key not in table:
            from difflib import get_close_matches
            near = get_close_matches(str(key), list(table), n=1, cutoff=0.0)
            hint = f"did you mean '{near[0]}'?" if near else "no key is legal here"
            raise ConfigError(f"unknown key '{_path(where, key)}' ({hint})")
    values = {}
    for key, (kind, default) in table.items():
        path, value = _path(where, key), section.get(key)
        if value is None:
            if default is REQUIRED:
                raise ConfigError(f"missing required key '{path}'")
            values[key] = default
        elif isinstance(kind, tuple):
            sub, ctor = kind
            values[key] = _build(path, ctor, **_read(value, sub, path))
        else:
            values[key] = kind(value, path)
    return values


def _path(where: str, key) -> str:
    return f"{where}.{key}" if where else str(key)


def _build(where: str, ctor, **kwargs):
    """ctor(**kwargs), its ValueError, TypeError or ArithmeticError raised
    as a ConfigError naming `where`: the one path from a constructor, a
    catalog, a fit's starts or constraint count that refuses
    its input to exit 2."""
    try:
        return ctor(**kwargs)
    except (ValueError, TypeError, ArithmeticError) as exc:
        raise ConfigError(f"invalid '{where}': {exc}")


def _type(what: str, convert, accept=lambda value: True):
    """A type: convert() of a value that accept() allows and convert() takes."""
    def read(value, where: str):
        try:
            if accept(value):
                return convert(value)
        except (LookupError, TypeError, ValueError):
            pass
        raise ConfigError(f"'{where}' must be {what}, got {value!r}")
    return read


# PyYAML reads 1e-8 (no dot) as a string, so a numeric string is a real too
_float = _type("a real number", float, lambda v: not isinstance(v, bool))
_finite = _type("a finite real number", float,
                lambda v: not isinstance(v, bool) and math.isfinite(float(v)))
# NaN compares false, so it fails the range test as a negative value does
_tolerance = _type("a finite real number >= 0", float,
                   lambda v: not isinstance(v, bool) and 0.0 <= float(v) < float("inf"))
_count = _type("an integer >= 0", int, lambda v: type(v) is int and v >= 0)
_positive_int = _type("an integer >= 1", int, lambda v: type(v) is int and v >= 1)
_positive = _type("a finite real number > 0", float,
                  lambda v: not isinstance(v, bool) and 0.0 < float(v) < float("inf"))
_int = _type("an integer", int, lambda v: type(v) is int)
_bool = _type("true or false", bool, lambda v: isinstance(v, bool))
_str = _type("a string", str, lambda v: isinstance(v, str))
_dict = _type("a mapping", dict, lambda v: isinstance(v, dict))
_frame = _type(f"one of {[f.value for f in Frame]}", Frame)
_kind = _type(f"one of {[k.value for k in EquationKind]}", EquationKind)


def _list(item, n: int | None = None, nonempty: str | None = None):
    """A list read item by item, as a tuple; n fixes its length, and a list
    that names its items in `nonempty` must hold at least one."""
    check = _type("a list" if n is None else f"a list of {n} values", list,
                  lambda v: isinstance(v, list) and n in (None, len(v)))

    def read(value, where: str) -> tuple:
        values = tuple(item(v, f"{where}[{i}]") for i, v in enumerate(check(value, where)))
        if nonempty and not values:
            raise ConfigError(f"'{where}' must be a non-empty list of {nonempty}")
        return values
    return read


def _mapping(item):
    """A mapping of names to values read by item."""
    def read(value, where: str) -> dict:
        return {k: item(v, _path(where, k)) for k, v in _dict(value, where).items()}
    return read


# the reader of each key of a FAMILIES row; a ladder's amplitudes number as its row's
_KEYS = {"A": (_finite, REQUIRED), "m": (_finite, REQUIRED), "B": (_finite, None),
         "Delta": (_finite, REQUIRED)}
_family = _type(f"one of {list(FAMILIES)}", FAMILIES.__getitem__)


def _wave(spec, where: str):
    """(where, constructor, keys) of a wave or ladder spec."""
    given = _dict(spec, where)
    make, keys = _family(given.pop("family", None), f"{where}.family")[:2]
    table = {key: (_list(_finite, len(value)), REQUIRED) if key == "amplitudes" else _KEYS[key]
             for key, value in keys.items()}
    return where, make, _read(given, table, where)


def _solution(wave, params: MediumParams, inverted: bool):
    """Build (TravellingWave | SolitonLadder, effective params) from a wave spec.

    The 'inverted' flag flips alpha and negates the amplitude(s); for the
    families whose amplitude is derived from the medium, flipping alpha
    alone produces the negated profile.  Callers must use the returned
    params for anything downstream -- the flip is part of the state.
    """
    where, ctor, keys = wave
    if inverted:
        params, keys = params.flipped(), signed(keys, -1)
    return _build(where, ctor, params=params, **keys), params


def _starts(value, where: str):
    """'starts', as a function of the medium: a list of start points, or
    {amplitudes: {n, span}}, a geometric ladder of kdv-soliton warm starts."""
    if isinstance(value, list):
        points = _list(_mapping(_float), nonempty="start points")(value, where)
        return lambda params: list(points)
    ladder = _read(value, {"amplitudes": ((AMPLITUDES, dict), REQUIRED)}, where)
    return lambda params: amplitude_starts(params, **ladder["amplitudes"])


MEDIUM = ({"alpha": (_float, REQUIRED), "beta": (_float, REQUIRED),
           "tau": (_float, 0.0), "delta": (_float, 0.0)}, MediumParams)
GRID = ({"x0": (_float, REQUIRED), "length": (_float, REQUIRED),
         "n": (_int, REQUIRED)}, Grid)
BOTTOM = ({"knots": (_list(_list(_float, 2)), REQUIRED)}, BottomProfile)
ANSATZ = ({"shape": (_str, REQUIRED), "free": (_list(_str), REQUIRED),
           "fixed": (_mapping(_float), {}), "sign": (_int, 1),
           "zero_mean": (_bool, False)}, AnsatzFamily)
AMPLITUDES = {"n": (_positive_int, 8), "span": (_list(_positive, 2), (0.05, 3.0))}

# the top-level keys of each command
PROFILE = {"medium": (MEDIUM, REQUIRED), "frame": (_frame, Frame.FIXED),
           "grid": (GRID, REQUIRED), "wave": (_wave, REQUIRED),
           "inverted": (_bool, False), "times": (_list(_finite, nonempty="reals"), (0.0,))}
VERIFY_CASE = {"label": (_str, None), "equation": (_kind, REQUIRED),
               "medium": (MEDIUM, REQUIRED), "frame": (_frame, Frame.FIXED),
               "grid": (GRID, None), "wave": (_wave, REQUIRED),
               "inverted": (_bool, False), "t": (_finite, 0.0)}
# the document's keys but the label are the defaults of every case
VERIFY = {"tolerance": (_tolerance, SOLUTION_TOL), "cases": (_list(_dict), None),
          **{key: (kind, None if default is REQUIRED else default)
             for key, (kind, default) in VERIFY_CASE.items() if key != "label"}}
SYMMETRY = {"medium": (MEDIUM, None), "n_seeds": (_count, 5), "select": (_str, None)}
FIT = {"equation": (_kind, REQUIRED), "medium": (MEDIUM, REQUIRED),
       "ansatz": (ANSATZ, REQUIRED), "count_constraints": (_bool, False),
       "start": (_mapping(_float), None), "starts": (_starts, None)}
EVOLVE = {"equation": (_kind, REQUIRED), "medium": (MEDIUM, REQUIRED),
          "frame": (_frame, Frame.FIXED), "grid": (GRID, REQUIRED),
          "bottom": (BOTTOM, None), "initial": (_wave, REQUIRED),
          "inverted": (_bool, False), "dt": (_float, REQUIRED),
          "t_end": (_float, REQUIRED), "output_stride": (_int, 1)}


# --- output helpers -----------------------------------------------------------

def _emit(record: dict):
    sys.stdout.write(json.dumps(record) + "\n")


def _say(msg: str):
    sys.stderr.write(msg + "\n")


def _csv_lines(header: list[str], rows):
    """The CSV text: the header, then one '%' of %.17g fields per block of
    1024 rows, so a stream of rows is never held whole, as rows or as text."""
    yield ",".join(header) + "\n"
    rows = iter(rows)
    while block := list(islice(rows, 1024)):
        line = ",".join(["%.17g"] * len(block[0])) + "\n"
        yield line * len(block) % tuple(chain.from_iterable(block))


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w") as fh:
        fh.writelines(_csv_lines(header, rows))


# --- subcommands --------------------------------------------------------------

def cmd_profile(args) -> int:
    cfg = _read(_load_config(args.config), PROFILE, "")
    grid, times = cfg["grid"], cfg["times"]

    built, eff = _solution(cfg["wave"], cfg["medium"], cfg["inverted"])
    x = grid.x
    samples = [built.evaluate(x, t, eff, cfg["frame"]) for t in times]
    if len(times) == 1:
        header, rows = ["x", "u"], zip(x, samples[0])
    else:
        header = ["t", "x", "u"]
        rows = ((t, xi, ui) for t, u in zip(times, samples) for xi, ui in zip(x, u))
    sys.stdout.writelines(_csv_lines(header, rows))
    return 0


def _verify_cases(cfg: dict):
    """(label, equation, medium, solution, grid, t) per case, built one at
    a time; without 'cases', the catalog of the medium (mirrored by
    'inverted')."""
    if cfg["cases"] is None:
        for key in ("equation", "grid", "wave"):
            if cfg[key] is not None:
                raise ConfigError(f"'{key}' is read only by a case, and there are no 'cases'")
        medium = cfg["medium"] or DEFAULT_MEDIUM
        for label, kind, params, solution, grid in _build(
                "medium", catalog, params=medium.flipped() if cfg["inverted"] else medium):
            yield label, EquationId(kind, cfg["frame"]), params, solution, grid, cfg["t"]
        return
    table = {key: (kind, default if cfg.get(key) is None else cfg[key])
             for key, (kind, default) in VERIFY_CASE.items()}
    for i, case in enumerate(cfg["cases"]):
        case = _read(case, table, f"cases[{i}]")
        built, eff = _solution(case["wave"], case["medium"], case["inverted"])
        if case["grid"] is None and built.wavelength() is None:
            raise ConfigError(f"missing required key 'cases[{i}].grid'")
        # without a grid, one full period of the periodic families
        grid = case["grid"] or Grid(0.0, built.wavelength(), 1024)
        yield (case["label"] or f"case{i}", EquationId(case["equation"], case["frame"]),
               eff, built, grid, case["t"])


def cmd_verify(args) -> int:
    cfg = _read(_load_config(args.config), VERIFY, "")
    tolerance = cfg["tolerance"] if args.tolerance is None else args.tolerance

    n_pass = n_cases = 0
    for label, eq, params, solution, grid, t in _verify_cases(cfg):
        try:
            # a wave's finite samples may still overflow their derivatives
            with np.errstate(over="raise", invalid="raise"):
                report, _ = travelling_residual(solution, eq, params, grid, t=t,
                                                tolerance=tolerance, backend=args.backend)
        except FloatingPointError as exc:
            _say(f"verify: numerical abort in case {label!r}: {exc}")
            return 3
        _emit({"label": label, **vars(report)})
        n_pass, n_cases = n_pass + report.passed, n_cases + 1

    _say(f"verify: {n_pass}/{n_cases} passed (tolerance {tolerance:g})")
    return 0 if n_pass == n_cases else 1


def cmd_symmetry(args) -> int:
    cfg = _read(_load_config(args.config) if args.config else {}, SYMMETRY, "")
    n_seeds, select = cfg["n_seeds"], cfg["select"]
    base = args.seed or 0
    cases = _build("medium", default_matrix, params=cfg["medium"],
                   seeds=range(base, base + n_seeds))

    if select is not None:
        cases = [c for c in cases if c.label == select]
        if not cases:
            raise ConfigError(f"'select' matches no case label: {select!r}")

    rows = run_matrix(cases, args.backend)
    for row in rows:
        _emit(row)
    worst = max((r["algebraic_defect_value"] for r in rows), default=0.0)
    n_pass = sum(r["pass"] for r in rows)
    _say(f"symmetry: {n_pass}/{len(rows)} passed, "
         f"worst antisymmetry defect {worst:.3e} (tolerance {ALGEBRAIC_TOL:g})")
    return 0 if n_pass == len(rows) else 1


def cmd_fit(args) -> int:
    cfg = _read(_load_config(args.config), FIT, "")
    params, kind, ansatz = cfg["medium"], cfg["equation"], cfg["ansatz"]

    if cfg["count_constraints"]:
        k = _build("count_constraints", count_constraints,
                   kind=kind, params=params, ansatz=ansatz)
        _emit({"constraint_count": k, "free_parameters": list(ansatz.free)})
        _say(f"fit: {k} independent constraints on {len(ansatz.free)} free parameters")

    starts, start = cfg["starts"], cfg["start"]
    if (starts is None) == (start is None):
        raise ConfigError("provide exactly one of 'start' (single fit) "
                          "or 'starts' (multi-start)")

    if start is not None:
        result = _build("start", fit_travelling_wave, kind=kind, params=params,
                        ansatz=ansatz, start=start)
        _emit({"values": result.values, "residual": result.residual,
               "status": result.status, "n_iterations": result.n_iterations,
               "rank": result.rank})
        _say(f"fit: {result.status} after {result.n_iterations} iterations, "
             f"relative residual {result.residual:.3e}")
        return 0 if result.converged else 1

    start_list = _build("starts", starts, params=params)
    try:
        basins, results = multi_start_fit(kind, params, ansatz, start_list)
    except StartError as exc:
        raise ConfigError(f"invalid 'starts[{exc.index}]': {exc}")
    for i, b in enumerate(basins):
        _emit({"basin": i, "values": b.values, "residual": b.residual,
               "count": b.count})
    n_conv = sum(r.converged for r in results)
    _emit({"n_starts": len(start_list), "n_converged": n_conv,
           "n_basins": len(basins)})
    _say(f"fit: {len(basins)} basin(s) from {len(start_list)} starts "
         f"({n_conv} converged)")
    return 0 if basins else 1


def cmd_evolve(args) -> int:
    cfg = _read(_load_config(args.config), EVOLVE, "")
    grid = cfg["grid"]
    eq = EquationId(cfg["equation"], cfg["frame"], cfg["bottom"])
    # the initial-state spec may carry 'inverted', which flips the medium
    # the run itself must use -- mirror data evolves in the mirror medium
    built, eff = _solution(cfg["initial"], cfg["medium"], cfg["inverted"])
    config = _build("evolve", EvolveConfig,
                    eq=eq, params=eff, grid=grid, dt=cfg["dt"], t_end=cfg["t_end"],
                    output_stride=cfg["output_stride"])
    if args.out is not None:     # made, its two tables emptied, before the first step
        what = "be made a directory"
        try:
            if not args.out:
                raise OSError("empty path")
            Path(args.out).mkdir(parents=True, exist_ok=True)
            for name in ("trajectory.csv", "monitors.csv"):
                what = f"write {name}"
                open(Path(args.out, name), "w").close()
        except OSError as exc:
            raise ConfigError(f"'--out' cannot {what} ({exc.strerror or exc}): {args.out!r}")

    u0 = built.evaluate(grid.x, 0.0, eff, eq.frame)
    aborted = None
    try:
        traj = evolve(config, u0)
    except NumericalAbort as exc:
        aborted = str(exc)
        traj = exc.trajectory

    mon = monitors(traj)
    if args.out:
        out = Path(args.out)
        x = grid.x.tolist()
        _write_csv(out / "trajectory.csv", ["t", "x", "u"],
                   ((t, xi, ui) for snap, t in zip(traj.snapshots, traj.times)
                    for xi, ui in zip(x, snap.values.tolist())))
        _write_csv(out / "monitors.csv",
                   ["time", "mass", "momentum", "min", "max"],
                   zip(mon["time"], mon["mass"], mon["momentum"],
                       mon["min"], mon["max"]))

    # a drift of a series that overflows is no number: null, and named in non_finite
    with np.errstate(over="ignore", invalid="ignore"):
        drifts = {f"{k}_drift": float(np.max(np.abs(mon[k] - mon[k][0])))
                  for k in ("mass", "momentum")}
    non_finite = [k for k, d in drifts.items() if not math.isfinite(d)]
    record = {
        "equation": eq.label(),
        "t_final": traj.times[-1],
        "n_snapshots": len(traj.snapshots),
        **{k: None if k in non_finite else d for k, d in drifts.items()},
        "u_min": float(mon["min"][-1]),
        "u_max": float(mon["max"][-1]),
    }
    if non_finite:
        record["non_finite"] = non_finite
    if aborted is not None:
        _emit({**record, "aborted": aborted})
        _say(f"evolve: numerical abort at t={traj.times[-1]:g}: {aborted}")
        return 3
    if len(traj.snapshots) >= 2:
        record["estimated_speed"] = estimate_speed(traj.snapshots[0], traj.final)
    _emit(record)
    _say(f"evolve: reached t={traj.times[-1]:g} in {config.n_steps} steps, "
         f"{len(traj.snapshots)} snapshots")
    return 0


# --- entry point ----------------------------------------------------------------

@lru_cache(maxsize=None)     # built once per process; parse_args leaves it unchanged
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kdvwaves",
        description="Travelling-wave catalog, residual checks, sign-inversion "
                    "sweeps, coefficient fits, and time evolution for "
                    "KdV-family equations.")
    sub = parser.add_subparsers(dest="command", required=True)
    flags = {"--seed": dict(type=int, help="base seed for randomised sweeps"),
             "--tolerance": dict(type=float, help="override the config's tolerance"),
             "--backend": dict(choices=("spectral", "fd8"), default="spectral",
                               help="derivative backend"),
             "--out": dict(help="directory for trajectory.csv and monitors.csv")}
    for name, fn, own in (
            ("profile", cmd_profile, ()),
            ("verify", cmd_verify, ("--tolerance", "--backend")),
            ("symmetry", cmd_symmetry, ("--seed", "--backend")),
            ("fit", cmd_fit, ()),
            ("evolve", cmd_evolve, ("--out",))):
        p = sub.add_parser(name, help=fn.__doc__)
        p.add_argument("--config", required=name != "symmetry",
                       help="YAML run configuration")
        for flag in own:
            p.add_argument(flag, **flags[flag])
        p.set_defaults(fn=fn)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        for flag, read in (("seed", _count), ("tolerance", _tolerance)):
            if getattr(args, flag, None) is not None:     # in the range of its config key
                read(getattr(args, flag), f"--{flag}")
        code = args.fn(args)
        sys.stdout.flush()      # a closed pipe shows here, not at exit
        return code
    except ConfigError as exc:
        _say(f"config error: {exc}")
        return 2
    except BrokenPipeError:
        # the reader left (`| head`): the unflushed rest goes to devnull,
        # so the exit flush stays quiet, and the code is SIGPIPE's
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141


if __name__ == "__main__":
    sys.exit(main())
