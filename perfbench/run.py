"""Benchmark of the kdvwaves command line: evolve, fit and verify.

Run from the repository root:

    python3 perfbench/run.py --workload fit --seed 1 --seconds 30 --trace 0

Each workload is a closed loop with one client: this process issues the
workload's commands to ``kdvwaves.cli.main`` one at a time, in process,
each after the previous one returned, and checks every output (see
workloads.py).  One pass is one round of the workload's commands.

``--trace 0`` measures the end-to-end metrics with tracing off:

- ``setup_s``: median wall time of a cold start, a fresh interpreter that
  imports ``kdvwaves.cli`` and parses the workload's configs;
- ``wall_s``: median wall time of one checked pass;
- ``peak_rss_mb``: peak resident memory of this process.

Both times are scaled to a host of nominal speed: each sample is
multiplied by a reference's nominal time over the reference's time
measured just before and after it (hostspeed.py), which takes out the
drift of the shared host's speed.  The raw medians are printed as
``setup_raw_s`` and ``wall_raw_s``, and the probe's as ``probe_s``.
Cold starts are spread over the run, between passes, so both see the
same state of the host.  Failed commands are counted in ``failed``
against ``attempted`` (``ops_failed``).

``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of spans.py, plus ``trace.overhead_s`` (median over
adjacent pairs of the traced pass minus the untraced one, both scaled).
The spans of the first traced pass and the per-command counters go to
``.perfbench_out/`` in the checkout.

The last line of stdout is one JSON object: correct, attempted, failed
and the metrics named in BENCHMARK.json.
"""
from __future__ import annotations

import os

# one client, one thread: pin BLAS/OpenMP pools before numpy loads
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gzip  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from hostspeed import (PROBE_NOMINAL_S, START_NOMINAL_S,  # noqa: E402
                       HostProbe, interpreter_start)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
COLD_SHARE = 0.15   # share of the measured time given to cold starts
MIN_PASSES = 3
MIN_COLD_STARTS = 5


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


class Client:
    """Runs passes over a workload's commands and checks their outputs."""

    def __init__(self, workload, tracer):
        self.workload = workload
        self.tracer = tracer
        self.cli = sys.modules["kdvwaves.cli"]
        self.reference: list | None = None   # outputs of the first pass
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.stdout_bytes = 0

    def run_pass(self) -> float:
        """One checked pass; returns the wall time spent inside the CLI."""
        seen: dict = {}
        outputs = []
        total = 0.0
        self.stdout_bytes = 0
        for cid, cmd in enumerate(self.workload.commands):
            self.tracer.command = cid
            out = io.StringIO()
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(io.StringIO()):
                    rc = self.cli.main(cmd.argv)
            except Exception:
                total += time.perf_counter() - t0
                rc, problems = None, [traceback.format_exc()]
            else:
                total += time.perf_counter() - t0
                problems = []
            text = out.getvalue()
            self.stdout_bytes += len(text.encode())
            if rc is not None:
                try:
                    problems = cmd.check(rc, text, seen)
                except (ValueError, KeyError, TypeError, AttributeError) as exc:
                    problems = [f"unreadable output ({exc!r}): {text[:200]!r}"]
            files = tuple(hashlib.sha256(p.read_bytes()).hexdigest()
                          if p.exists() else None for p in cmd.outputs)
            outputs.append((text, files))
            if self.reference is not None and self.reference[cid] != (text, files):
                problems.append("output differs from the first pass")
            self.attempted += 1
            if problems:
                self.failed += 1
                self.problems.extend(f"{cmd.name}: {p}" for p in problems)
        self.tracer.command = -1
        if self.reference is None:
            self.reference = outputs
        return total


def _cold_start(configs) -> tuple[float, float]:
    """(process wall time, import time) of one fresh interpreter."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, str(HERE / "coldstart.py"),
                           *map(str, configs)],
                          capture_output=True, text=True, cwd=ROOT, timeout=120)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"cold start failed: {proc.stderr.strip()}")
    return wall, float(proc.stdout.strip())


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def _show(name, value, unit, samples=None):
    line = f"{name} = {value!r} {unit}"
    if samples:
        q1, q3 = _quartiles(samples)
        line += f"  (median of {len(samples)}; q1 {q1:.6g}, q3 {q3:.6g})"
    print(line)


def measure(client, workload, seconds: float, traced: bool):
    """Spread passes and cold starts over `seconds`; returns samples.

    Every untraced pass is bracketed by runs of the host probe, and every
    cold start by reference interpreter starts; their ``*_scaled`` samples
    are rescaled to the nominal host speed (see hostspeed.py).
    """
    from spans import pass_metrics, command_counters

    tracer = client.tracer
    probe = HostProbe()
    cold_walls, cold_scaled, import_times = [], [], []
    probes = [probe.time()]

    def scale() -> float:
        """Nominal over present host speed, from the probes either side."""
        probes.append(probe.time())
        return PROBE_NOMINAL_S / (0.5 * (probes[-2] + probes[-1]))

    def cold() -> float:
        """One bracketed cold start; returns the time it took in all."""
        t0 = time.perf_counter()
        before = interpreter_start()
        wall, imp = _cold_start(workload.configs)
        after = interpreter_start()
        cold_walls.append(wall)
        cold_scaled.append(wall * START_NOMINAL_S / (0.5 * (before + after)))
        import_times.append(imp)
        return time.perf_counter() - t0

    cold()              # writes the bytecode caches; not counted
    client.run_pass()   # warm-up and reference outputs; not timed
    cold_walls.clear()
    cold_scaled.clear()
    import_times.clear()
    probes[:] = [probe.time()]

    plain, plain_scaled, traced_walls, overheads, layer = [], [], [], [], []
    counters = first_spans = None
    start = time.perf_counter()
    cold_spent = 0.0
    while time.perf_counter() - start < seconds or len(plain) < MIN_PASSES:
        wall = client.run_pass()
        plain.append(wall)
        plain_scaled.append(wall * scale())
        if traced:
            tracer.install()
            try:
                traced_wall = client.run_pass()
            finally:
                tracer.uninstall()
            traced_walls.append(traced_wall)
            overheads.append(traced_wall * scale() - plain_scaled[-1])
            spans = tracer.take()
            layer.append(pass_metrics(spans))
            names = [c.name for c in workload.commands]
            pass_counters = {"pass": layer[-1][1],
                             "commands": command_counters(spans, names)}
            if counters is None:
                counters, first_spans = pass_counters, spans
            elif pass_counters != counters:
                client.failed += 1
                client.problems.append("counters differ between traced passes")
        if cold_spent < COLD_SHARE * (time.perf_counter() - start):
            cold_spent += cold()
    while len(cold_walls) < MIN_COLD_STARTS:
        cold()
    return {"plain": plain, "plain_scaled": plain_scaled, "traced": traced_walls,
            "overheads": overheads,
            "layer": layer, "counters": counters, "spans": first_spans,
            "cold": cold_walls, "cold_scaled": cold_scaled,
            "import": import_times, "probe": probes}


def _environment(args):
    import numpy
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "python": platform.python_version(),
            "numpy": numpy.__version__, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "threads": {v: os.environ[v] for v in THREAD_VARS}}


def _write_trace(path: Path, env, workload, samples):
    from spans import span_records
    names = [c.name for c in workload.commands]
    with gzip.open(path, "wt") as fh:
        fh.write(json.dumps({"environment": env, "commands": names,
                             "counters": samples["counters"]}) + "\n")
        for rec in span_records(samples["spans"] or [], names):
            fh.write(json.dumps(rec) + "\n")


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (ROOT / "src" / "kdvwaves" / "cli.py").is_file() \
            or not (ROOT / "scripts" / "configs").is_dir():
        print(f"perfbench: no kdvwaves source tree under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"perfbench: --workload must be one of {names}", file=sys.stderr)
        return 2
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}

    sys.path.insert(0, str(ROOT / "src"))
    import kdvwaves.cli  # noqa: F401  (the client drives it)
    import workloads
    from spans import Tracer

    env = _environment(args)
    print("environment " + json.dumps(env))
    work = OUT_DIR / f"run-{os.getpid()}"
    try:
        workload = workloads.build(args.workload, args.seed, ROOT, work)
        client = Client(workload, Tracer())
        samples = measure(client, workload, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    values: dict[str, float] = {}
    _show("probe_s", statistics.median(samples["probe"]), "s", samples["probe"])
    if args.trace:
        per_pass = [{**t, **c} for t, c in samples["layer"]]
        for key in per_pass[0]:
            values[key] = statistics.median(p[key] for p in per_pass)
        values.update(samples["layer"][0][1])   # counters: exact, from one pass
        values["cli.stdout_bytes"] = client.stdout_bytes
        values["cli.import_s"] = statistics.median(samples["import"])
        values["trace.overhead_s"] = statistics.median(samples["overheads"])
        OUT_DIR.mkdir(exist_ok=True)
        trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl.gz"
        _write_trace(trace_path, env, workload, samples)
        print(f"spans of one traced pass -> {trace_path}")
        print(json.dumps({"counters": samples["counters"]}, sort_keys=True))
        show = {"cli.import_s": samples["import"]}
        _show("untraced_pass_s", statistics.median(samples["plain"]), "s",
              samples["plain"])
        _show("traced_pass_s", statistics.median(samples["traced"]), "s",
              samples["traced"])
    else:
        values["setup_s"] = statistics.median(samples["cold_scaled"])
        values["wall_s"] = statistics.median(samples["plain_scaled"])
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        show = {"setup_s": samples["cold_scaled"], "wall_s": samples["plain_scaled"]}
        _show("setup_raw_s", statistics.median(samples["cold"]), "s", samples["cold"])
        _show("wall_raw_s", statistics.median(samples["plain"]), "s", samples["plain"])

    missing = sorted(set(units) - set(values))
    if missing:
        raise RuntimeError(f"metrics named in BENCHMARK.json but not measured: {missing}")
    for problem in client.problems[:20]:
        print(f"FAILED {problem}", file=sys.stderr)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    for name, unit in units.items():
        _show(name, values[name], unit, show.get(name))
    print(f"ops_failed = {client.failed}/{client.attempted} count/attempted")
    print(json.dumps({"correct": client.failed == 0, "attempted": client.attempted,
                      "failed": client.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
