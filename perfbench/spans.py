"""Spans around the public entry points of each kdvwaves layer.

The tracer wraps functions and methods from outside the package: it
rebinds every name under which a target is reachable (``cli`` imports
``evolve`` by name, ``fitting`` imports ``equation_terms``, and so on),
so calls made from inside the package are recorded too.  Nothing in
``src/`` changes.  ``install`` and ``uninstall`` swap the wrappers in and
out, so untraced passes run the unmodified code.

A span is ``(name, info, start, end, parent, command)``: ``parent`` is
the index of the enclosing span or -1, ``command`` the id of the CLI
command that caused it, and ``info`` a small value taken from the call
(grid tag, point count or fit outcome).  Spans stay in memory; the
caller writes them out when the run ends.
"""
from __future__ import annotations

import math
import statistics
import sys
import time
from collections import Counter, defaultdict

import numpy as np

FIT_STATUSES = ("converged", "stalled", "max_iterations", "singular_jacobian")
# (kind, n) of the ETDRK4 grids the evolve workload runs; fixed names so
# every workload reports the same per-layer metrics
STEPPER_TAGS = ("kdv.n1024", "kdv2.n4096", "gardner.n256")


def _stepper_tag(config) -> str:
    return f"{config.eq.kind.value}.n{config.grid.n}"


def _fit_outcome(args, kwargs, result):
    return (result.status, result.n_iterations)


# (module, attribute path, span name, info function or None)
TARGETS = (
    ("kdvwaves.cli", "main", "cli.main", None),
    ("kdvwaves.evolve", "ETDRK4.__init__", "evolve.ETDRK4.__init__",
     lambda a, k, r: _stepper_tag(a[1] if len(a) > 1 else k["config"])),
    ("kdvwaves.evolve", "ETDRK4.step", "evolve.ETDRK4.step",
     lambda a, k, r: _stepper_tag(a[0].config)),
    ("kdvwaves.evolve", "ETDRK4.nonlinear", "evolve.ETDRK4.nonlinear",
     lambda a, k, r: _stepper_tag(a[0].config)),
    ("kdvwaves.evolve", "evolve", "evolve.evolve", None),
    ("kdvwaves.evolve", "monitors", "evolve.monitors", None),
    ("kdvwaves.evolve", "estimate_speed", "evolve.estimate_speed", None),
    ("kdvwaves.fitting", "fit_travelling_wave", "fitting.fit_travelling_wave",
     _fit_outcome),
    ("kdvwaves.fitting", "_fit_residual", "fitting._fit_residual", None),
    ("kdvwaves.fitting", "count_constraints", "fitting.count_constraints", None),
    ("kdvwaves.equations", "residual", "equations.residual", None),
    ("kdvwaves.equations", "travelling_residual", "equations.travelling_residual",
     None),
    ("kdvwaves.equations", "equation_terms", "equations.equation_terms", None),
    ("kdvwaves.inversion", "run_case", "inversion.run_case", None),
    ("kdvwaves.inversion", "default_matrix", "inversion.default_matrix", None),
    ("kdvwaves.waves", "TravellingWave.profile", "waves.TravellingWave.profile",
     None),
    ("kdvwaves.waves", "two_soliton", "waves.two_soliton", None),
    ("kdvwaves.waves", "three_soliton", "waves.three_soliton", None),
    ("kdvwaves.elliptic", "jacobi_sn_cn_dn", "elliptic.jacobi_sn_cn_dn",
     lambda a, k, r: int(np.size(a[0] if a else k["u"]))),
    ("kdvwaves.elliptic", "elliptic_K", "elliptic.elliptic_K", None),
    ("kdvwaves.elliptic", "elliptic_E", "elliptic.elliptic_E", None),
    ("numpy.fft", "rfft", "numpy.fft.rfft", None),
    ("numpy.fft", "irfft", "numpy.fft.irfft", None),
)

FFT_SPANS = ("numpy.fft.rfft", "numpy.fft.irfft")
RESIDUAL_SPANS = ("equations.residual", "equations.travelling_residual",
                  "equations.equation_terms")


class Tracer:
    """Records spans while installed; ``command`` tags new spans."""

    def __init__(self):
        self.spans: list = []
        self.command = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []

    def _wrap(self, name, fn, info):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, None, t0, t1, parent, self.command)
            if info is not None:
                spans[idx] = (name, info(args, kwargs, result), t0, t1, parent,
                              self.command)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def install(self):
        """Wrap every target; a target the package no longer has is skipped."""
        if self._patches:
            return
        for module_name, path, name, info in TARGETS:
            module = sys.modules.get(module_name)
            if module is None:
                continue
            *owner_path, attr = path.split(".")
            owner = module
            for part in owner_path:
                owner = getattr(owner, part, None)
            if owner is None or not hasattr(owner, attr):
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, info)
            if owner_path:              # a method: patch the class only
                holders = [(owner, attr)]
            else:                       # a function: every name bound to it
                holders = [(mod, key) for mod in _package_modules(module)
                           for key, val in list(vars(mod).items())
                           if val is original]
            for holder, key in holders:
                self._patches.append((holder, key, original, wrapper))
                setattr(holder, key, wrapper)

    def uninstall(self):
        for holder, key, original, _ in reversed(self._patches):
            setattr(holder, key, original)
        self._patches.clear()

    def take(self) -> list:
        """Hand over the recorded spans and start a fresh list."""
        out = list(self.spans)
        self.spans.clear()
        self._stack.clear()
        return out


def _package_modules(module):
    if module.__name__.startswith("numpy"):
        return [module]
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "kdvwaves" or n.startswith("kdvwaves."))]


# --- per-layer metrics from one pass of spans ---------------------------------

def _durations(spans, name, tag=None):
    return [s[3] - s[2] for s in spans
            if s[0] == name and (tag is None or s[1] == tag)]


def _total(spans, *names) -> float:
    return math.fsum(s[3] - s[2] for s in spans if s[0] in names)


def pass_metrics(spans) -> tuple[dict[str, float], dict[str, float]]:
    """(times, counters) of one traced pass; counters repeat exactly."""
    times: dict[str, float] = {}
    counts: dict[str, float] = {}
    child = defaultdict(float)
    for s in spans:
        if s[4] >= 0:
            child[s[4]] += s[3] - s[2]

    # evolve: FFTs attributed to the ETDRK4 step that caused them
    fft_under_step = Counter()
    for s in spans:
        if s[0] in FFT_SPANS:
            p = s[4]
            while p >= 0 and spans[p][0] != "evolve.ETDRK4.step":
                p = spans[p][4]
            if p >= 0:
                fft_under_step[spans[p][1]] += 1
    for tag in STEPPER_TAGS:
        steps = _durations(spans, "evolve.ETDRK4.step", tag)
        nonlin = _durations(spans, "evolve.ETDRK4.nonlinear", tag)
        counts[f"evolve.steps.{tag}"] = len(steps)
        counts[f"evolve.fft_per_step.{tag}"] = (
            fft_under_step[tag] / len(steps) if steps else 0.0)
        times[f"evolve.step_us.{tag}"] = (
            1e6 * statistics.median(steps) if steps else 0.0)
        times[f"evolve.nonlinear_us.{tag}"] = (
            1e6 * statistics.median(nonlin) if nonlin else 0.0)
    times["evolve.setup_s"] = _total(spans, "evolve.ETDRK4.__init__")

    # fitting: outcomes of every fit, and the residual evaluations they paid
    fits = [s[1] for s in spans if s[0] == "fitting.fit_travelling_wave"]
    iterations = sum(n for _, n in fits)
    useful = sum(n for status, n in fits if status == "converged")
    counts["fitting.fits"] = len(fits)
    counts["fitting.iterations"] = iterations
    counts["fitting.residual_evals"] = sum(1 for s in spans if s[0] == "fitting._fit_residual")
    counts["fitting.useful_iteration_ratio"] = (
        useful / iterations if iterations else 0.0)
    statuses = Counter(status for status, _ in fits)
    for status in FIT_STATUSES:
        counts[f"fitting.status.{status}"] = statuses.pop(status, 0)
    counts["fitting.status.other"] = sum(statuses.values())
    times["fitting.fit_s"] = _total(spans, "fitting.fit_travelling_wave")
    times["fitting.residual_s"] = _total(spans, "fitting._fit_residual")

    # equations: residual assembly, on full grids or on collocation nodes
    terms = _durations(spans, "equations.equation_terms")
    residuals = _durations(spans, "equations.residual")
    counts["equations.terms.calls"] = len(terms)
    times["equations.terms_s"] = math.fsum(terms)
    counts["equations.residual.calls"] = len(residuals)
    times["equations.residual_s"] = math.fsum(residuals)
    counts["equations.fft.calls"] = sum(
        1 for s in spans
        if s[0] in FFT_SPANS and s[4] >= 0 and spans[s[4]][0] in RESIDUAL_SPANS)

    jac = [s for s in spans if s[0] == "elliptic.jacobi_sn_cn_dn"]
    counts["elliptic.jacobi.calls"] = len(jac)
    counts["elliptic.jacobi.points"] = sum(s[1] for s in jac)
    times["elliptic.jacobi_s"] = _total(jac, "elliptic.jacobi_sn_cn_dn")

    times["waves.profile_s"] = _total(spans, "waves.TravellingWave.profile")
    times["waves.ladder_s"] = _total(spans, "waves.two_soliton", "waves.three_soliton")
    times["inversion.case_s"] = _total(spans, "inversion.run_case")
    times["inversion.matrix_s"] = _total(spans, "inversion.default_matrix")

    times["cli.main_self_s"] = math.fsum(s[3] - s[2] - child[i]
                                         for i, s in enumerate(spans)
                                         if s[0] == "cli.main")
    return times, counts


def command_counters(spans, names: list[str]) -> dict[str, dict[str, int]]:
    """Span counts and fit outcomes per command, keyed by command name."""
    out: dict[str, dict] = {}
    for cid, cname in enumerate(names):
        own = [s for s in spans if s[5] == cid]
        c = Counter(s[0] for s in own)
        for s in own:
            if s[0] == "fitting.fit_travelling_wave":
                c[f"fit.status.{s[1][0]}"] += 1
                c["fit.iterations"] += s[1][1]
                if s[1][0] == "converged":
                    c["fit.useful_iterations"] += s[1][1]
            elif s[0] == "elliptic.jacobi_sn_cn_dn":
                c["elliptic.jacobi.points"] += s[1]
        out[cname] = dict(sorted(c.items()))
    return out


def span_records(spans, names: list[str]):
    """JSON-ready records of one pass, times relative to its first span."""
    base = spans[0][2] if spans else 0.0
    for i, (name, info, t0, t1, parent, cid) in enumerate(spans):
        yield {"id": i, "name": name, "info": info, "start": t0 - base,
               "end": t1 - base, "parent": parent,
               "command": names[cid] if 0 <= cid < len(names) else None}
