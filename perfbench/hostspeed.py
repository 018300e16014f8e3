"""Host-speed references, timed next to every measurement.

The benchmark runs on a shared host whose speed drifts by up to half for
minutes at a time; CPU time tracks wall time, so the drift is the speed of
the CPU the process gets, not scheduling.  Two runs of the same code a few
minutes apart can thus differ by more than any bound worth setting.  Work
of every kind slows down together, though: over 5 s windows, FFT,
small-array numpy and interpreter loops drift by 40% each while their
ratios stay within about 10%.

So each timed measurement is bracketed by two runs of a fixed reference of
the same kind, and rescaled to a host on which the reference takes its
nominal time::

    scaled = measured * nominal / mean(reference before, reference after)

- A pass, in process, is bracketed by ``HostProbe``: compute in numpy and
  the interpreter, mixed after the three workloads.  FFTs on 256 and 4096
  points (evolve), elementwise algebra on 12-point arrays driven from
  Python (fit), elementwise algebra on 8192-point arrays (verify).
- A cold start is bracketed by ``interpreter_start``: a fresh interpreter
  that imports json, numpy and yaml.  Cold starts drift with process
  start-up and imports more than with compute (36% across 25 s windows
  while the compute probe held within 4%), and their ratio to this
  reference stayed within 4%.

Neither reference touches ``kdvwaves``, so a change to the package moves a
scaled time exactly as it moves the raw one.  The nominal times are round
values near the medians on the host the baselines were measured on (2
vCPUs of a shared 2.0 GHz Xeon), so scaled times read close to raw ones.
"""
from __future__ import annotations

import subprocess
import sys
import time

import numpy as np

PROBE_NOMINAL_S = 0.04
START_NOMINAL_S = 0.2


class HostProbe:
    """Fixed in-process compute, about 40 ms on the reference host."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._large = rng.standard_normal(4096)
        self._small = rng.standard_normal(256)
        self._tiny = rng.standard_normal(12)
        self._grid = np.linspace(-20.0, 20.0, 8192)

    def _work(self) -> float:
        acc = 0.0
        for _ in range(100):
            acc += np.fft.irfft(np.fft.rfft(self._large) * 0.5, n=4096)[7]
        for _ in range(500):
            acc += np.fft.irfft(np.fft.rfft(self._small) * 0.5, n=256)[7]
        a = self._tiny
        for _ in range(3000):
            a = np.sqrt(a * a + 1.0) - 0.999 * a
            acc += float(a[3]) * 1e-9
        for _ in range(50):
            u = np.cosh(self._grid * 0.3) ** -2
            acc += float((u * u - 0.5 * u).sum())
        return acc

    def time(self) -> float:
        """Wall time of one run of the fixed work."""
        t0 = time.perf_counter()
        self._work()
        return time.perf_counter() - t0


def interpreter_start() -> float:
    """Wall time of a fresh interpreter that imports json, numpy and yaml."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import json, numpy, yaml"],
                   check=True, capture_output=True, timeout=120)
    return time.perf_counter() - t0
