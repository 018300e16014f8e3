"""Cold start of the kdvwaves command line, run in a fresh interpreter.

Imports ``kdvwaves.cli`` from ``src/`` and parses the YAML configs named
on the command line, as the first moments of a ``kdvwaves`` command do.
Prints the import time in seconds; the caller times the whole process.

    python3 perfbench/coldstart.py scripts/configs/fit_gardner.yaml
"""
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
t0 = time.perf_counter()
import kdvwaves.cli  # noqa: E402,F401
import_s = time.perf_counter() - t0

import yaml  # noqa: E402  (already loaded by the cli)

for path in sys.argv[1:]:
    with open(path) as fh:
        yaml.safe_load(fh)
print(repr(import_s))
