#!/usr/bin/env python3
"""Sign-inversion sweep: what the alpha flip buys, and that it buys it exactly.

For random fields of growing amplitude, tabulate per operator and bottom

  defect   = max |R[alpha](u) + R[-alpha](-u)| / scale     (the identity)
  unflipped= max |R[alpha](u) + R[alpha](-u)| / scale      (the control)

The defect column is exactly zero: the terms even in u are assembled so
that negating u and alpha flips every term's sign bitwise.  The control
column grows like the amplitude, since it is left holding the quadratic
term.  Catalog solutions are appended with their upright, mirrored, and
unflipped residuals.  --out writes the full table as CSV.
"""

import argparse
import csv
import sys

import numpy as np

from kdvwaves import (
    EquationId,
    EquationKind,
    Field,
    Grid,
    MediumParams,
    RandomField,
    algebraic_defect,
    default_matrix,
    ramp_bottom,
    residual,
    run_matrix,
)


def unflipped_sum(u, ut, eq, params) -> float:
    rep, r_up = residual(u, ut, eq, params)
    _, r_neg = residual(Field(u.grid, -u.values, u.time),
                        Field(ut.grid, -ut.values, ut.time), eq, params)
    return float(np.max(np.abs(r_up.values + r_neg.values)) / rep.scale)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--amplitudes", type=float, nargs="+",
                    default=(0.1, 0.3, 1.0, 3.0))
    ap.add_argument("--out", help="CSV path for the full table")
    args = ap.parse_args()

    params = MediumParams(alpha=0.1, beta=0.1, tau=0.35, delta=0.05)
    grid = Grid(-64.0, 128.0, 1024)
    bottoms = {"flat": None, "ramp": ramp_bottom(grid)}
    rows = []

    print(f"{'operator':>12} {'bottom':>6} {'amp':>5} "
          f"{'worst defect':>13} {'min unflipped':>14}")
    for kind in EquationKind:
        for bname, bottom in bottoms.items():
            eq = EquationId(kind, bottom=bottom)
            for amp in args.amplitudes:
                defects, controls = [], []
                for seed in range(args.seeds):
                    u, ut = RandomField(seed, amplitude=amp).build(grid)
                    defects.append(
                        algebraic_defect(u, ut, eq, params).relative)
                    controls.append(unflipped_sum(u, ut, eq, params))
                print(f"{kind.value:>12} {bname:>6} {amp:5.1f} "
                      f"{max(defects):13.3e} {min(controls):14.3e}")
                rows.append({"kind": kind.value, "bottom": bname,
                             "amplitude": amp, "worst_defect": max(defects),
                             "min_unflipped": min(controls)})

    print("\ncatalog solutions (upright / mirrored / unflipped control):")
    solutions = [c for c in default_matrix(params=None, seeds=range(1)) if c.is_solution]
    for case, row in zip(solutions, run_matrix(solutions)):
        print(f"{case.label:>34}  {row['upright_residual']:.2e} / "
              f"{row['mirrored_residual']:.2e} / {row['control_residual']:.2e}")

    if args.out:
        with open(args.out, "w", newline="") as fh:
            w = csv.DictWriter(fh, fieldnames=list(rows[0]))
            w.writeheader()
            w.writerows(rows)
        print(f"\nwrote {len(rows)} rows to {args.out}", file=sys.stderr)


if __name__ == "__main__":
    main()
