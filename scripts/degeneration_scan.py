#!/usr/bin/env python3
"""How the periodic waves become the soliton as m -> 1.

Tabulates, for a ladder of elliptic parameters approaching 1, the
wavelength, the pedestal, and the L-infinity distance between the
pedestal-free periodic profile and the sech^2 soliton of the same
amplitude.  The cn^2 wave and the plus branch of dn^2 +/- sqrt(m) cn dn
converge over their (logarithmically growing) periods, the wavelength
tracks ln(16/(1-m)) / B, and the minus branch is checked against the
identity that it is the plus branch displaced by half a period -- so in
the limit it carries the same soliton, centred at the window edge.
"""

import argparse
import math

import numpy as np

from kdvwaves import (
    MediumParams,
    make_kdv_cnoidal,
    make_kdv_soliton,
    make_kdv_superposition,
)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--amplitude", type=float, default=1.0)
    ap.add_argument("--alpha", type=float, default=0.1)
    ap.add_argument("--beta", type=float, default=0.1)
    args = ap.parse_args()

    params = MediumParams(alpha=args.alpha, beta=args.beta)
    sol = make_kdv_soliton(params, args.amplitude)
    sup_B = sol.B  # superposed branch shares the soliton width relation

    print(f"{'1-m':>8} {'wavelength':>11} {'ln(16/(1-m))/B':>15} "
          f"{'pedestal D':>11} {'cn2 gap':>10} {'sup+ gap':>10} {'sup-/+ gap':>11}")
    for k in range(1, 16):
        eps = 10.0 ** -k
        m = 1.0 - eps
        cn = make_kdv_cnoidal(params, args.amplitude, m)
        lam = cn.wavelength()
        xi = np.linspace(-lam / 2, lam / 2, 4096)
        gap_cn = np.max(np.abs(cn.profile(xi) - cn.D - sol.profile(xi)))

        plus = make_kdv_superposition(params, args.amplitude, m, sup_B, sign=+1)
        minus = make_kdv_superposition(params, args.amplitude, m, sup_B, sign=-1)
        lam_s = plus.wavelength()
        xi_s = np.linspace(-lam_s / 2, lam_s / 2, 4096)
        gap_plus = np.max(np.abs(plus.profile(xi_s) - plus.D
                                 - sol.profile(xi_s)))
        # the minus branch equals the plus branch half a period on
        gap_shift = np.max(np.abs(minus.profile(xi_s)
                                  - plus.profile(xi_s + lam_s / 2)))

        asym = math.log(16.0 / (1.0 - m)) / cn.B  # 1 - m, not eps: m = 1 - eps rounds
        print(f"{eps:8.0e} {lam:11.4f} {asym:15.4f} {cn.D:11.6f} "
              f"{gap_cn:10.2e} {gap_plus:10.2e} {gap_shift:11.2e}")

    print(f"\nsoliton width for comparison: 1/B = {1.0 / sol.B:.4f}")


if __name__ == "__main__":
    main()
