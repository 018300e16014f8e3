"""Complete elliptic integrals and Jacobi elliptic functions.

Self-contained double-precision implementations built on the
arithmetic-geometric mean (AGM); no dependency on scipy.special.  The
argument is the parameter m = k^2, following the convention of
Abramowitz & Stegun chapters 16-17 (and DLMF 19/22), so that
sn(u, 0) = sin(u) and sn(u, 1) = tanh(u).  One AGM path serves every
0 <= m < 1; the only special case is m = 1, where K is infinite.
"""
from __future__ import annotations

import math

import numpy as np

__all__ = ["elliptic_K", "elliptic_E", "jacobi_sn_cn_dn", "sech"]

_AGM_EPS = 1e-17
_AGM_MAX_ITER = 64


def _agm_chain(m: float) -> tuple[list[float], list[float]]:
    """AGM sequences a_i, c_i started from (1, sqrt(1-m), sqrt(m)); b_i runs as a scalar."""
    a = [1.0]
    b = math.sqrt(1.0 - m)
    c = [math.sqrt(m)]
    while abs(c[-1]) > _AGM_EPS * a[-1] and len(a) < _AGM_MAX_ITER:
        an = 0.5 * (a[-1] + b)
        b = math.sqrt(a[-1] * b)
        # same as (a - b)/2 but free of the subtractive cancellation
        c.append(c[-1] * c[-1] / (4.0 * an))
        a.append(an)
    return a, c


def _complete(m: float) -> tuple[float, float, float]:
    """(K, E/K, E/K + m - 1) for 0 <= m < 1 from one AGM chain.

    K = pi / (2 a_N) and E/K = 1 - sum_i 2^(i-1) c_i^2 with c_0^2 = m, so
    E/K + m - 1 = m/2 - sum_{i>=1} 2^(i-1) c_i^2.  That tail is O(m^2):
    the difference keeps full relative precision as m -> 0, where forming
    E/K first and then adding m - 1 would cancel every digit.
    """
    if not 0.0 <= m < 1.0:
        raise ValueError(f"K(m) requires 0 <= m < 1, got m={m!r}")
    a, c = _agm_chain(m)
    excess = 0.5 * m - sum(2.0 ** (i - 1) * ci * ci for i, ci in enumerate(c) if i > 0)
    return math.pi / (2.0 * a[-1]), excess + (1.0 - m), excess


def elliptic_K(m: float) -> float:
    """Complete elliptic integral of the first kind, K(m).

    Quadratic AGM iteration: K = pi / (2 agm(1, sqrt(1-m))).
    Requires 0 <= m < 1 (K diverges logarithmically as m -> 1).
    """
    return _complete(m)[0]


def elliptic_E(m: float) -> float:
    """Complete elliptic integral of the second kind, E(m).

    E = K (1 - sum_i 2^(i-1) c_i^2) over the AGM chain; E(1) = 1 exactly.
    Requires 0 <= m <= 1.
    """
    if not 0.0 <= m <= 1.0:
        raise ValueError(f"elliptic_E requires 0 <= m <= 1, got m={m!r}")
    if m == 1.0:
        return 1.0
    K, e_over_k, _ = _complete(m)
    return K * e_over_k


def jacobi_sn_cn_dn(u, m: float):
    """Jacobi elliptic sn, cn, dn of real argument u for parameter m.

    Descending AGM phi-recursion (A&S 16.4, DLMF 22.20(ii)): with the
    chain of _agm_chain, set phi_N = 2^N a_N u and recurse

        phi_{i-1} = (phi_i + arcsin((c_i/a_i) sin phi_i)) / 2,

    then sn = sin phi_0, cn = cos phi_0, dn = sqrt(1 - m + m cn^2).
    Vectorized over u; scalar in, scalar out.  The recursion covers every
    0 <= m < 1 (at m = 0 the chain is empty, so phi = u and dn = 1); the
    only special case is m = 1, where K is infinite: (tanh, sech, sech).
    """
    if not 0.0 <= m <= 1.0:
        raise ValueError(f"jacobi_sn_cn_dn requires 0 <= m <= 1, got m={m!r}")
    u_arr = np.asarray(u, dtype=float)
    scalar = u_arr.ndim == 0
    u_arr = np.atleast_1d(u_arr)

    if m == 1.0:
        sn = np.tanh(u_arr)
        cn = sech(u_arr)
        dn = cn.copy()
    else:
        a, c = _agm_chain(m)
        n_steps = len(a) - 1
        phi = (2.0 ** n_steps) * a[-1] * u_arr
        for i in range(n_steps, 0, -1):
            # |c_i sin(phi)/a_i| <= c_i/a_i < 1 analytically; clip guards roundoff
            phi = 0.5 * (phi + np.arcsin(np.clip(c[i] / a[i] * np.sin(phi), -1.0, 1.0)))
        sn = np.sin(phi)
        cn = np.cos(phi)
        # cos(phi)/cos(phi1 - phi) is 0/0 at quarter periods.  Both terms
        # of (1 - m) + m cn^2 are >= 0, so this sum never cancels (unlike
        # 1 - m sn^2, which loses every digit of dn near sn = 1 as m -> 1)
        # and gives dn(K) = sqrt(1 - m) exactly where cn = 0.
        dn = np.sqrt((1.0 - m) + m * cn * cn)

    if scalar:
        return float(sn[0]), float(cn[0]), float(dn[0])
    return sn, cn, dn


def sech(z):
    """sech(z) = cn(z, 1) = dn(z, 1), overflow-free for any real z."""
    e = np.exp(-np.abs(z))
    return 2.0 * e / (1.0 + e * e)
