"""Complete elliptic integrals and Jacobi elliptic functions.

Self-contained double-precision implementations built on the
arithmetic-geometric mean (AGM); no dependency on scipy.special.  The
argument is the parameter m = k^2, following the convention of
Abramowitz & Stegun chapters 16-17 (and DLMF 19/22), so that
sn(u, 0) = sin(u) and sn(u, 1) = tanh(u).
"""
from __future__ import annotations

import math

import numpy as np

__all__ = ["elliptic_K", "elliptic_E", "jacobi_sn_cn_dn", "sech", "M_ONE_CUTOFF"]

# Above this parameter the descending Landen chain starts from
# b0 = sqrt(1 - m) < 1e-6 and the hyperbolic limit is already exact to
# double precision, so sn/cn/dn dispatch to tanh/sech there.
M_ONE_CUTOFF = 1.0 - 1e-12

_AGM_EPS = 1e-17
_AGM_MAX_ITER = 64


def _agm_chain(m: float) -> tuple[list[float], list[float], list[float]]:
    """AGM sequences a_i, b_i, c_i started from (1, sqrt(1-m), sqrt(m))."""
    a = [1.0]
    b = [math.sqrt(1.0 - m)]
    c = [math.sqrt(m)]
    while abs(c[-1]) > _AGM_EPS * a[-1] and len(a) < _AGM_MAX_ITER:
        an = 0.5 * (a[-1] + b[-1])
        bn = math.sqrt(a[-1] * b[-1])
        # same as (a - b)/2 but free of the subtractive cancellation
        cn = c[-1] * c[-1] / (4.0 * an)
        a.append(an)
        b.append(bn)
        c.append(cn)
    return a, b, c


def elliptic_K(m: float) -> float:
    """Complete elliptic integral of the first kind, K(m).

    Quadratic AGM iteration: K = pi / (2 agm(1, sqrt(1-m))).
    Requires 0 <= m < 1 (K diverges logarithmically as m -> 1).
    """
    if not 0.0 <= m < 1.0:
        raise ValueError(f"elliptic_K requires 0 <= m < 1, got m={m!r}")
    a, _, _ = _agm_chain(m)
    return math.pi / (2.0 * a[-1])


def elliptic_E(m: float) -> float:
    """Complete elliptic integral of the second kind, E(m).

    E = K (1 - sum_i 2^(i-1) c_i^2) over the AGM chain; E(1) = 1 exactly.
    Requires 0 <= m <= 1.
    """
    if not 0.0 <= m <= 1.0:
        raise ValueError(f"elliptic_E requires 0 <= m <= 1, got m={m!r}")
    if m == 1.0:
        return 1.0
    a, _, c = _agm_chain(m)
    csum = 0.0
    p = 0.5
    for ci in c:
        csum += p * ci * ci
        p *= 2.0
    return math.pi / (2.0 * a[-1]) * (1.0 - csum)


def jacobi_sn_cn_dn(u, m: float):
    """Jacobi elliptic sn, cn, dn of real argument u for parameter m.

    Descending AGM phi-recursion (A&S 16.4, DLMF 22.20(ii)): with the
    chain of _agm_chain, set phi_N = 2^N a_N u and recurse

        phi_{i-1} = (phi_i + arcsin((c_i/a_i) sin phi_i)) / 2,

    then sn = sin phi_0, cn = cos phi_0, dn = sqrt(1 - m sn^2).
    Vectorized over u; scalar in, scalar out.  m > M_ONE_CUTOFF uses the
    hyperbolic limit (tanh, sech, sech), m = 0 the trigonometric one.
    """
    if not 0.0 <= m <= 1.0:
        raise ValueError(f"jacobi_sn_cn_dn requires 0 <= m <= 1, got m={m!r}")
    u_arr = np.asarray(u, dtype=float)
    scalar = u_arr.ndim == 0
    u_arr = np.atleast_1d(u_arr)

    if m > M_ONE_CUTOFF:
        sn = np.tanh(u_arr)
        cn = sech(u_arr)
        dn = cn.copy()
    elif m == 0.0:
        sn = np.sin(u_arr)
        cn = np.cos(u_arr)
        dn = np.ones_like(u_arr)
    else:
        a, _, c = _agm_chain(m)
        n_steps = len(a) - 1
        phi = (2.0 ** n_steps) * a[-1] * u_arr
        for i in range(n_steps, 0, -1):
            # |c_i sin(phi)/a_i| <= c_i/a_i < 1 analytically; clip guards roundoff
            phi = 0.5 * (phi + np.arcsin(np.clip(c[i] / a[i] * np.sin(phi), -1.0, 1.0)))
        sn = np.sin(phi)
        cn = np.cos(phi)
        # cos(phi)/cos(phi1 - phi) is 0/0 at quarter periods; this form is
        # uniformly stable and exact at the endpoints of dn's range
        dn = np.sqrt(np.maximum(1.0 - m * sn * sn, 0.0))

    if scalar:
        return float(sn[0]), float(cn[0]), float(dn[0])
    return sn, cn, dn


def sech(z):
    """sech(z) = cn(z, 1) = dn(z, 1), overflow-free for any real z."""
    e = np.exp(-np.abs(z))
    return 2.0 * e / (1.0 + e * e)
