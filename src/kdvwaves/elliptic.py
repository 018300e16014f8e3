"""Complete elliptic integrals and Jacobi elliptic functions.

Self-contained double-precision implementations built on the
arithmetic-geometric mean (AGM); no dependency on scipy.special.  The
argument is the parameter m = k^2, following the convention of
Abramowitz & Stegun chapters 16-17 (and DLMF 19/22), so that
sn(u, 0) = sin(u) and sn(u, 1) = tanh(u).  One cached 40-digit AGM walk
per m gives K, E and the levels of Bulirsch's descending Gauss
transformation (Numer. Math. 7, 1965, 78-90; DLMF 22.7(i)), which gives
sn, cn, dn with one tangent per point.  Every 0 <= m < 1 takes that one
path; the only special case is m = 1, where K is infinite and sn, cn, dn
keep their closed forms tanh, sech, sech.
"""
from __future__ import annotations

import math
from decimal import Context, Decimal
from functools import lru_cache

import numpy as np

__all__ = ["elliptic_K", "elliptic_E", "jacobi_sn_cn_dn", "sech"]

_DECIMAL = Context(prec=40)
_PI = Decimal("3.141592653589793238462643383279502884197")
_AGM_EPS = Decimal("1e-38")
_AGM_MAX_ITER = 64
# a Gauss level with c_i <= 1e-17 a_i would give dn = 1 to rounding
_LEVEL_EPS = Decimal("1e-17")
# below this |tan| the Gauss chain's squares (~1/tan^2) would overflow
_TINY = 1e-150


@lru_cache(maxsize=64)
def _complete(m: float):
    """(K, E/K, E/K + m - 1, a_N, levels, 1/(2K), C1, C2) for 0 <= m < 1
    from one 40-digit AGM walk from (a, b, c) = (1, sqrt(1-m), sqrt(m)).

    Each double is rounded once from 40 digits.  K = pi / (2 a_N) and
    E/K = 1 - sum_i 2^(i-1) c_i^2 with c_0^2 = m, so
    E/K + m - 1 = m/2 - sum_{i>=1} 2^(i-1) c_i^2.  That tail is O(m^2):
    the difference keeps full relative precision as m -> 0, where forming
    E/K first and then adding m - 1 would cancel every digit.  The levels
    (a_{i-1} a_i, b_{i-1} a_i) of jacobi_sn_cn_dn's recursion come last
    first.  C1 keeps the leading 32 bits of 2K = C1 + C2, so j C1 is exact
    for |j| < 2^21, and u - j C1 - j C2 keeps the digits that a 2K rounded
    to a double would lose at |u| >> K.
    """
    if not 0.0 <= m < 1.0:
        raise ValueError(f"K(m) requires 0 <= m < 1, got m={m!r}")
    ctx = _DECIMAL
    a = Decimal(1)
    b = ctx.sqrt(ctx.subtract(a, Decimal(m)))
    c = ctx.sqrt(Decimal(m))
    excess = ctx.multiply(Decimal("0.5"), Decimal(m))
    levels = []
    for i in range(_AGM_MAX_ITER - 1):
        if not c > ctx.multiply(_AGM_EPS, a):
            break
        a_prev, b_prev = a, b
        a = ctx.multiply(Decimal("0.5"), ctx.add(a_prev, b_prev))
        b = ctx.sqrt(ctx.multiply(a_prev, b_prev))
        # same as (a - b)/2 but free of the subtractive cancellation
        c = ctx.divide(ctx.multiply(c, c), ctx.multiply(4, a))
        excess = ctx.subtract(excess, ctx.multiply(2 ** i, ctx.multiply(c, c)))
        if c > ctx.multiply(_LEVEL_EPS, a):
            levels.append((float(ctx.multiply(a_prev, a)), float(ctx.multiply(b_prev, a))))
    e_over_k = ctx.add(excess, ctx.subtract(1, Decimal(m)))
    two_k = ctx.divide(_PI, a)
    mantissa, exponent = math.frexp(float(two_k))
    c1 = math.ldexp(math.floor(math.ldexp(mantissa, 32)), exponent - 32)
    c2 = float(ctx.subtract(two_k, Decimal(c1)))
    return (float(ctx.divide(_PI, ctx.multiply(2, a))), float(e_over_k), float(excess),
            float(a), tuple(reversed(levels)), 1.0 / float(two_k), c1, c2)


def elliptic_K(m: float) -> float:
    """Complete elliptic integral of the first kind, K(m).

    Quadratic AGM iteration: K = pi / (2 agm(1, sqrt(1-m))), at 40 digits
    and rounded once.  Requires 0 <= m < 1 (K diverges logarithmically as
    m -> 1).
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
    K, e_over_k = _complete(m)[:2]
    return K * e_over_k


def jacobi_sn_cn_dn(u, m: float):
    """Jacobi elliptic sn, cn, dn of real argument u for parameter m.

    For 0 <= m < 1, Bulirsch's descending Gauss transformation (Numer.
    Math. 7, 1965; DLMF 22.7(i)).  u is first reduced by the half period,
    u = 2K j + r with |r| <= K, which flips the signs of sn and cn for odd
    j.  With c = a_N = pi/(2K) the end of the AGM chain, t = tan(c r/2)
    and cs = c cot(c r) = c (1 - t^2)/(2t), each level i of the chain with
    c_i > 1e-17 a_i, last first, takes

        q = cs^2,  cs <- cs dn,  dn <- (b_{i-1} a_i + q)/(a_{i-1} a_i + q)

    from dn = 1; then sn(r) = sign(t)/sqrt(1 + cs^2) and cn(r) = cs sn(r).
    One tangent per point; the rest is arithmetic.  Where |t| <= 1e-150
    the squares would overflow, and sn(r) = r, cn(r) = dn(r) = 1 hold to
    rounding.  NaN or +-inf give NaN.  At m = 1, where K is infinite:
    (tanh, sech, sech).  Vectorized over u; scalar in, scalar out.
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
        a_n, levels, inv_two_k, c1, c2 = _complete(m)[3:]
        j = np.multiply(u_arr, inv_two_k)
        np.rint(j, out=j)
        # r = u - 2K j; j c1 is exact, and so is u - j c1 (Sterbenz)
        r = np.multiply(j, c1)
        np.subtract(u_arr, r, out=r)
        work = np.multiply(j, c2)
        r -= work
        t = np.multiply(r, 0.5 * a_n)
        np.tan(t, out=t)
        q = np.multiply(t, t)
        tiny = np.flatnonzero(q <= _TINY * _TINY)
        if tiny.size:
            t[tiny] = q[tiny] = 1.0
        # cs = c cot(c r) = c (1 - t^2)/(2t)
        cs = np.subtract(1.0, q, out=q)
        cs *= np.divide(0.5 * a_n, t, out=work)
        q, num, dn = work, np.empty_like(cs), None
        for aa, ba in levels:
            np.multiply(cs, cs, out=q)
            if dn is None:          # the first level starts from dn = 1
                dn = np.empty_like(cs)
            else:
                cs *= dn
            np.add(q, ba, out=num)
            q += aa
            np.divide(num, q, out=dn)
        if dn is None:              # no level: dn = 1, and NaN where cs is
            dn = cs * 0.0 + 1.0
        # sn(u) has the sign of (-1)^j t, which (1/4 - (j/2 mod 1)) t carries
        sign = np.multiply(j, 0.5, out=num)
        np.subtract(np.floor(sign, out=q), sign, out=sign)
        sign += 0.25
        sign *= t
        sn = np.multiply(cs, cs, out=q)
        sn += 1.0
        np.sqrt(sn, out=sn)
        np.divide(1.0, sn, out=sn)
        np.copysign(sn, sign, out=sn)
        cn = np.multiply(cs, sn, out=cs)
        if tiny.size:
            # sn(r) = r and cn(r) = 1 there; with t = 1, sign is (-1)^j; and
            # j = 0 leaves r = u but for the sign of a zero
            flip = np.where(np.signbit(sign[tiny]), -1.0, 1.0)
            sn[tiny] = np.where(j[tiny] == 0.0, u_arr[tiny], flip * r[tiny])
            cn[tiny] = flip
            dn[tiny] = 1.0

    if scalar:
        return float(sn[0]), float(cn[0]), float(dn[0])
    return sn, cn, dn


def sech(z):
    """sech(z) = cn(z, 1) = dn(z, 1), overflow-free for any real z."""
    e = np.exp(-np.abs(z))
    return 2.0 * e / (1.0 + e * e)
