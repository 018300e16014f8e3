"""Closed-form travelling waves and N-soliton ladders.

Everything is written in the scaled long-wave variables in which the
linear wave speed is 1: alpha measures the amplitude/depth ratio, beta
the squared depth/length ratio.  A profile is stored as coefficients
(A, B, v, D, ...) plus a family tag; the inversion u -> -u is realised
by flipping the sign of alpha together with A (B and v are invariant).
N-soliton ladders come from one tau-function, with exact u and u_t.

Profile derivatives are exact.  Every shape lives in one algebra of
monomials in three variables, closed under differentiation: sn^a cn^b dn^c
of B xi for the elliptic shapes, whose m = 1 case gives the hyperbolic
ones, and g^a tau^b c^d of z = xi/Delta for the Gardner shape, with
g = 1/(1 + B cosh z), tau = B sinh(z) g and c = 1 - g from sech and tanh.
"""
from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .elliptic import _complete, elliptic_K, jacobi_sn_cn_dn, sech

__all__ = [
    "Frame",
    "MediumParams",
    "WaveFamily",
    "TravellingWave",
    "SolitonLadder",
    "make_kdv_soliton",
    "make_soliton_ladder",
    "make_kdv_cnoidal",
    "make_kdv_superposition",
    "make_kdv2_soliton",
    "make_fifth_order_soliton",
    "make_gardner_soliton",
]


class Frame(Enum):
    """Reference frame: FIXED keeps the bare u_x term, MOVING (x - t) drops it."""

    FIXED = "fixed"
    MOVING = "moving"


@dataclass(frozen=True)
class MediumParams:
    """Small parameters of the long-wave expansion.

    alpha: nonlinearity (amplitude/depth); may be negative for inverted waves.
    beta:  dispersion (depth/wavelength squared); always positive.
    tau:   Bond number (surface tension); tau > 1/3 flips the sign of the
           third-derivative dispersion.
    delta: bottom-variation magnitude; 0 means a flat bottom.
    """

    alpha: float
    beta: float
    tau: float = 0.0
    delta: float = 0.0

    def __post_init__(self):
        for name, value in vars(self).items():
            if not math.isfinite(value):
                raise ValueError(f"MediumParams.{name} must be finite, got {value!r}")
        if self.alpha == 0.0:
            raise ValueError("MediumParams.alpha must be nonzero")
        if self.beta <= 0.0:
            raise ValueError(f"MediumParams.beta must be positive, got {self.beta!r}")
        if self.tau < 0.0:
            raise ValueError(f"MediumParams.tau must be >= 0, got {self.tau!r}")
        try:
            beta5 = self.beta5()
        except OverflowError:
            beta5 = math.inf
        if not math.isfinite(beta5):
            raise ValueError(f"MediumParams.beta={self.beta!r} and tau={self.tau!r} give a "
                             "fifth-order coefficient beta5 that is not a finite float")

    def flipped(self) -> "MediumParams":
        """Parameters of the mirror medium: alpha -> -alpha, all else kept."""
        return replace(self, alpha=-self.alpha)

    def beta_prime(self) -> float:
        """Effective third-derivative coefficient (1 - 3 tau) beta / 6."""
        return (1.0 - 3.0 * self.tau) * self.beta / 6.0

    def beta5(self) -> float:
        """Fifth-derivative coefficient (19 - 30 tau - 45 tau^2) beta^2 / 360."""
        return (19.0 - 30.0 * self.tau - 45.0 * self.tau**2) * self.beta**2 / 360.0


class WaveFamily(Enum):
    KDV_SOLITON = "kdv_soliton"
    KDV_CNOIDAL = "kdv_cnoidal"
    KDV_SUPERPOSITION_PLUS = "kdv_superposition_plus"
    KDV_SUPERPOSITION_MINUS = "kdv_superposition_minus"
    KDV2_SOLITON = "kdv2_soliton"
    FIFTH_ORDER_SOLITON = "fifth_order_soliton"
    GARDNER_SOLITON = "gardner_soliton"


@dataclass(frozen=True)
class TravellingWave:
    """A profile u(x, t) = f(x - v t) given by coefficients and a family tag.

    v is always the fixed-frame speed; speed_in() converts.  D is the
    constant offset (zero-mean normalisation for the periodic families).
    m is the elliptic parameter, Delta the Gardner width; both are None
    where they do not apply.
    """

    family: WaveFamily
    A: float
    B: float
    v: float
    D: float = 0.0
    m: float | None = None
    Delta: float | None = None

    def speed_in(self, frame: Frame) -> float:
        return self.v if frame is Frame.FIXED else self.v - 1.0

    def wavelength(self) -> float | None:
        """Spatial period for the periodic families, None for solitary ones."""
        periods = {WaveFamily.KDV_CNOIDAL: 2.0, WaveFamily.KDV_SUPERPOSITION_PLUS: 4.0,
                   WaveFamily.KDV_SUPERPOSITION_MINUS: 4.0}.get(self.family)
        return None if periods is None else periods * elliptic_K(self.m) / abs(self.B)

    def derivatives(self, xi, order: int = 5) -> np.ndarray:
        """f, f', ..., f^(order) at xi, exactly, stacked as rows.

        Every row is linear in A, and D (added to row 0) is proportional
        to A, so the mirrored wave's rows are the exact negations.  A, B,
        D and Delta may be (S, 1) columns against an (S, n) xi, sharing m:
        S waves in one call, each row as its wave alone gives it.
        """
        xi = np.asarray(xi, dtype=float)
        rows = self._monomial_rows(xi, order)
        rows[0] += self.D
        return rows.reshape((order + 1,) + xi.shape)

    def _monomial_rows(self, xi: np.ndarray, order: int) -> np.ndarray:
        m, seed = _seed(self.family, self.m)
        if self.family is WaveFamily.GARDNER_SOLITON:
            # row 0 as 1/(1 + B cosh z): cosh is inf far out, where f is 0,
            # or A at B = 0, where 0 cosh z is no number
            with np.errstate(over="ignore", invalid="ignore"):
                z = np.atleast_1d(xi) / self.Delta
                f = np.where(self.B == 0.0, self.A, self.A / (1.0 + self.B * np.cosh(z)))
            if order == 0:
                return f[None]
            variables = _gardner_variables(z, self.B)[0]
        else:
            w = self.B * xi
            variables = np.stack(jacobi_sn_cn_dn(w.reshape(-1), m))
            # row 0 from the seed's own monomials, so a profile costs no chain
            f = None
            for exps, coef in seed.items():
                term = coef
                for x, e in zip(variables, exps):
                    if e:
                        term = term * (x if e == 1 else x**e)
                f = term if f is None else f + term
            f = f.reshape(w.shape) * self.A
            if order == 0:
                return f[None]
        rows = _monomial_sum(variables, *_derivative_chain(self.family, m, order))
        rows = rows.reshape((order + 1,) + f.shape) * (self.A * self._scales(order, f.ndim))
        # row 0 as a profile has it: the chain may round it otherwise
        rows[0] = f
        return rows

    def _scales(self, order: int, ndim: int) -> np.ndarray:
        """B^k, or Delta^-k for the Gardner shape, k = 0..order, shaped for
        rows of ndim: each wave's own pow, as that wave alone takes it."""
        scale, k = ((self.Delta, -np.arange(order + 1)) if self.family is
                    WaveFamily.GARDNER_SOLITON else (self.B, np.arange(order + 1)))
        return np.array([s ** k for s in np.ravel(scale)]).T.reshape(
            (order + 1,) + (1,) * (ndim - np.ndim(scale)) + np.shape(scale))

    def width_derivatives(self, xi, rows: np.ndarray) -> dict[str, np.ndarray]:
        """d/dB, and for the Gardner shape d/dDelta, of rows[:-1], exactly.

        rows are this wave's derivatives f ... f^(K) at the 1-D xi, or at
        an (S, n) xi for (S, 1) columns of parameters (see derivatives).
        The monomial shapes are functions of B xi and the Gardner shape of
        xi/Delta, so d f^(k)/dB = (k f^(k) + xi f^(k+1))/B, and d/dDelta is
        minus the same over Delta.  The Gardner B is not a width: with
        q = 1/(sech z + B) and sigma = q tanh z, dg/dB = -q g, dtau/dB =
        sigma g and dc/dB = q g, so d f^(k)/dB is q and sigma times two
        monomial tables in (g, tau, c), dividing by neither A nor B.
        """
        xi = np.asarray(xi, dtype=float)
        k = np.arange(len(rows) - 1).reshape((-1,) + (1,) * xi.ndim)
        stretch = k * rows[:-1] + xi * rows[1:]
        if self.family is not WaveFamily.GARDNER_SOLITON:
            return {"B": stretch / self.B}
        order = len(rows) - 2
        z = xi / self.Delta
        variables, q, sigma = _gardner_variables(z, self.B)
        tables = _monomial_sum(variables, *_derivative_chain(self.family, None, order, d_b=True))
        tables = tables.reshape((2, order + 1) + z.shape)
        d_b = (q * tables[0] + sigma * tables[1]) * (self.A * self._scales(order, z.ndim))
        return {"B": d_b, "Delta": -stretch / self.Delta}

    def profile(self, xi):
        """Profile f(xi) as a function of the co-moving coordinate."""
        return self.derivatives(xi, 0)[0]

    def evaluate(self, x, t: float = 0.0, params: MediumParams | None = None,
                 frame: Frame = Frame.FIXED):
        """u at time t in `frame`; a wave's coefficients hold the medium: params is unread."""
        return self.profile(np.asarray(x, dtype=float) - self.speed_in(frame) * t)


@dataclass(frozen=True)
class SolitonLadder:
    """Amplitudes of an interacting N-soliton state, 2 <= N <= 8.

    Amplitudes are strictly ordered by magnitude and share one sign; an
    all-negative ladder is the inverted state, which solves the equation
    with alpha negated.  The tau-function sums 2^N terms, hence the cap.
    """

    amplitudes: tuple[float, ...]

    def __post_init__(self):
        amps = tuple(float(a) for a in self.amplitudes)
        object.__setattr__(self, "amplitudes", amps)
        if not 2 <= len(amps) <= 8:
            raise ValueError("SolitonLadder amplitudes must number 2 to 8 "
                             f"(the tau-function sums 2^N terms), got {len(amps)}")
        if any(a == 0.0 for a in amps):
            raise ValueError("SolitonLadder amplitudes must be nonzero")
        if len({a > 0 for a in amps}) != 1:
            raise ValueError("SolitonLadder amplitudes must share one sign")
        mags = tuple(abs(a) for a in amps)
        if any(m2 <= m1 for m1, m2 in zip(mags, mags[1:])):
            raise ValueError("SolitonLadder amplitudes must increase strictly in magnitude")

    def fields(self, x, t: float, params: MediumParams, frame: Frame = Frame.FIXED):
        """(u, u_t) at time t from Hirota's N-soliton tau-function.

        F = sum over subsets S of the ladder of exp(theta_S), with
        theta_S = sum_{i in S} eta_i + sum_{i<j in S} ln a_ij,
        eta_i = k_i (x - v_i t) + phi_i, k_i = 2 B_i and
        a_ij = ((k_i - k_j)/(k_i + k_j))^2 (Hirota, Phys. Rev. Lett. 27,
        1192, 1971).  The phases phi_i = -(1/2) sum_{j != i} ln a_ij centre
        the interaction at x = t = 0.  With p_S the softmax of theta_S,
        which cannot overflow, K_S = sum k_i and W_S = sum k_i v_i:

            u = c Var_p(K),   u_t = -c E_p[(K - mean K)^2 (W - mean W)],

        c = 4 beta/(3 alpha), both exact.  v_i is the speed in `frame`.
        k_i and v_i read alpha A_i only and c is odd in alpha, so the
        inverted ladder in the mirror medium is the upright one negated,
        bit for bit; make_kdv_soliton refuses A_i against alpha's sign.
        """
        waves = [make_kdv_soliton(params, a) for a in self.amplitudes]
        k = np.array([2.0 * w.B for w in waves])
        v = np.array([w.speed_in(frame) for w in waves])
        n = len(k)
        # ln a_ij, with ln 1 = 0 on the diagonal
        log_a = np.log(((k[:, None] - k) / (k[:, None] + k)) ** 2 + np.eye(n))
        # row s of `member` flags the solitons of subset S = s; K, W and
        # shift are columns over the subsets
        member = (np.arange(2 ** n)[:, None] >> np.arange(n)) & 1
        K = (member * k).sum(axis=1, keepdims=True)
        W = (member * (k * v)).sum(axis=1, keepdims=True)
        # theta_S = K_S x - W_S t + shift_S, where the pair terms and the
        # phases of S add up to -(1/2) sum_{i in S, j not in S} ln a_ij
        shift = -0.5 * (member * ((1 - member) @ log_a)).sum(axis=1, keepdims=True)
        x = np.asarray(x, dtype=float)
        flat = x.reshape(-1)
        var, mixed = np.empty(flat.size), np.empty(flat.size)
        # blocks of x keep the 2^N-row temporaries small
        for lo in range(0, flat.size, 1024):
            block = slice(lo, lo + 1024)
            p = K * flat[block] - (W * t - shift)
            p -= p.max(axis=0)
            np.exp(p, out=p)
            p /= p.sum(axis=0)
            p_dK2 = p * (K - (p * K).sum(axis=0)) ** 2
            var[block] = p_dK2.sum(axis=0)
            mixed[block] = (p_dK2 * (W - (p * W).sum(axis=0))).sum(axis=0)
        c = 4.0 * params.beta / (3.0 * params.alpha)
        return c * var.reshape(x.shape), -c * mixed.reshape(x.shape)

    def evaluate(self, x, t: float, params: MediumParams, frame: Frame = Frame.FIXED):
        """The interacting profile u at time t (see fields)."""
        return self.fields(x, t, params, frame)[0]

    def wavelength(self) -> None:
        """None: a ladder is solitary, not periodic."""
        return None


# --- exact profile derivatives -----------------------------------------------

def _seed(family: WaveFamily, m: float | None) -> tuple[float | None, dict]:
    """(m, f at A = 1 and D = 0 as {(a, b, c): coefficient of sn^a cn^b dn^c});
    for the Gardner shape, m is None and the monomials are g^a tau^b c^c."""
    if family is WaveFamily.GARDNER_SOLITON:
        return None, {(1, 0, 0): 1.0}
    if family in (WaveFamily.KDV_SOLITON, WaveFamily.KDV2_SOLITON):
        return 1.0, {(0, 1, 1): 1.0}
    if family is WaveFamily.FIFTH_ORDER_SOLITON:
        return 1.0, {(0, 2, 2): 1.0}
    if family is WaveFamily.KDV_CNOIDAL:
        return m, {(0, 2, 0): 1.0}
    sign = 1.0 if family is WaveFamily.KDV_SUPERPOSITION_PLUS else -1.0
    return m, {(0, 0, 2): 0.5, (0, 1, 1): 0.5 * sign * math.sqrt(m)}


def _gardner_variables(z: np.ndarray, B):
    """((g, tau, c) stacked, q, sigma) at z, where g = 1/(1 + B cosh z),
    tau = B sinh(z) g and c = 1 - g: with s = sech z and t = tanh z, which
    never overflow, q = 1/(s + B), g = s q, c = B q, tau = c t, sigma = t q.
    The flat B = 0 has g = 1 and c = 0, also where q = cosh z overflows."""
    s, t = sech(z), np.tanh(z)
    flat = B == 0.0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        q = 1.0 / (s + B)
        g = np.where(flat, 1.0, s * q)
        c = np.where(flat, 0.0, B * q)
    return np.stack([g, c * t, c]), q, t * q


# g' = -tau g, tau' = c - tau^2, c' = tau g in d/dz; and d/dB of (g, tau, c)
# as q (-g, 0, g) + sigma (0, g, 0)
_GARDNER_RULE = ({(1, 1, 0): -1.0}, {(0, 0, 1): 1.0, (0, 2, 0): -1.0}, {(1, 1, 0): 1.0})
_GARDNER_D_B = (({(1, 0, 0): -1.0}, {}, {(1, 0, 0): 1.0}), ({}, {(1, 0, 0): 1.0}, {}))


def _monomial_derivative(poly: dict[tuple[int, int, int], float], m: float | None,
                         rule=None) -> dict[tuple[int, int, int], float]:
    """d/dw of a polynomial in three variables by the chain rule, rule[j]
    being variable j's derivative: by default sn' = cn dn, cn' = -sn dn and
    dn' = -m sn cn, or for m None the Gardner shape's _GARDNER_RULE."""
    if rule is None:
        rule = (_GARDNER_RULE if m is None
                else ({(0, 1, 1): 1.0}, {(1, 0, 1): -1.0}, {(1, 1, 0): -m}))
    out: dict[tuple[int, int, int], float] = {}
    for exps, coef in poly.items():
        for j, e in enumerate(exps):
            for shift, factor in (rule[j].items() if e else ()):
                key = tuple(x + y - (i == j) for i, (x, y) in enumerate(zip(exps, shift)))
                term = coef * factor * e
                if term != 0.0:
                    out[key] = out.get(key, 0.0) + term
    return out


@functools.lru_cache(maxsize=64)
def _derivative_chain(family: WaveFamily, m: float | None, order: int,
                      d_b: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """d^k f/dw^k, k = 0..order, w = B xi (xi/Delta for the Gardner shape),
    at A = 1 and D = 0: exponents (a, b, c) by row, and their coefficients,
    one column per k.  With d_b, for the Gardner shape, T1's columns, then
    T2's: d/dB of row k at A = Delta = 1 is q T1_k + sigma T2_k."""
    chain = [_seed(family, m)[1]]
    for _ in range(order):
        chain.append(_monomial_derivative(chain[-1], m))
    if d_b:
        chain = [_monomial_derivative(poly, m, rule) for rule in _GARDNER_D_B for poly in chain]
    monomials = sorted(set().union(*chain))
    exponents = np.array(monomials)
    coefficients = np.array([[poly.get(e, 0.0) for poly in chain] for e in monomials])
    exponents.flags.writeable = coefficients.flags.writeable = False   # shared
    return exponents, coefficients


def _monomial_sum(variables: np.ndarray, exponents: np.ndarray,
                  coefficients: np.ndarray) -> np.ndarray:
    """sum over e of coefficients[e, k] x^a y^b z^c with (a, b, c) =
    exponents[e], at the points of (x, y, z) = variables; one row per k."""
    # every row at a point must not depend on how many points are
    # evaluated with it, so the power table, powers[e, j] = variables[j]
    # ** e, is built by repeated multiplication (an array-exponent pow
    # rounds some entries by the array's size), and the monomials are
    # summed in order by a reduce over the outer axis (numpy sums pairwise
    # only along the contiguous axis, and a BLAS matrix product in blocks)
    variables = variables.reshape(3, -1)
    powers = [np.ones_like(variables), variables]
    for _ in range(2, exponents.max() + 1):
        powers.append(powers[-1] * variables)
    powers = np.stack(powers)
    monomials = (powers[exponents[:, 0], 0] * powers[exponents[:, 1], 1]
                 * powers[exponents[:, 2], 2])
    return np.add.reduce(coefficients[:, :, None] * monomials[:, None], axis=0)


def _finite(wave: TravellingWave) -> TravellingWave:
    """The wave, refused by name if A, B, v or D overflowed (or a division
    by an underflowed medium did): such a wave has no finite samples."""
    for name in ("A", "B", "v", "D"):
        if not math.isfinite(getattr(wave, name)):
            raise ValueError(f"{wave.family.value} coefficient {name} must be finite, "
                             f"got {getattr(wave, name)!r}")
    return wave


def make_kdv_soliton(params: MediumParams, A: float) -> TravellingWave:
    """Solitary wave A sech^2(B(x - vt)), B = sqrt(3 alpha A/(4 beta)),
    v = 1 + alpha A / 2.  Requires alpha*A > 0 (elevation for alpha > 0,
    its mirror for alpha < 0); B and v are invariant under the joint flip."""
    if params.alpha * A <= 0.0:
        raise ValueError(
            f"soliton requires alpha*A > 0, got alpha={params.alpha!r}, A={A!r}")
    B = math.sqrt(3.0 * params.alpha * A / (4.0 * params.beta))
    v = 1.0 + params.alpha * A / 2.0
    return _finite(TravellingWave(WaveFamily.KDV_SOLITON, A=A, B=B, v=v))


def make_soliton_ladder(params: MediumParams, amplitudes) -> SolitonLadder:
    """The interacting state of kdv solitons of these amplitudes (see
    SolitonLadder), refused where make_kdv_soliton refuses one of them."""
    ladder = SolitonLadder(amplitudes)
    for a in ladder.amplitudes:
        make_kdv_soliton(params, a)
    return ladder


def make_kdv_cnoidal(params: MediumParams, A: float, m: float) -> TravellingWave:
    """Cnoidal wave A cn^2(B(x - vt), m) + D with zero spatial mean.

    B = sqrt(3 alpha A/(4 beta m)), D = -(A/m)(E/K + m - 1),
    v = 1 + (alpha/2)(A/m)(2 - m - 3E/K).
    """
    if params.alpha * A <= 0.0:
        raise ValueError(
            f"cnoidal wave requires alpha*A > 0, got alpha={params.alpha!r}, A={A!r}")
    if not 0.0 < m < 1.0:
        raise ValueError(f"cnoidal parameter m must be in (0, 1), got {m!r}")
    ek, excess = _complete(m)[1:3]
    B = math.sqrt(3.0 * params.alpha * A / (4.0 * params.beta * m))
    v = 1.0 + 0.5 * params.alpha * (A / m) * (2.0 - m - 3.0 * ek)
    D = -(A / m) * excess
    return _finite(TravellingWave(WaveFamily.KDV_CNOIDAL, A=A, B=B, v=v, D=D, m=m))


def make_kdv_superposition(params: MediumParams, A: float, m: float,
                           B: float | None = None, sign: int = +1) -> TravellingWave:
    """(A/2)[dn^2(B xi, m) +/- sqrt(m) cn(B xi, m) dn(B xi, m)] + D.

    v = 1 + (alpha A/8)(5 - m - 6E/K) and D = -(A/2)(E/K) (zero mean over
    the 4K period).  It solves the kdv equation at every m where B^2 =
    3 alpha A/(4 beta), the kdv soliton width of A, and at no other B; B
    defaults to that width, which needs alpha*A > 0.  The two signs are
    mutual half-period translates.
    """
    if B is None:
        if params.alpha * A <= 0.0:
            raise ValueError("superposition default width requires alpha*A > 0, "
                             f"got alpha={params.alpha!r}, A={A!r}")
        B = make_kdv_soliton(params, A).B
    if sign not in (+1, -1):
        raise ValueError(f"superposition sign must be +1 or -1, got {sign!r}")
    if B <= 0.0:
        raise ValueError(f"superposition B must be positive, got {B!r}")
    if not 0.0 < m < 1.0:
        raise ValueError(f"superposition parameter m must be in (0, 1), got {m!r}")
    ek = _complete(m)[1]
    v = 1.0 + params.alpha * A / 8.0 * (5.0 - m - 6.0 * ek)
    D = -0.5 * A * ek
    family = (WaveFamily.KDV_SUPERPOSITION_PLUS if sign > 0
              else WaveFamily.KDV_SUPERPOSITION_MINUS)
    return _finite(TravellingWave(family, A=A, B=B, v=v, D=D, m=m))


def make_kdv2_soliton(params: MediumParams) -> TravellingWave:
    """The rigid sech^2 soliton of the second-order equation.

    Writing p = alpha A and q = beta B^2, demanding that A sech^2(B xi)
    cancel the residual termwise leaves two polynomial conditions

        (3/4) p^2 + (43/2) p q - 38 q^2 = 0,
        -3 p + 4 q - 11 p q + (76/3) q^2 = 0,

    and v = 1 + (2/3) q + (38/45) q^2.  Dividing the first by q^2 gives a
    quadratic in c = p/q whose positive root is the only one yielding
    q > 0; amplitude and width are then pinned (no free parameter).
    """
    c = (-43.0 / 2.0 + math.sqrt((43.0 / 2.0) ** 2 + 3.0 * 38.0)) / 1.5
    q = (3.0 * c - 4.0) / (76.0 / 3.0 - 11.0 * c)
    p = c * q
    A = p / params.alpha
    B = math.sqrt(q / params.beta)
    v = 1.0 + (2.0 / 3.0) * q + (38.0 / 45.0) * q * q
    return _finite(TravellingWave(WaveFamily.KDV2_SOLITON, A=A, B=B, v=v))


def make_fifth_order_soliton(params: MediumParams) -> TravellingWave:
    """The rigid sech^4 soliton of the fifth-order equation.

    With b3 = (1 - 3 tau) beta / 6 and b5 = (19 - 30 tau - 45 tau^2)
    beta^2 / 360, the profile A sech^4(B xi) solves the equation iff

        B^2 = -b3 / (52 b5),   alpha A = -1120 b5 B^4,
        v = 1 + 16 b3 B^2 + 256 b5 B^4.

    A real width requires b3 b5 < 0, i.e. surface tension in a narrow
    window above tau = 1/3; outside it the constructor raises.
    """
    b3 = params.beta_prime()
    b5 = params.beta5()
    if b5 == 0.0 or b3 * b5 >= 0.0:
        raise ValueError(
            f"no real sech^4 width: need opposite-sign dispersion coefficients, "
            f"got b3={b3!r}, b5={b5!r} (tau={params.tau!r})")
    B2 = -b3 / (52.0 * b5)
    A = -1120.0 * b5 * B2 * B2 / params.alpha
    v = 1.0 + 16.0 * b3 * B2 + 256.0 * b5 * B2 * B2
    return _finite(TravellingWave(WaveFamily.FIFTH_ORDER_SOLITON, A=A, B=math.sqrt(B2), v=v))


def make_gardner_soliton(params: MediumParams, Delta: float) -> TravellingWave:
    """Gardner soliton u = A / (1 + B cosh((x - vt)/Delta)).

    With beta' = (1 - 3 tau) beta / 6:  A = 4 beta'/(alpha Delta^2),
    B = sqrt(1 - beta'/Delta^2), v = 1 + beta'/Delta^2.  The shape runs
    from bell (B near 1) to table-top (B -> 0+).
    """
    if Delta == 0.0:
        raise ValueError("Gardner width Delta must be nonzero")
    try:
        square = Delta**2
    except OverflowError:
        square = math.inf
    if not sys.float_info.min <= square <= sys.float_info.max:
        raise ValueError(
            f"Gardner width Delta must be finite with Delta**2 a normal float, got {Delta!r}")
    bp = params.beta_prime()
    disc = 1.0 - bp / square
    if disc < 0.0:
        raise ValueError(
            f"Gardner soliton needs beta'/Delta^2 <= 1, got {bp / square!r}")
    A = 4.0 * bp / (params.alpha * square)
    B = math.sqrt(disc)
    v = 1.0 + bp / square
    return _finite(TravellingWave(WaveFamily.GARDNER_SOLITON, A=A, B=B, v=v, Delta=Delta))

