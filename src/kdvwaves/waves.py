"""Closed-form travelling waves and multi-soliton profiles.

Everything is written in the scaled long-wave variables in which the
linear wave speed is 1: alpha measures the amplitude/depth ratio, beta
the squared depth/length ratio.  A profile is stored as coefficients
(A, B, v, D, ...) plus a family tag; the inversion u -> -u is realised
by flipping the sign of alpha together with A (B and v are invariant).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .elliptic import elliptic_E, elliptic_K, jacobi_sn_cn_dn, sech

__all__ = [
    "Frame",
    "MediumParams",
    "WaveFamily",
    "TravellingWave",
    "SolitonLadder",
    "make_kdv_soliton",
    "make_kdv_cnoidal",
    "make_kdv_superposition",
    "make_kdv2_soliton",
    "make_fifth_order_soliton",
    "make_gardner_soliton",
    "soliton_phase",
    "two_soliton",
    "three_soliton",
    "time_derivative",
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
        if self.alpha == 0.0:
            raise ValueError("MediumParams.alpha must be nonzero")
        if self.beta <= 0.0:
            raise ValueError(f"MediumParams.beta must be positive, got {self.beta!r}")
        if self.tau < 0.0:
            raise ValueError(f"MediumParams.tau must be >= 0, got {self.tau!r}")

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
        if self.family is WaveFamily.KDV_CNOIDAL:
            return 2.0 * elliptic_K(self.m) / self.B
        if self.family in (WaveFamily.KDV_SUPERPOSITION_PLUS,
                           WaveFamily.KDV_SUPERPOSITION_MINUS):
            return 4.0 * elliptic_K(self.m) / self.B
        return None

    def profile(self, xi):
        """Profile f(xi) as a function of the co-moving coordinate."""
        xi = np.asarray(xi, dtype=float)
        fam = self.family
        if fam in (WaveFamily.KDV_SOLITON, WaveFamily.KDV2_SOLITON):
            return self.A * sech(self.B * xi) ** 2 + self.D
        if fam is WaveFamily.FIFTH_ORDER_SOLITON:
            return self.A * (sech(self.B * xi) ** 2) ** 2 + self.D
        if fam is WaveFamily.KDV_CNOIDAL:
            _, cn, _ = jacobi_sn_cn_dn(self.B * xi, self.m)
            return self.A * cn * cn + self.D
        if fam in (WaveFamily.KDV_SUPERPOSITION_PLUS,
                   WaveFamily.KDV_SUPERPOSITION_MINUS):
            sgn = 1.0 if fam is WaveFamily.KDV_SUPERPOSITION_PLUS else -1.0
            _, cn, dn = jacobi_sn_cn_dn(self.B * xi, self.m)
            return 0.5 * self.A * (dn * dn + sgn * math.sqrt(self.m) * cn * dn) + self.D
        if fam is WaveFamily.GARDNER_SOLITON:
            # cosh overflows to inf far out in the tail, where A/inf = 0 is the limit
            with np.errstate(over="ignore"):
                return self.A / (1.0 + self.B * np.cosh(xi / self.Delta))
        raise ValueError(f"unknown family {fam!r}")

    def evaluate(self, x, t: float = 0.0, frame: Frame = Frame.FIXED):
        return self.profile(np.asarray(x, dtype=float) - self.speed_in(frame) * t)


@dataclass(frozen=True)
class SolitonLadder:
    """Amplitudes of an interacting 2- or 3-soliton state.

    Amplitudes are strictly ordered by magnitude and share one sign; an
    all-negative ladder is the inverted state, evaluated by negating the
    upright profile (magnitudes + global flag, so the two are exact
    pointwise mirrors).
    """

    amplitudes: tuple[float, ...]

    def __post_init__(self):
        amps = tuple(float(a) for a in self.amplitudes)
        object.__setattr__(self, "amplitudes", amps)
        if len(amps) not in (2, 3):
            raise ValueError(f"SolitonLadder needs 2 or 3 amplitudes, got {len(amps)}")
        if any(a == 0.0 for a in amps):
            raise ValueError("SolitonLadder amplitudes must be nonzero")
        if len({a > 0 for a in amps}) != 1:
            raise ValueError("SolitonLadder amplitudes must share one sign")
        mags = tuple(abs(a) for a in amps)
        if any(m2 <= m1 for m1, m2 in zip(mags, mags[1:])):
            raise ValueError("SolitonLadder amplitudes must increase strictly in magnitude")

    @property
    def inverted(self) -> bool:
        return self.amplitudes[0] < 0.0

    @property
    def magnitudes(self) -> tuple[float, ...]:
        return tuple(abs(a) for a in self.amplitudes)

    def evaluate(self, x, t: float, params: MediumParams):
        """The interacting profile at time t: two_soliton or three_soliton."""
        fn = two_soliton if len(self.amplitudes) == 2 else three_soliton
        return fn(x, t, self, params)


def make_kdv_soliton(params: MediumParams, A: float) -> TravellingWave:
    """Solitary wave A sech^2(B(x - vt)), B = sqrt(3 alpha A/(4 beta)),
    v = 1 + alpha A / 2.  Requires alpha*A > 0 (elevation for alpha > 0,
    its mirror for alpha < 0); B and v are invariant under the joint flip."""
    if params.alpha * A <= 0.0:
        raise ValueError(
            f"soliton requires alpha*A > 0, got alpha={params.alpha!r}, A={A!r}")
    B = math.sqrt(3.0 * params.alpha * A / (4.0 * params.beta))
    v = 1.0 + params.alpha * A / 2.0
    return TravellingWave(WaveFamily.KDV_SOLITON, A=A, B=B, v=v)


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
    ek = elliptic_E(m) / elliptic_K(m)
    B = math.sqrt(3.0 * params.alpha * A / (4.0 * params.beta * m))
    v = 1.0 + 0.5 * params.alpha * (A / m) * (2.0 - m - 3.0 * ek)
    D = -(A / m) * (ek + m - 1.0)
    return TravellingWave(WaveFamily.KDV_CNOIDAL, A=A, B=B, v=v, D=D, m=m)


def make_kdv_superposition(params: MediumParams, A: float, m: float, B: float,
                           sign: int = +1) -> TravellingWave:
    """(A/2)[dn^2(B xi, m) +/- sqrt(m) cn(B xi, m) dn(B xi, m)] + D.

    v = 1 + (alpha A/8)(5 - m - 6E/K) and D = -(A/2)(E/K) (zero mean over
    the 4K period).  B is caller-supplied: the dispersion relation fixing
    it is not part of the closed form here; fit_travelling_wave can solve
    for it.  The two signs are mutual half-period translates.
    """
    if sign not in (+1, -1):
        raise ValueError(f"superposition sign must be +1 or -1, got {sign!r}")
    if B <= 0.0:
        raise ValueError(f"superposition B must be positive, got {B!r}")
    if not 0.0 < m < 1.0:
        raise ValueError(f"superposition parameter m must be in (0, 1), got {m!r}")
    ek = elliptic_E(m) / elliptic_K(m)
    v = 1.0 + params.alpha * A / 8.0 * (5.0 - m - 6.0 * ek)
    D = -0.5 * A * ek
    family = (WaveFamily.KDV_SUPERPOSITION_PLUS if sign > 0
              else WaveFamily.KDV_SUPERPOSITION_MINUS)
    return TravellingWave(family, A=A, B=B, v=v, D=D, m=m)


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
    return TravellingWave(WaveFamily.KDV2_SOLITON, A=A, B=B, v=v)


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
    return TravellingWave(WaveFamily.FIFTH_ORDER_SOLITON, A=A, B=math.sqrt(B2), v=v)


def make_gardner_soliton(params: MediumParams, Delta: float,
                         sign_B: int = +1) -> TravellingWave:
    """Gardner soliton u = A / (1 + B cosh((x - vt)/Delta)).

    With beta' = (1 - 3 tau) beta / 6:  A = 4 beta'/(alpha Delta^2),
    B = sign_B sqrt(1 - beta'/Delta^2), v = 1 + beta'/Delta^2.  The
    shape runs from bell (B near 1) to table-top (B -> 0+).  sign_B = -1
    selects the unbounded branch (the denominator has zeros).
    """
    if Delta == 0.0:
        raise ValueError("Gardner width Delta must be nonzero")
    if sign_B not in (+1, -1):
        raise ValueError(f"sign_B must be +1 or -1, got {sign_B!r}")
    bp = params.beta_prime()
    disc = 1.0 - bp / Delta**2
    if disc < 0.0:
        raise ValueError(
            f"Gardner soliton needs beta'/Delta^2 <= 1, got {bp / Delta**2!r}")
    A = 4.0 * bp / (params.alpha * Delta**2)
    B = sign_B * math.sqrt(disc)
    v = 1.0 + bp / Delta**2
    return TravellingWave(WaveFamily.GARDNER_SOLITON, A=A, B=B, v=v, Delta=Delta)


def soliton_phase(x, t: float, A: float, params: MediumParams):
    """Phase Theta = B (x - v t) of the amplitude-A soliton within a ladder."""
    sol = make_kdv_soliton(params, A)
    return sol.B * (np.asarray(x, dtype=float) - t * sol.v)


def _check_ladder_sign(ladder: SolitonLadder, params: MediumParams):
    if ladder.inverted != (params.alpha < 0.0):
        raise ValueError(
            "ladder amplitudes and alpha must share one sign "
            f"(amplitudes {ladder.amplitudes}, alpha {params.alpha!r})")


def _scaled_sinh_cosh(th):
    """(sinh, cosh) scaled by exp(-|th|): bounded for any real th."""
    e2 = np.exp(-2.0 * np.abs(th))
    sh = 0.5 * np.sign(th) * (1.0 - e2)
    ch = 0.5 * (1.0 + e2)
    return sh, ch, e2


def two_soliton(x, t: float, ladder: SolitonLadder, params: MediumParams):
    """Interacting two-soliton profile.

    The textbook form has coth/csch poles on the Theta_2 = 0 locus;
    multiplying numerator and denominator by sinh^2(Theta_2) (and here
    additionally by exp(-2|Theta_2|)) gives an equivalent expression
    that is finite and overflow-free everywhere.
    """
    if len(ladder.amplitudes) != 2:
        raise ValueError("two_soliton needs a 2-amplitude ladder")
    _check_ladder_sign(ladder, params)
    a1, a2 = ladder.magnitudes
    pos = MediumParams(abs(params.alpha), params.beta, params.tau, params.delta)
    th1 = soliton_phase(x, t, a1, pos)
    th2 = soliton_phase(x, t, a2, pos)
    sh, ch, e2 = _scaled_sinh_cosh(th2)
    num = (a2 - a1) * (a1 * sech(th1) ** 2 * sh * sh + a2 * e2)
    den = (math.sqrt(a1) * np.tanh(th1) * sh - math.sqrt(a2) * ch) ** 2
    u = num / den
    return -u if ladder.inverted else u


def three_soliton(x, t: float, ladder: SolitonLadder, params: MediumParams):
    """Interacting three-soliton profile, regularised like two_soliton.

    The four partial fractions X1..X4 share the denominators
    d2 = sqrt(2A1) tanh Theta1 - sqrt(2A2) coth Theta2 and
    d3 = -sqrt(2A1) tanh Theta1 + sqrt(2A3) tanh Theta3; combining them
    over a common denominator removes both the Theta_2 poles and the
    d3 = 0 crossings (all removable), leaving a globally finite ratio.
    """
    if len(ladder.amplitudes) != 3:
        raise ValueError("three_soliton needs a 3-amplitude ladder")
    _check_ladder_sign(ladder, params)
    a1, a2, a3 = ladder.magnitudes
    pos = MediumParams(abs(params.alpha), params.beta, params.tau, params.delta)
    th1 = soliton_phase(x, t, a1, pos)
    th2 = soliton_phase(x, t, a2, pos)
    th3 = soliton_phase(x, t, a3, pos)
    t1 = np.tanh(th1)
    t3 = np.tanh(th3)
    s1 = sech(th1) ** 2
    s3 = sech(th3) ** 2
    sh, ch, e2 = _scaled_sinh_cosh(th2)
    d2 = math.sqrt(2 * a1) * t1 * sh - math.sqrt(2 * a2) * ch   # x exp(-|th2|)
    d3 = -math.sqrt(2 * a1) * t1 + math.sqrt(2 * a3) * t3
    n1 = a1 * s1 * sh * sh + a2 * e2                            # x exp(-2|th2|)
    n2 = -a1 * s1 + a3 * s3
    num = (a2 - a1) * n1 * d3 * d3 + (a3 - a1) * n2 * d2 * d2
    den = ((a1 - a2) * d3 * sh - (a3 - a1) * d2) ** 2
    u = a1 * s1 - (a2 - a3) * num / den
    return -u if ladder.inverted else u


# 8th-order centred stencil; with h = 0.01 truncation and roundoff balance
# near 1e-13 for order-one amplitudes and speeds.
_FD8_OFFSETS = (-4, -3, -2, -1, 1, 2, 3, 4)
_FD8_WEIGHTS = (1 / 280, -4 / 105, 1 / 5, -4 / 5, 4 / 5, -1 / 5, 4 / 105, -1 / 280)


def time_derivative(profile_fn, x, t: float, h: float = 0.01):
    """d/dt of profile_fn(x, t) by an 8th-order centred difference.

    Used for the multi-soliton states, whose closed forms are awkward to
    differentiate in t analytically.  The stencil is sign-symmetric, so
    a negated profile yields the exactly negated derivative.
    """
    acc = _FD8_WEIGHTS[0] * profile_fn(x, t + _FD8_OFFSETS[0] * h)
    for k, w in zip(_FD8_OFFSETS[1:], _FD8_WEIGHTS[1:]):
        acc = acc + w * profile_fn(x, t + k * h)
    return acc / h
