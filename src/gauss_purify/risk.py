"""Thresholds, minimax risks, and rates for thermal-state rescaling.

A rescaling task asks a channel to turn every displaced thermal state
rho(alpha, s1) into rho(k alpha, s2).  It is exactly solvable iff the
rescaled thermal parameter s~ stays at or below s2, which pins down a
threshold k0 for the quantum problem and k0c = sqrt(V2/V1) for the
matching classical Gaussian shift problem.  Above threshold the minimax
risk (worst-case L1 distance to the target) has closed forms.  When both
thresholds are exceeded the two contributions couple into a product-law
L1 distance: a series over photon numbers whose terms are normal-CDF
differences at the density crossover, truncated below rounding and
summed in O(1) on `math` alone.

Qubit purification and dilution enter through a local Gaussian
approximation of displaced spin ensembles: Bloch length r maps to
thermal parameter s = (1 - r)/(1 + r) and shift variance V = 1 - r^2,
the output ensemble carries lam * r.  The largest per-copy rescaling k
with zero risk then yields the optimal copy-number rate k0^2 / lam^2.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Optional

from .params import (
    AMPLIFY,
    ATTENUATE,
    channel_s_tilde,
    check_open_unit,
    check_positive,
    check_thermal,
    kind_for_k,
    normalize_kind,
    ordered,
)

__all__ = [
    "FIG6_SCENARIOS",
    "GaussianProblem",
    "QubitScenario",
    "RiskReport",
    "geometric_l1",
    "gaussian_l1",
    "quantum_threshold",
    "classical_threshold",
    "quantum_minimax_risk",
    "classical_minimax_risk",
    "case4_risk",
    "gaussian_risk",
    "combined_risk",
    "qubit_thresholds",
    "rate_branch",
    "optimal_rate",
]

_SQRT2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)
# the 8-point Gauss-Legendre rule on [-1, 1], as (node, weight) for the
# positive nodes; gaussian_l1 integrates the normal density with it over
# widths below 0.5, where its error is below 1e-20
_GAUSS_LEGENDRE = (
    (0.1834346424956498, 0.362683783378362),
    (0.525532409916329, 0.31370664587788727),
    (0.7966664774136267, 0.22238103445337448),
    (0.9602898564975363, 0.10122853629037626),
)
_NUM = "%.12g"

# The fig-6 purification/dilution scenarios: (name, r0, lam, plotted k
# range as (start, stop, steps)).
FIG6_SCENARIOS = (
    ("fig6a", 1.0 / 3.0, 2.4, (0.02, 1.0, 99)),
    ("fig6b", 0.8, 5.0 / 12.0, (1.0, 2.2, 97)),
    ("fig6c", 0.5, 0.25, (1.0, 2.5, 97)),
)

# The case-4 series stops once the geometric tails that bound its dropped
# terms are below this, far under the rounding of a risk of order 1.
_CASE4_TAIL = 1e-18

# Past the index where the lighter photon-number weight drops below
# 2^-60 of the heavier one, each case-4 term equals A_n + B_n to within
# rounding, so the rest of the series sums in closed form.
_LOG_NEGLIGIBLE = -60.0 * math.log(2.0)

# Case-4 erf sums over at most this many indices are summed term by
# term; longer ones go through Euler-Maclaurin (_euler_maclaurin).
_DIRECT_TERMS = 64

# erf(sqrt(y)) rounds to exactly 1.0 for y >= 36 (erfc(6) ~ 2e-17).
_Y_ONE = 36.0

# Indices next to the sqrt-singular end summed directly before
# Euler-Maclaurin takes over.
_EM_SKIP = 8

# Euler-Maclaurin runs with 8 Bernoulli corrections and is used only
# where its remainder bound is below this, about the rounding of the sum.
_EM_TOL = 1e-15
# B_2k / (2k) for k = 1..8, and |B_16| / 16! for the remainder bound
_BERNOULLI = (1 / 12, -1 / 120, 1 / 252, -1 / 240, 1 / 132, -691 / 32760, 1 / 12, -3617 / 8160)
_BERNOULLI_REM = 3617 / 510 / math.factorial(16)

def _phi(x: float) -> float:
    """Standard normal CDF."""
    return 0.5 * (1.0 + math.erf(x / _SQRT2))


def geometric_l1(sa: float, sb: float) -> tuple[float, int]:
    """L1 distance between the geometric laws (1 - s) s^n for s = sa, sb.

    Returns (distance, m0) where m0 is the largest integer m with
    (1 - hi) hi^m <= (1 - lo) lo^m for hi = max(sa, sb), lo = min;
    the distance is 2 (hi^(m0+1) - lo^(m0+1)), taken through expm1 so
    that it stays accurate in relative terms as lo approaches hi.  At an
    exact weight tie the tied index is kept inside m0; tied terms
    contribute zero, so either convention yields the same distance.
    """
    check_thermal("sa", sa)
    check_thermal("sb", sb)
    if sa == sb:
        return 0.0, 0
    hi, lo = (sa, sb) if sa > sb else (sb, sa)
    m0 = _weight_crossover(hi, lo)
    # expm1(-inf) = -1 is exact at lo = 0
    return 2.0 * hi ** (m0 + 1) * -math.expm1((m0 + 1) * _log_ratio(lo, hi)), m0


def _log_ratio(x: float, y: float) -> float:
    """log(x / y) for x >= 0 and y > 0, to rounding also when x is close to y."""
    if x == 0.0:
        return -math.inf
    if 0.5 * y <= x <= 2.0 * y:
        return math.log1p((x - y) / y)  # x - y is exact here
    return math.log(x) - math.log(y)


def _weight_crossover(hi: float, lo: float) -> int:
    """Largest m with (1 - hi) hi^m <= (1 - lo) lo^m, for hi > lo (0 if none)."""
    if lo == 0.0:
        return 0
    # log-weight gap g(m) = offset + m * slope with slope > 0;
    # m0 is the last index with g(m) <= 0
    slope = _log_ratio(hi, lo)
    offset = _log_ratio(1.0 - hi, 1.0 - lo)
    m0 = max(0, math.floor(-offset / slope))
    while offset + (m0 + 1) * slope <= 0.0:
        m0 += 1
    while m0 > 0 and offset + m0 * slope > 0.0:
        m0 -= 1
    return m0


def gaussian_l1(var_a: float, var_b: float) -> float:
    """L1 distance between centered normals N(0, var_a) and N(0, var_b).

    Accurate to about 1e-15 in relative terms, also as the variances meet.
    """
    check_positive("var_a", var_a)
    check_positive("var_b", var_b)
    if var_a == var_b:
        return 0.0
    hi, lo = (var_a, var_b) if var_a > var_b else (var_b, var_a)
    # squared CDF arguments at the density crossover, from lo / hi alone so
    # that no scale over- or underflows; the gaps on either side add up to the L1
    q = (hi - lo) / hi
    u2 = _log_ratio(hi, lo) / q
    b, a = math.sqrt(u2), math.sqrt(lo / hi * u2)
    width = b * q / (1.0 + math.sqrt(lo / hi))  # b - a, without the cancellation
    if width >= 0.5:
        return 4.0 * (_phi(b) - _phi(a))
    # near the threshold the CDF difference cancels, so integrate the
    # density over [a, b] instead, with the Gauss-Legendre rule
    mid, half = 0.5 * (a + b), 0.5 * width
    total = sum(
        w * (math.exp(-0.5 * (mid - half * x) ** 2) + math.exp(-0.5 * (mid + half * x) ** 2))
        for x, w in _GAUSS_LEGENDRE
    )
    return 4.0 * half * total / _SQRT_2PI


def quantum_threshold(kind: str, s1: float, s2: float) -> float:
    """Largest k with an exact thermal rescaling thermal(s1) -> thermal(s2).

    Attenuation requires s1 >= s2 and gives sqrt(s2 (1-s1) / (s1 (1-s2)));
    amplification requires s1 <= s2 and gives sqrt((1-s1) / (1-s2)).
    Equal parameters sit on both boundaries and give 1.
    """
    kind = normalize_kind(kind)
    check_thermal("s1", s1)
    check_thermal("s2", s2)
    if s1 == s2:
        return 1.0
    if kind == ATTENUATE:
        if s1 < s2:
            raise ValueError("attenuation threshold needs s1 >= s2")
        return math.sqrt(s2 * (1.0 - s1) / (s1 * (1.0 - s2)))
    if s1 > s2:
        raise ValueError("amplification threshold needs s1 <= s2")
    return math.sqrt((1.0 - s1) / (1.0 - s2))


def classical_threshold(V1: float, V2: float) -> float:
    """Largest k with an exact classical rescaling N(u, V1) -> N(k u, V2)."""
    check_positive("V1", V1)
    check_positive("V2", V2)
    return math.sqrt(V2 / V1)


def quantum_minimax_risk(s1: float, s2: float, k: float, kind: str) -> float:
    """Worst-case L1 risk of the optimal covariant rescaling channel.

    Zero whenever the rescaled parameter s~ lands at or below s2 (a
    noise top-up then finishes the job exactly); otherwise the L1
    distance between thermal(s~) and thermal(s2).  k must lie in the
    kind's closed regime (see params.channel_s_tilde).
    """
    check_thermal("s2", s2)
    kind = normalize_kind(kind)
    st = channel_s_tilde(kind, s1, k)
    if st <= s2:
        return 0.0
    # rounding in s~ can land a hair past s2 at k = k0 exactly; the
    # threshold comparison is the authoritative zero test
    if ordered(kind, s1, s2) and k <= quantum_threshold(kind, s1, s2):
        return 0.0
    return geometric_l1(st, s2)[0]


def classical_minimax_risk(V1: float, V2: float, k: float) -> float:
    """Worst-case L1 risk of the optimal classical affine rescaling.

    Zero for k <= sqrt(V2/V1); otherwise the L1 distance between
    N(0, k^2 V1) and N(0, V2).
    """
    check_positive("k", k)
    if k <= classical_threshold(V1, V2):
        return 0.0
    return gaussian_l1(k * k * V1, V2)


def _last_term(s_t: float, s2: float) -> int:
    """Last case-4 term: an n with s_t^(n+1) + s2^(n+1) < _CASE4_TAIL.

    With hi = max(s_t, s2) > 0 the sum is at most 2 hi^(n+1), which is
    below half the cut once n + 1 passes log(_CASE4_TAIL / 4) / log(hi);
    the other half absorbs rounding in the logs, about 1e-14 relative.
    """
    return math.floor(math.log(0.25 * _CASE4_TAIL) / math.log(max(s_t, s2)))


def _erfcx(z: float) -> float:
    """exp(z^2) erfc(z) for z >= 0."""
    if z < 8.0:
        return math.exp(z * z) * math.erfc(z)
    # asymptotic series; its terms fall below 1e-17 long before they turn
    term = total = 1.0
    k = 0
    while abs(term) > 1e-17:
        k += 1
        term *= -(2 * k - 1) / (2.0 * z * z)
        total += term
    return total / (z * math.sqrt(math.pi))


def _kummer(z: float) -> float:
    """Kummer's M(1; 3/2; z) = sum_k (2z)^k / (2k+1)!! for z <= 1.

    For z < -1 it is D(x)/x with Dawson's integral D at x = sqrt(-z),
    summed without cancellation: as exp(-x^2) sum_k x^2k / (k! (2k+1))
    up to x^2 = 40, asymptotically as sum_k (2k-1)!! / (2x^2)^(k+1) above.
    """
    if z >= -1.0:
        term = total = 1.0
        k = 0
        while abs(term) > 1e-17 * total:
            k += 1
            term *= 2.0 * z / (2 * k + 1)
            total += term
        return total
    x2 = -z
    term = total = 1.0
    k = 0
    if x2 > 40.0:
        while term > 1e-17:
            k += 1
            term *= (2 * k - 1) / (2.0 * x2)
            total += term
        return total / (2.0 * x2)
    while term > 1e-17 * total:
        k += 1
        term *= x2 / k
        total += term / (2 * k + 1)
    return math.exp(-x2) * total


def _taylor(w: float, y: float, mu: float, kappa: float, count: int) -> list:
    """Taylor coefficients f_0..f_(count-1) at h = 0 of
    w exp(-mu h) erf(sqrt(y + kappa h)), for y > 0.

    u = w exp(-mu h) d/dh erf(sqrt(y + kappa h)) obeys
    2 (y + kappa h) u' = -(2 (mu + kappa) (y + kappa h) + kappa) u, which
    gives its coefficients by a two-term recurrence, and f' = u - mu f.
    """
    u_prev, u = 0.0, w * kappa * math.exp(-y) / math.sqrt(math.pi * y)
    f = [w * math.erf(math.sqrt(y))]
    for k in range(count - 1):
        f.append((u - mu * f[-1]) / (k + 1))
        u_prev, u = u, -(
            (2.0 * (mu + kappa) * y + kappa * (2 * k + 1)) * u
            + 2.0 * kappa * (mu + kappa) * u_prev
        ) / (2.0 * y * (k + 1))
    return f


def _euler_maclaurin(mu: float, y0: float, kappa: float, m: int) -> tuple[float, float]:
    """Sum over i = 0..m of F(i) = exp(-mu (i - r)) erf(sqrt(y0 + kappa i)).

    y0 > 0 and kappa > 0, so i runs away from the sqrt-singular point;
    r is 0 for mu > 0 and m for mu < 0, so the weight is at most 1.
    Returns (estimate, bound on the Euler-Maclaurin remainder).

    The integral of F is closed form: integrating by parts, it is
    (Psi(0) - Psi(m)) / mu with Psi = weight * (erf(sqrt y) - L(y)), where
    L(y) = exp(-y) chi(y) / sqrt(pi) and chi' - rho chi = y^(-1/2),
    rho = 1 + mu / kappa.  chi is -sqrt(pi/rho) erfcx(sqrt(rho y)) when
    rho y reaches past 1, else 2 sqrt(y) M(1; 3/2; rho y); both ends use
    the same one.  The remainder is at most |B_16|/16! times the integral
    of |F^(16)|, which Leibniz's rule bounds through the derivatives of
    erf(sqrt y) at y0: (-1)^j d^j/dy^j of exp(-y) y^(-1/2) is positive and
    decreasing, so each |G^(j)| integrates to at most |G^(j-1)(0)|.
    """
    order = 2 * len(_BERNOULLI)
    r = 0 if mu > 0.0 else m
    y1 = y0 + kappa * m
    rho = 1.0 + mu / kappa
    if rho > 0.0 and rho * y1 > 1.0:
        def tail(y):
            return -math.exp(-y) * _erfcx(math.sqrt(rho * y)) / math.sqrt(rho)
    else:
        def tail(y):
            return math.exp(-y) * 2.0 * math.sqrt(y / math.pi) * _kummer(rho * y)
    heads = []
    for i, y in ((0, y0), (m, y1)):
        w = math.exp(-mu * (i - r))
        f = _taylor(w, y, mu, kappa, order)
        heads.append((f, f[0] - w * tail(y)))
    (f0, psi0), (f1, psi1) = heads
    total = (psi0 - psi1) / mu + 0.5 * (f0[0] + f1[0])
    for k, coef in enumerate(_BERNOULLI):
        total += coef * (f1[2 * k + 1] - f0[2 * k + 1])
    # remainder: Leibniz over F^(16) = sum_j C(16, j) (-mu)^(16-j) w G^(j)
    g = _taylor(1.0, y0, 0.0, kappa, order)
    a = abs(mu)
    bound = a ** (order - 1) * (-math.expm1(-a * m)) + order * a ** (order - 1)
    binom, fact = order, 1.0
    for j in range(2, order + 1):
        binom = binom * (order - j + 1) // j
        fact *= j - 1
        bound += binom * a ** (order - j) * fact * abs(g[j - 1])
    return total, _BERNOULLI_REM * bound


def _erf_terms(s: float, lo: int, hi: int, a: float, b: float) -> float:
    """Sum of (1 - s) s^n erf(sqrt(a + b n)) over lo <= n < hi, term by term."""
    terms = (s**n * math.erf(math.sqrt(max(a + b * n, 0.0))) for n in range(lo, hi))
    return (1.0 - s) * math.fsum(terms)


def _erf_sum(s: float, lo: int, hi: int, a: float, b: float) -> float:
    """Sum of (1 - s) s^n erf(sqrt(a + b n)) over lo <= n < hi, a + b n > 0.

    Where a + b n >= 36 the erf is 1.0 and the terms sum as a geometric
    series.  The rest is summed term by term when it is short; otherwise
    its _EM_SKIP indices next to the end where a + b n -> 0 are summed
    term by term and the others by Euler-Maclaurin, unless the remainder
    bound exceeds _EM_TOL (s far from 1), where every term is summed.
    """
    if hi - lo <= _DIRECT_TERMS:
        return _erf_terms(s, lo, hi, a, b)
    if b == 0.0:
        # underflowed: this variance is negligible next to the other one
        return math.erf(math.sqrt(a)) * (s**lo - s**hi)
    # a + b n reaches _Y_ONE at n = t
    t = min(max((_Y_ONE - a) / b, lo - 1.0), float(hi))
    if b > 0.0:
        one = max(lo, math.ceil(t))
        total, lo_r, hi_r = s**one - s**hi, lo, one
    else:
        one = min(hi, math.floor(t) + 1)
        total, lo_r, hi_r = s**lo - s**one, one, hi
    if hi_r - lo_r <= _DIRECT_TERMS:
        return total + _erf_terms(s, lo_r, hi_r, a, b)
    mu = -math.log(s)
    m = hi_r - lo_r - _EM_SKIP - 1
    # a + b n > 0 on the run, so _EM_SKIP indices inside its near end it is
    # above _EM_SKIP |b|; the max only undoes rounding in a + b n
    if b > 0.0:
        skip, first = (lo_r, lo_r + _EM_SKIP), lo_r + _EM_SKIP
        value, bound = _euler_maclaurin(mu, max(a + b * first, _EM_SKIP * b), b, m)
    else:
        skip, first = (hi_r - _EM_SKIP, hi_r), lo_r
        value, bound = _euler_maclaurin(-mu, max(a + b * (first + m), -_EM_SKIP * b), -b, m)
    weight = (1.0 - s) * s**first
    if weight * bound > _EM_TOL:
        return total + _erf_terms(s, lo_r, hi_r, a, b)
    return total + weight * value + _erf_terms(s, *skip, a, b)


def case4_risk(s_t: float, s2: float, var1: float, var2: float) -> float:
    """L1 distance between the joint laws when both thresholds are exceeded.

    Computes integral dx sum_n |A_n g1(x) - B_n g2(x)| with weights
    A_n = (1-s_t) s_t^n, B_n = (1-s2) s2^n and g1 = N(0, var1),
    g2 = N(0, var2) densities.  The series stops once the summed
    geometric tails s_t^(n+1) + s2^(n+1), which bound the dropped
    remainder, fall below _CASE4_TAIL = 1e-18; past the index where the
    lighter weight becomes negligible, the terms sum to the weights'
    geometric tails.  Up to there, every part is closed form or O(1):

    - The densities cross at |x| = x_n, and x_n^2 is affine in n.  Where
      x_n^2 <= 0 the term is |A_n - B_n|, a pair of geometric sums split
      at the weight crossover m0 of geometric_l1.
    - The other indices form one run.  There the sign of the term is
      fixed, sigma = sign(var2 - var1), and the term is
      sigma [2 (A_n erf u1 - B_n erf u2) - A_n + B_n] with
      u_i = x_n / sqrt(2 var_i); the erf sums go through _erf_sum.

    The Euler-Maclaurin remainders are kept below 1e-15 each, so the
    result agrees with the full series to about 1e-15.  Runs on math
    alone, in O(1) time for any s_t, s2 < 1.
    """
    check_thermal("s_t", s_t)
    check_thermal("s2", s2)
    check_positive("var1", var1)
    check_positive("var2", var2)
    if var1 == var2:
        # common Gaussian factor integrates out term by term
        return geometric_l1(s_t, s2)[0]
    if s_t == s2:
        # common photon-number law factors out of the x integral
        return gaussian_l1(var1, var2)

    last = _last_term(s_t, s2)
    # lighter/heavier weight ratio is log-linear in n: offset + n * slope
    s_lo, s_hi = min(s_t, s2), max(s_t, s2)
    offset = _log_ratio(1.0 - s_lo, 1.0 - s_hi)
    slope = _log_ratio(s_lo, s_hi)
    split = min(last + 1, max(0, math.floor((_LOG_NEGLIGIBLE - offset) / slope) + 1))

    # x_n^2 = 2 var1 var2 / |var1 - var2| * (alpha + beta n), where
    # alpha + beta n = +-log(B_n sig1 / (A_n sig2)), signed like var1 - var2;
    # beta only matters when some n > 0 is summed, i.e. both weights > 0
    sign = 1.0 if var1 > var2 else -1.0
    alpha = sign * (_log_ratio(1.0 - s2, 1.0 - s_t) + 0.5 * _log_ratio(var1, var2))
    beta = sign * (slope if s2 < s_t else -slope) if split > 1 else 0.0
    # densities cross for lo <= n < hi
    if beta > 0.0:
        lo, hi = min(split, max(0, math.floor(-alpha / beta) + 1)), split
    elif beta < 0.0:
        lo, hi = 0, min(split, max(0, math.ceil(-alpha / beta)))
    else:
        lo, hi = 0, split if alpha > 0.0 else 0

    m0 = _weight_crossover(s_hi, s_lo)

    def gap(p: int, q: int) -> float:
        # sum of A_n - B_n over p <= n < q
        return (s_t**p - s_t**q) - (s2**p - s2**q)

    total = 0.0
    for p, q in ((0, lo), (hi, split)):
        if p < q:
            cut = min(max(m0 + 1, p), q)
            total += abs(gap(p, cut)) + abs(gap(cut, q))
    if lo < hi:
        # u_i^2 = x_n^2 / (2 var_i); the term's sign is that of var2 - var1
        c1, c2 = var2 / abs(var1 - var2), var1 / abs(var1 - var2)
        erf_a = _erf_sum(s_t, lo, hi, alpha * c1, beta * c1)
        erf_b = _erf_sum(s2, lo, hi, alpha * c2, beta * c2)
        total -= sign * (2.0 * (erf_a - erf_b) - gap(lo, hi))
    # terms split..last: sum of A_n + B_n
    total += s_t**split - s_t ** (last + 1) + s2**split - s2 ** (last + 1)
    return min(total, 2.0)


@dataclass(frozen=True)
class QubitScenario:
    """Qubit purification/dilution scenario.

    r0_norm is the input Bloch length, lam the output scaling (lam > 1
    purifies, lam < 1 dilutes), and the transformation strength is given
    either as the per-copy rescaling k or as the copy-number rate
    (rate = k^2 / lam^2).  The output Bloch length lam * r0_norm must
    stay below 1: at 1 the output is pure (V2 = 0) and the local Gaussian
    model degenerates.
    """

    r0_norm: float
    lam: float
    k: Optional[float] = None
    rate: Optional[float] = None

    def __post_init__(self):
        check_open_unit("r0_norm", self.r0_norm)
        check_positive("lam", self.lam)
        if self.lam * self.r0_norm >= 1.0:
            raise ValueError(
                f"output Bloch length lam * r0_norm must be below 1, got {self.lam * self.r0_norm}"
            )
        if self.k is not None:
            check_positive("k", self.k)
        if self.rate is not None:
            check_positive("rate", self.rate)
        if self.k is not None and self.rate is not None:
            implied = self.k * self.k / (self.lam * self.lam)
            if abs(self.rate - implied) > 1e-9 * max(1.0, abs(implied)):
                raise ValueError("k and rate are inconsistent (rate = k^2 / lam^2)")

    @property
    def k_value(self) -> float:
        """Per-copy rescaling, derived from the rate when k was not given."""
        if self.k is not None:
            return self.k
        if self.rate is not None:
            return self.lam * math.sqrt(self.rate)
        raise ValueError("scenario carries neither k nor rate")

    # Local Gaussian model of the displaced ensemble
    @property
    def s1(self) -> float:
        return (1.0 - self.r0_norm) / (1.0 + self.r0_norm)

    @property
    def s2(self) -> float:
        rt = self.lam * self.r0_norm
        return (1.0 - rt) / (1.0 + rt)

    @property
    def V1(self) -> float:
        return 1.0 - self.r0_norm * self.r0_norm

    @property
    def V2(self) -> float:
        rt = self.lam * self.r0_norm
        return 1.0 - rt * rt

    @property
    def lambda_tilde(self) -> float:
        """Boundary shrink factor separating the two dilution orderings."""
        return min(1.0, (1.0 - self.r0_norm) / self.r0_norm)


@dataclass(frozen=True)
class GaussianProblem:
    """Phase-invariant Gaussian rescaling problem.

    Input family: displaced thermal(s1) states with classical shift
    variance V1; target: thermal(s2) at shift k alpha with variance V2.
    """

    s1: float
    s2: float
    V1: float
    V2: float
    k: float

    def __post_init__(self):
        check_thermal("s1", self.s1)
        check_thermal("s2", self.s2)
        check_positive("V1", self.V1)
        check_positive("V2", self.V2)
        check_positive("k", self.k)

    @classmethod
    def from_qubit(cls, scenario: QubitScenario) -> "GaussianProblem":
        return cls(
            s1=scenario.s1,
            s2=scenario.s2,
            V1=scenario.V1,
            V2=scenario.V2,
            k=scenario.k_value,
        )


@dataclass(frozen=True)
class RiskReport:
    """Outcome of the four-regime classification at a given k.

    case 1: k within both thresholds, exact simulation, zero risk.
    case 2: only the quantum threshold exceeded; total equals the
        thermal-law L1 distance.
    case 3: only the classical threshold exceeded; total equals the
        Gaussian L1 distance.
    case 4: both exceeded; total is the product-law L1 distance, a
        closed-form series summed to rounding (case4_risk), while
        classical_risk / quantum_risk record the standalone marginal
        distances that bracket it.

    m0 is the photon-number crossover of the thermal-law distance
    (None when the quantum part does not contribute); s_tilde is the
    rescaled thermal parameter at this k.
    """

    case: int
    k0_quantum: float
    k0_classical: float
    s_tilde: Optional[float]
    m0: Optional[int]
    classical_risk: float
    quantum_risk: float
    total_risk: float

    def as_dict(self) -> dict:
        """The fields by name, in the order `risk` prints them."""
        return asdict(self)


def _fmt(value) -> str:
    """One output value (str, int, float or None) as text: 12 significant
    digits for floats and `none` for None (the CLI's spellings)."""
    if value is None:
        return "none"
    if isinstance(value, (str, int)):
        return str(value)
    return _NUM % value


def _threshold_pair(s1: float, s2: float, V1: float, V2: float) -> tuple[float, float]:
    kq = quantum_threshold(ATTENUATE if ordered(ATTENUATE, s1, s2) else AMPLIFY, s1, s2)
    return kq, classical_threshold(V1, V2)


def gaussian_risk(problem: GaussianProblem) -> RiskReport:
    """Classify k against both thresholds and evaluate the total risk.

    Boundary values of k belong to the lower regime (the risk is
    continuous across each threshold, and zero contributions stay
    exactly zero on the boundary itself).
    """
    s1, s2, V1, V2, k = problem.s1, problem.s2, problem.V1, problem.V2, problem.k
    kq, kc = _threshold_pair(s1, s2, V1, V2)
    lo, hi = min(kq, kc), max(kq, kc)
    st = channel_s_tilde(kind_for_k(k), s1, k)
    if k <= lo:
        return RiskReport(1, kq, kc, st, None, 0.0, 0.0, 0.0)
    if k <= hi:
        if kq <= kc:
            dist, m0 = geometric_l1(st, s2)
            return RiskReport(2, kq, kc, st, m0, 0.0, dist, dist)
        dist = classical_minimax_risk(V1, V2, k)
        return RiskReport(3, kq, kc, st, None, dist, 0.0, dist)
    q_dist, m0 = geometric_l1(st, s2)
    c_dist = gaussian_l1(k * k * V1, V2)
    total = case4_risk(st, s2, k * k * V1, V2)
    return RiskReport(4, kq, kc, st, m0, c_dist, q_dist, total)


def combined_risk(scenario: QubitScenario) -> RiskReport:
    """Total minimax risk of a qubit scenario at its rescaling k."""
    return gaussian_risk(GaussianProblem.from_qubit(scenario))


def qubit_thresholds(scenario: QubitScenario) -> tuple[float, float, float]:
    """(k0_quantum, k0_classical, lambda_tilde) of a qubit scenario.

    k0_classical = sqrt((1 - lam^2 r^2) / (1 - r^2)); lambda_tilde =
    min(1, (1 - r)/r) marks where the dilution threshold ordering flips.
    """
    kq, kc = _threshold_pair(scenario.s1, scenario.s2, scenario.V1, scenario.V2)
    return kq, kc, scenario.lambda_tilde


def rate_branch(scenario: QubitScenario) -> str:
    """Which threshold governs the optimal rate of a qubit scenario.

    "purification" (lam > 1), "identity" (lam = 1), "dilution_classical"
    (lam < lambda_tilde) or "dilution_amp" (the remaining dilutions).
    """
    if scenario.lam > 1.0:
        return "purification"
    if scenario.lam == 1.0:
        return "identity"
    if scenario.lam < scenario.lambda_tilde:
        return "dilution_classical"
    return "dilution_amp"


def optimal_rate(scenario: QubitScenario) -> float:
    """Optimal copy-number rate k0^2 / lam^2 with the governing threshold.

    Purification (lam > 1): (1/lam - r) / (lam^2 (1 - r)), the
    attenuation threshold governs.  Dilution (lam < 1): the classical
    threshold governs for lam < lambda_tilde, giving
    (1/lam^2 - r^2) / (1 - r^2), and the amplification threshold
    otherwise, giving (r + 1/lam) / (lam^2 (r + 1)).  lam = 1 returns 1
    (both thresholds equal 1; the formulas share this limit).
    """
    r, lam = scenario.r0_norm, scenario.lam
    branch = rate_branch(scenario)
    if branch == "identity":
        return 1.0
    if branch == "purification":
        return (1.0 / lam - r) / (lam * lam * (1.0 - r))
    if branch == "dilution_classical":
        return (1.0 / (lam * lam) - r * r) / (1.0 - r * r)
    return (r + 1.0 / lam) / (lam * lam * (r + 1.0))
