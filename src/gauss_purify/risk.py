"""Thresholds, minimax risks, and rates for thermal-state rescaling.

A rescaling task asks a channel to turn every displaced thermal state
rho(alpha, s1) into rho(k alpha, s2).  It is exactly solvable iff the
rescaled thermal parameter s~ stays at or below s2, which pins down a
threshold k0 for the quantum problem and k0c = sqrt(V2/V1) for the
matching classical Gaussian shift problem.  Above threshold the minimax
risk (worst-case L1 distance to the target) has closed forms.  When both
thresholds are exceeded the two contributions couple into a product-law
L1 distance: a series over photon numbers whose terms are normal-CDF
differences at the density crossover, truncated once the geometric
tails certify the remainder.

Qubit purification and dilution enter through a local Gaussian
approximation of displaced spin ensembles: Bloch length r maps to
thermal parameter s = (1 - r)/(1 + r) and shift variance V = 1 - r^2,
the output ensemble carries lam * r.  The largest per-copy rescaling k
with zero risk then yields the optimal copy-number rate k0^2 / lam^2.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

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

# Case-4 series terms are evaluated this many at a time, which bounds
# memory when s~ near 1 needs millions of terms.
_BLOCK = 1 << 16

# Past the index where the lighter photon-number weight drops below
# 2^-60 of the heavier one, each case-4 term equals A_n + B_n to within
# rounding, so the rest of the series sums in closed form.
_LOG_NEGLIGIBLE = -60.0 * math.log(2.0)

# Largest number of case-4 terms summed one by one (about 1 s at ~75 ns
# a term).  s~ and s2 both near 1 need about 20/(1 - s~) of them; such
# inputs are rejected before the loop instead of running for minutes.
_TERM_BUDGET = 1 << 24


def _phi(x: float) -> float:
    """Standard normal CDF."""
    return 0.5 * (1.0 + math.erf(x / _SQRT2))


def geometric_l1(sa: float, sb: float) -> tuple[float, int]:
    """L1 distance between the geometric laws (1 - s) s^n for s = sa, sb.

    Returns (distance, m0) where m0 is the largest integer m with
    (1 - hi) hi^m <= (1 - lo) lo^m for hi = max(sa, sb), lo = min;
    the distance is 2 (hi^(m0+1) - lo^(m0+1)).  At an exact weight tie
    the tied index is kept inside m0; tied terms contribute zero, so
    either convention yields the same distance.
    """
    check_thermal("sa", sa)
    check_thermal("sb", sb)
    if sa == sb:
        return 0.0, 0
    hi, lo = (sa, sb) if sa > sb else (sb, sa)
    if lo == 0.0:
        m0 = 0
    else:
        # log-weight gap g(m) = offset + m * slope with slope > 0;
        # m0 is the last index with g(m) <= 0
        slope = math.log(hi / lo)
        offset = math.log((1.0 - hi) / (1.0 - lo))
        m0 = max(0, math.floor(-offset / slope))
        while offset + (m0 + 1) * slope <= 0.0:
            m0 += 1
        while m0 > 0 and offset + m0 * slope > 0.0:
            m0 -= 1
    return 2.0 * (hi ** (m0 + 1) - lo ** (m0 + 1)), m0


def gaussian_l1(var_a: float, var_b: float) -> float:
    """L1 distance between centered normals N(0, var_a) and N(0, var_b)."""
    check_positive("var_a", var_a)
    check_positive("var_b", var_b)
    if var_a == var_b:
        return 0.0
    hi, lo = (var_a, var_b) if var_a > var_b else (var_b, var_a)
    a, b = math.sqrt(hi), math.sqrt(lo)
    # density crossover; the two CDF gaps on either side add up to the L1
    x_star = math.sqrt(2.0 * hi * lo * math.log(a / b) / (hi - lo))
    return 4.0 * (_phi(x_star / b) - _phi(x_star / a))


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


def _last_term(s_t: float, s2: float, tail_tol: float) -> int:
    """First n with s_t^(n+1) + s2^(n+1) < tail_tol.

    With hi = max(s_t, s2) the sum lies in [hi^(n+1), 2 hi^(n+1)], which
    brackets n in closed form; bisecting the rule itself inside the
    bracket gives the same n as a term-by-term scan.
    """
    log_hi = math.log(max(s_t, s2))
    lo = max(0, math.floor(math.log(tail_tol) / log_hi) - 2)
    hi = max(lo, math.ceil(math.log(0.5 * tail_tol) / log_hi) + 1)
    below = bisect_left(
        range(lo, hi + 1), True, key=lambda n: s_t ** (n + 1) + s2 ** (n + 1) < tail_tol
    )
    return lo + below


def case4_risk(
    s_t: float, s2: float, var1: float, var2: float, abs_tol: float = 1e-8
) -> float:
    """L1 distance between the joint laws when both thresholds are exceeded.

    Computes integral dx sum_n |A_n g1(x) - B_n g2(x)| with weights
    A_n = (1-s_t) s_t^n, B_n = (1-s2) s2^n and g1 = N(0, var1),
    g2 = N(0, var2) densities.  Each term is closed form: the densities
    cross at |x| = x_n, and the term is |A_n erf - B_n erf| inside plus
    |A_n erfc - B_n erfc| outside (|A_n - B_n| when they never cross).
    The series stops at the first n whose summed geometric tails
    s_t^(n+1) + s2^(n+1) fall below abs_tol / 4, which bounds the
    dropped remainder.  Terms are evaluated in numpy blocks up to the
    index where the lighter weight becomes negligible; the terms after
    it sum to the weights' geometric tails in closed form.  Raises
    ValueError naming s_t and s2 when more than 2^24 terms would have
    to be evaluated one by one (both near 1).
    """
    check_thermal("s_t", s_t)
    check_thermal("s2", s2)
    check_positive("var1", var1)
    check_positive("var2", var2)
    check_positive("abs_tol", abs_tol)
    if var1 == var2:
        # common Gaussian factor integrates out term by term
        return geometric_l1(s_t, s2)[0]
    if s_t == s2:
        # common photon-number law factors out of the x integral
        return gaussian_l1(var1, var2)

    last = _last_term(s_t, s2, 0.25 * abs_tol)
    # lighter/heavier weight ratio is log-linear in n: offset + n * slope
    s_lo, s_hi = min(s_t, s2), max(s_t, s2)
    offset = math.log1p(-s_lo) - math.log1p(-s_hi)
    slope = math.log(s_lo / s_hi) if s_lo > 0.0 else -math.inf
    split = min(last + 1, max(0, math.floor((_LOG_NEGLIGIBLE - offset) / slope) + 1))
    if split > _TERM_BUDGET:
        raise ValueError(
            f"s_t = {s_t} and s2 = {s2} are too close to 1: the case-4 series needs "
            f"{split} terms one by one, above the budget of {_TERM_BUDGET}"
        )
    from scipy.special import erf, erfc, xlogy

    sig1, sig2 = math.sqrt(var1), math.sqrt(var2)
    # x_n^2 = scale * (log(B_n / A_n) + log(sig1 / sig2))
    scale = 2.0 * var1 * var2 / (var1 - var2)
    total = 0.0
    for start in range(0, split, _BLOCK):
        n = np.arange(start, min(start + _BLOCK, split))
        log_a = math.log1p(-s_t) + xlogy(n, s_t)
        log_b = math.log1p(-s2) + xlogy(n, s2)
        # no crossing (x_n^2 <= 0) clips to x = 0, where the term is |A - B|
        x = np.sqrt(np.maximum(scale * (log_b - log_a + math.log(sig1 / sig2)), 0.0))
        u1, u2 = x / (_SQRT2 * sig1), x / (_SQRT2 * sig2)
        A, B = np.exp(log_a), np.exp(log_b)
        terms = np.abs(A * erf(u1) - B * erf(u2)) + np.abs(A * erfc(u1) - B * erfc(u2))
        total += float(terms.sum())
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
    stay physical (<= 1).
    """

    r0_norm: float
    lam: float
    k: Optional[float] = None
    rate: Optional[float] = None

    def __post_init__(self):
        check_open_unit("r0_norm", self.r0_norm)
        check_positive("lam", self.lam)
        if self.lam * self.r0_norm > 1.0:
            raise ValueError("output Bloch length lam * r0_norm exceeds 1")
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


def _require_unsaturated(scenario: QubitScenario) -> None:
    # lam * r0 = 1 makes the output pure (V2 = 0) and the Gaussian
    # model degenerate; thresholds and risks are defined strictly inside
    if scenario.lam * scenario.r0_norm >= 1.0:
        raise ValueError("requires lam * r0_norm < 1")


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
        _require_unsaturated(scenario)
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
        closed-form series truncated within abs_tol (case4_risk), while
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


def _threshold_pair(s1: float, s2: float, V1: float, V2: float) -> tuple[float, float]:
    kq = quantum_threshold(ATTENUATE if ordered(ATTENUATE, s1, s2) else AMPLIFY, s1, s2)
    return kq, classical_threshold(V1, V2)


def gaussian_risk(problem: GaussianProblem, abs_tol: float = 1e-8) -> RiskReport:
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
    total = case4_risk(st, s2, k * k * V1, V2, abs_tol)
    return RiskReport(4, kq, kc, st, m0, c_dist, q_dist, total)


def combined_risk(scenario: QubitScenario, abs_tol: float = 1e-8) -> RiskReport:
    """Total minimax risk of a qubit scenario at its rescaling k."""
    return gaussian_risk(GaussianProblem.from_qubit(scenario), abs_tol)


def qubit_thresholds(scenario: QubitScenario) -> tuple[float, float, float]:
    """(k0_quantum, k0_classical, lambda_tilde) of a qubit scenario.

    k0_classical = sqrt((1 - lam^2 r^2) / (1 - r^2)); lambda_tilde =
    min(1, (1 - r)/r) marks where the dilution threshold ordering flips.
    """
    _require_unsaturated(scenario)
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
    _require_unsaturated(scenario)
    r, lam = scenario.r0_norm, scenario.lam
    branch = rate_branch(scenario)
    if branch == "identity":
        return 1.0
    if branch == "purification":
        return (1.0 / lam - r) / (lam * lam * (1.0 - r))
    if branch == "dilution_classical":
        return (1.0 / (lam * lam) - r * r) / (1.0 - r * r)
    return (r + 1.0 / lam) / (lam * lam * (r + 1.0))
