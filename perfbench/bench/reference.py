"""References computed apart from the program, and the comparisons.

The L1 sums are evaluated with mpmath at 30 significant digits, term by
term, with the dropped tail bounded by the geometric mass beyond the
last term.  Thresholds and the rescaled thermal parameter follow the
paper's formulas, written here again instead of imported.

Tolerances are no tighter than the program's stated error bound: the
case-4 integral promises abs_tol = 1e-8, and the same absolute bound is
used for the closed forms, so a more accurate program still passes.
"""

from __future__ import annotations

import math

import mpmath as mp

mp.mp.dps = 30

# Absolute tolerance of every risk comparison: the package's stated
# case-4 budget.  The reference's own certified tail is added on top.
RISK_TOL = 1e-8
# The reference drops terms once the remaining geometric mass is below this.
REF_TAIL = 1e-13
# %.12g output keeps 12 significant digits.
PRINTED_REL = 1e-11


# --------------------------------------------------------------------------
# formulas in floating point, used to place inputs and classify them


def s_tilde(s1: float, k: float) -> float:
    """Thermal parameter after the kind-matched channel (k <= 1 beamsplitter)."""
    if k <= 1.0:
        return s1 * k * k / (1.0 - s1 + s1 * k * k)
    return 1.0 - (1.0 - s1) / (k * k)


def k_for_s_tilde(s1: float, st: float) -> float:
    """Inverse of s_tilde in k for 0 < s1 < 1."""
    if st <= s1:
        return math.sqrt(st * (1.0 - s1) / (s1 * (1.0 - st)))
    return math.sqrt((1.0 - s1) / (1.0 - st))


def quantum_threshold(s1: float, s2: float) -> float:
    if s1 == s2:
        return 1.0
    if s1 > s2:
        return math.sqrt(s2 * (1.0 - s1) / (s1 * (1.0 - s2)))
    return math.sqrt((1.0 - s1) / (1.0 - s2))


def classical_threshold(V1: float, V2: float) -> float:
    return math.sqrt(V2 / V1)


def qubit_params(r0: float, lam: float) -> tuple[float, float, float, float]:
    """(s1, s2, V1, V2) of the local Gaussian model of a qubit pair."""
    rt = lam * r0
    return (1.0 - r0) / (1.0 + r0), (1.0 - rt) / (1.0 + rt), 1.0 - r0 * r0, 1.0 - rt * rt


def expected_case(kq: float, kc: float, k: float) -> int:
    lo, hi = min(kq, kc), max(kq, kc)
    if k <= lo:
        return 1
    if k <= hi:
        return 2 if kq <= kc else 3
    return 4


def near_boundary(kq: float, kc: float, k: float, rel: float = 1e-9) -> bool:
    return abs(k - kq) <= rel * kq or abs(k - kc) <= rel * kc


# --------------------------------------------------------------------------
# mpmath references


def mp_s_tilde(s1, k):
    s1, k = mp.mpf(s1), mp.mpf(k)
    if k <= 1:
        return s1 * k * k / (1 - s1 + s1 * k * k)
    return 1 - (1 - s1) / (k * k)


def geometric_l1(a: float, b: float) -> tuple:
    """sum_n |(1-a) a^n - (1-b) b^n| and the bound on the dropped terms."""
    a, b = mp.mpf(a), mp.mpf(b)
    if a == b:
        return mp.mpf(0), mp.mpf(0)
    total = mp.mpf(0)
    pa, pb = 1 - a, 1 - b  # weights at n
    ta, tb = a, b  # a^(n+1), b^(n+1): the mass beyond n
    while True:
        total += abs(pa - pb)
        tail = ta + tb
        if tail < REF_TAIL:
            return total, tail
        pa *= a
        pb *= b
        ta *= a
        tb *= b


def gaussian_l1(var_a: float, var_b: float):
    """L1 distance of N(0, var_a) and N(0, var_b) through the density crossover."""
    va, vb = mp.mpf(var_a), mp.mpf(var_b)
    if va == vb:
        return mp.mpf(0)
    hi, lo = (va, vb) if va > vb else (vb, va)
    sa, sb = mp.sqrt(hi), mp.sqrt(lo)
    xs = mp.sqrt(2 * hi * lo * mp.log(sa / sb) / (hi - lo))
    # the narrow density wins inside (-xs, xs), the wide one outside
    inner = (2 * mp.ncdf(xs / sb) - 1) - (2 * mp.ncdf(xs / sa) - 1)
    outer = 2 * mp.ncdf(-xs / sa) - 2 * mp.ncdf(-xs / sb)
    return inner + outer


def _term_l1(A, B, v1, v2, s1, s2):
    """Integral over the line of |A N(0, v1) - B N(0, v2)| for A, B > 0."""
    x2 = 2 * v1 * v2 * mp.log(B * s1 / (A * s2)) / (v1 - v2)
    if x2 <= 0:
        return abs(A - B)  # one weighted density dominates everywhere
    xs = mp.sqrt(x2)
    inner = A * (2 * mp.ncdf(xs / s1) - 1) - B * (2 * mp.ncdf(xs / s2) - 1)
    outer = A * 2 * mp.ncdf(-xs / s1) - B * 2 * mp.ncdf(-xs / s2)
    return abs(inner) + abs(outer)


def case4_l1(st: float, s2: float, var1: float, var2: float) -> tuple:
    """Joint product-law L1 distance, summed per photon number.

    Returns (value, tail) with the dropped terms bounded by tail =
    st^(N+1) + s2^(N+1), the mass of both laws beyond the last term N.
    """
    if var1 == var2:
        return geometric_l1(st, s2)
    if st == s2:
        return gaussian_l1(var1, var2), mp.mpf(0)
    a, b = mp.mpf(st), mp.mpf(s2)
    v1, v2 = mp.mpf(var1), mp.mpf(var2)
    sg1, sg2 = mp.sqrt(v1), mp.sqrt(v2)
    total = mp.mpf(0)
    A, B = 1 - a, 1 - b
    ta, tb = a, b
    while True:
        total += _term_l1(A, B, v1, v2, sg1, sg2)
        tail = ta + tb
        if tail < REF_TAIL:
            return total, tail
        A *= a
        B *= b
        ta *= a
        tb *= b


def risk_reference(s1: float, s2: float, V1: float, V2: float, k: float) -> dict:
    """Expected case and risks of a Gaussian problem at k."""
    kq, kc = quantum_threshold(s1, s2), classical_threshold(V1, V2)
    case = expected_case(kq, kc, k)
    st = mp_s_tilde(s1, k)
    out = {"case": case, "s_tilde": st, "tail": mp.mpf(0)}
    if case == 1:
        out.update(classical=mp.mpf(0), quantum=mp.mpf(0), total=mp.mpf(0))
    elif case == 2:
        q, tail = geometric_l1(st, s2)
        out.update(classical=mp.mpf(0), quantum=q, total=q, tail=tail)
    elif case == 3:
        c = gaussian_l1(k * k * V1, V2)
        out.update(classical=c, quantum=mp.mpf(0), total=c)
    else:
        q, tail_q = geometric_l1(st, s2)
        c = gaussian_l1(k * k * V1, V2)
        total, tail = case4_l1(st, s2, k * k * V1, V2)
        out.update(classical=c, quantum=q, total=total, tail=tail + tail_q)
    return out


def rate_reference(r0: float, lam: float):
    """Optimal rate k0^2 / lam^2 with k0 the largest k of zero risk.

    Zero risk needs k within both thresholds, so k0 = min(k0_q, k0_c).
    """
    s1, s2, V1, V2 = (mp.mpf(x) for x in qubit_params(r0, lam))
    lam_ = mp.mpf(lam)
    if s1 == s2:
        kq = mp.mpf(1)
    elif s1 > s2:
        kq = mp.sqrt(s2 * (1 - s1) / (s1 * (1 - s2)))
    else:
        kq = mp.sqrt((1 - s1) / (1 - s2))
    kc = mp.sqrt(V2 / V1)
    return min(kq, kc) ** 2 / lam_**2, kq, kc


# --------------------------------------------------------------------------
# comparisons


def close(got, want, tol: float) -> bool:
    got = float(got)
    return not math.isnan(got) and abs(got - float(want)) <= tol


def expect_close(failures: list, what: str, got, want, tol: float) -> None:
    if not close(got, want, tol):
        failures.append(f"{what}: got {float(got)!r}, want {float(want)!r} within {tol:.1e}")


def expect(failures: list, what: str, ok: bool) -> None:
    if not ok:
        failures.append(what)


def check_report(failures: list, label: str, params: tuple, got: dict, printed: bool = False) -> None:
    """Compare a risk report (case, s_tilde and the three risks) to the reference.

    params is (s1, s2, V1, V2, k); got maps case, s_tilde, classical_risk,
    quantum_risk, total_risk to the program's values.  printed widens
    the tolerance by the %.12g rounding of CSV output.
    """
    s1, s2, V1, V2, k = params
    kq, kc = quantum_threshold(s1, s2), classical_threshold(V1, V2)
    ref = risk_reference(s1, s2, V1, V2, k)
    rel = PRINTED_REL if printed else 0.0

    def tol(x):
        return RISK_TOL + float(ref["tail"]) + rel * abs(float(x))

    if not near_boundary(kq, kc, k):
        expect(failures, f"{label}: case {got['case']} != expected {ref['case']}", int(got["case"]) == ref["case"])
    expect_close(failures, f"{label} s_tilde", got["s_tilde"], ref["s_tilde"], 1e-12 + rel)
    if ref["case"] == 1 and int(got["case"]) == 1:
        zero = float(got["total_risk"]) == 0.0 and float(got["classical_risk"]) == 0.0 and float(got["quantum_risk"]) == 0.0
        expect(failures, f"{label}: nonzero risk at or below both thresholds", zero)
        return
    if int(got["case"]) != ref["case"]:
        return  # a boundary point: the case may go either way
    for key, ref_key in (("classical_risk", "classical"), ("quantum_risk", "quantum"), ("total_risk", "total")):
        expect_close(failures, f"{label} {key}", got[key], ref[ref_key], tol(ref[ref_key]))
    if ref["case"] == 4:
        c, q, t = float(got["classical_risk"]), float(got["quantum_risk"]), float(got["total_risk"])
        slack = tol(t)
        expect(failures, f"{label}: case-4 total {t!r} below max(classical, quantum)", t >= max(c, q) - slack)
        expect(failures, f"{label}: case-4 total {t!r} above classical + quantum", t <= c + q + slack)
