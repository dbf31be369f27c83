"""Tests for thresholds, closed-form risks, and the regime classifier."""

from __future__ import annotations

import dataclasses
import importlib
import itertools
import math
import subprocess
import sys
import time

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gauss_purify.channels import (
    AMPLIFY,
    ATTENUATE,
    ClassicalGaussian,
    amplify_kernel,
    attenuate_kernel,
    channel_s_tilde,
    classical_channel,
    gain_matrix,
    gaussian_noise_topup,
    thinning_matrix,
)
from gauss_purify.fock import (
    DiagonalFockState,
    displacement_matrix,
    displacement_matrix_element,
    number_state,
    thermal_state,
)
from gauss_purify.oracles import (
    AncillaCandidate,
    ancilla_optimality_search,
    assemble_two_mode_unitary,
    case4_risk_quad,
    check_stochastic_ordering,
    kraus_operators,
    run_verification_suite,
    simulate_channel,
    verify_covariance,
    verify_noise_topup,
)
from gauss_purify.risk import (
    GaussianProblem,
    QubitScenario,
    RiskReport,
    case4_risk,
    classical_minimax_risk,
    classical_threshold,
    combined_risk,
    gaussian_l1,
    gaussian_risk,
    geometric_l1,
    optimal_rate,
    quantum_minimax_risk,
    quantum_threshold,
    qubit_thresholds,
    rate_branch,
)
import gauss_purify.risk as risk_mod
from gauss_purify.risk import _CASE4_TAIL, _fmt, _last_term

thermals = st.floats(min_value=0.0, max_value=0.95)


# --- thresholds ---


def test_quantum_threshold_worked_values():
    assert abs(quantum_threshold(ATTENUATE, 0.8, 0.4) - 0.408248290463863) < 1e-15
    assert abs(quantum_threshold(AMPLIFY, 0.4, 0.8) - math.sqrt(3.0)) < 5e-16


def test_quantum_threshold_equal_is_one():
    assert quantum_threshold(ATTENUATE, 0.5, 0.5) == 1.0
    assert quantum_threshold(AMPLIFY, 0.5, 0.5) == 1.0


def test_quantum_threshold_ordering_errors():
    with pytest.raises(ValueError):
        quantum_threshold(ATTENUATE, 0.3, 0.6)
    with pytest.raises(ValueError):
        quantum_threshold(AMPLIFY, 0.6, 0.3)


@given(s1=thermals, s2=thermals)
@settings(max_examples=80)
def test_quantum_threshold_within_regime(s1, s2):
    if s1 >= s2:
        assert 0.0 <= quantum_threshold(ATTENUATE, s1, s2) <= 1.0
    if s1 <= s2:
        assert quantum_threshold(AMPLIFY, s1, s2) >= 1.0


def test_classical_threshold():
    assert classical_threshold(1.0, 4.0) == 2.0
    with pytest.raises(ValueError):
        classical_threshold(0.0, 1.0)


# --- rescaled thermal parameter ---


def test_s_tilde_worked_values():
    assert abs(channel_s_tilde(ATTENUATE, 0.8, 0.5) - 0.5) < 1e-15
    assert abs(channel_s_tilde(AMPLIFY, 0.4, math.sqrt(2.0)) - 0.7) < 1e-15
    assert channel_s_tilde(ATTENUATE, 0.6, 1.0) == channel_s_tilde(AMPLIFY, 0.6, 1.0) == 0.6


def test_s_tilde_regime_bounds():
    with pytest.raises(ValueError):
        channel_s_tilde(ATTENUATE, 0.5, 1.2)
    with pytest.raises(ValueError):
        channel_s_tilde(AMPLIFY, 0.5, 0.8)


def test_s_tilde_hits_target_at_threshold():
    s1, s2 = 0.8, 0.4
    k0 = quantum_threshold(ATTENUATE, s1, s2)
    assert abs(channel_s_tilde(ATTENUATE, s1, k0) - s2) < 1e-15


@pytest.mark.parametrize(
    "fn, args",
    [
        # outside the regime the formula leaves [0, 1): -1.0 and 0.8 here
        (channel_s_tilde, ("amp", 0.5, 0.5)),
        (channel_s_tilde, ("att", 0.5, 2.0)),
        (quantum_minimax_risk, (0.3, 0.5, 0.5, "amp")),
        (quantum_minimax_risk, (0.5, 0.3, 2.0, "att")),
    ],
)
def test_s_tilde_outside_the_kinds_regime_raises_naming_k(fn, args):
    with pytest.raises(ValueError, match="^k must "):
        fn(*args)


# --- geometric (thermal-law) L1 distance ---


@given(sa=thermals, sb=thermals)
@settings(max_examples=80)
def test_geometric_l1_against_series(sa, sb):
    value, m0 = geometric_l1(sa, sb)
    n = np.arange(4000)
    brute = float(np.abs((1 - sa) * sa**n - (1 - sb) * sb**n).sum())
    assert abs(value - brute) < 1e-12
    assert m0 >= 0


def test_geometric_l1_vacuum_target():
    value, m0 = geometric_l1(0.5, 0.0)
    assert value == 1.0
    assert m0 == 0


def test_geometric_l1_float_tie():
    # (1-s~) s~^m and (1-s2) s2^m tie at m = 1 in exact arithmetic; the
    # float crossover lands on 0 and both crossovers give the same sum
    value, m0 = geometric_l1(0.7, 0.3)
    assert abs(value - 0.8) < 1e-12
    assert m0 in (0, 1)


def test_geometric_l1_adjacent_floats_near_one():
    # weights 2^-53 hi^m and 2^-52 lo^m cross at m = ln 2 / log(hi / lo),
    # where hi^m = 1/2 and lo^m = 1/4; hi / lo itself rounds by half its gap
    value, m0 = geometric_l1(1 - 2**-53, 1 - 2**-52)
    assert abs(value - 0.5) < 1e-9
    assert abs(m0 / (math.log(2) * 2**53) - 1) < 1e-9


@pytest.mark.parametrize("base", [0.1, 0.5, 0.9, 0.99])
@pytest.mark.parametrize("gap", [1e-3, 1e-6, 1e-9, 1e-12])
def test_geometric_l1_near_threshold_is_relatively_accurate(base, gap):
    # hi^(m+1) - lo^(m+1) cancels as lo -> hi; the crossover comes from mpmath too
    hi, lo = base + gap, base
    with mpmath.workdps(60):
        h, l = mpmath.mpf(hi), mpmath.mpf(lo)
        m0 = int(mpmath.floor(mpmath.log((1 - l) / (1 - h)) / mpmath.log(h / l)))
        want = float(2 * (h ** (m0 + 1) - l ** (m0 + 1)))
    value, m = geometric_l1(hi, lo)
    assert m == m0
    assert abs(value - want) < 1e-14 * want


# --- quantum minimax risk ---


def test_quantum_risk_worked_value():
    assert abs(quantum_minimax_risk(0.8, 0.4, 0.5, ATTENUATE) - 0.2) < 1e-12


def test_quantum_risk_zero_at_threshold():
    for kind, s1, s2 in ((ATTENUATE, 0.8, 0.4), (AMPLIFY, 0.4, 0.8)):
        k0 = quantum_threshold(kind, s1, s2)
        assert quantum_minimax_risk(s1, s2, k0, kind) == 0.0


@given(
    s1=st.floats(min_value=0.02, max_value=0.95),
    s2=st.floats(min_value=0.02, max_value=0.95),
    frac=st.floats(min_value=0.05, max_value=1.0),
)
@settings(max_examples=60)
def test_quantum_risk_zero_below_threshold(s1, s2, frac):
    if s1 < s2:
        s1, s2 = s2, s1
    k = frac * quantum_threshold(ATTENUATE, s1, s2)
    assert quantum_minimax_risk(s1, s2, k, ATTENUATE) == 0.0


def test_quantum_risk_strictly_increasing_beyond_threshold():
    s1, s2 = 0.8, 0.4
    k0 = quantum_threshold(ATTENUATE, s1, s2)
    ks = np.linspace(k0, 1.0, 51)[1:]
    risks = [quantum_minimax_risk(s1, s2, k, ATTENUATE) for k in ks]
    assert risks[0] > 0.0
    assert all(b > a for a, b in zip(risks, risks[1:]))


# --- classical minimax risk ---


def test_classical_risk_worked_value():
    got = classical_minimax_risk(1.0, 1.0, math.sqrt(2.0))
    assert abs(got - 0.3321281499670259) < 1e-14


def test_classical_risk_zero_region():
    assert classical_minimax_risk(1.0, 4.0, 1.99) == 0.0
    assert classical_minimax_risk(1.0, 4.0, 2.0) == 0.0


def test_gaussian_l1_symmetry_and_range():
    for va, vb in ((1.0, 2.0), (0.3, 0.31), (5.0, 0.2)):
        d = gaussian_l1(va, vb)
        assert abs(d - gaussian_l1(vb, va)) < 1e-15
        assert 0.0 <= d < 2.0
    assert gaussian_l1(1.3, 1.3) == 0.0
    assert gaussian_l1(1e-300, 1.7e308) == 2.0


@pytest.mark.parametrize("scale", [1e-300, 1e-200, 1.0, 1e200, 1e300])
def test_gaussian_l1_depends_on_the_variance_ratio_alone(scale):
    # the product of the two variances used to underflow or overflow here
    assert abs(gaussian_l1(scale, 2.0 * scale) - 0.3321281499670259) < 1e-15


@pytest.mark.parametrize("base", [1e-3, 1.0, 7.5e4])
@pytest.mark.parametrize("gap", [10.0, 1.0, 0.5, 1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12])
def test_gaussian_l1_near_threshold_is_relatively_accurate(base, gap):
    # Phi(b) - Phi(a) cancels as the variances meet
    hi, lo = base * (1 + gap), base
    with mpmath.workdps(60):
        h, l = mpmath.mpf(hi), mpmath.mpf(lo)
        u2 = mpmath.log(h / l) / ((h - l) / h)
        want = float(4 * (mpmath.ncdf(mpmath.sqrt(u2)) - mpmath.ncdf(mpmath.sqrt(l / h * u2))))
    assert abs(gaussian_l1(hi, lo) - want) < 1e-12 * want
    assert abs(gaussian_l1(lo, hi) - want) < 1e-12 * want


# --- mixed-regime integral ---


def test_case4_matches_quadrature_bracket():
    st_val, s2 = 0.7, 0.3
    v1, v2 = 1.5, 0.9
    total = case4_risk(st_val, s2, v1, v2)
    q = geometric_l1(st_val, s2)[0]
    c = gaussian_l1(v1, v2)
    assert max(q, c) - 1e-8 <= total <= q + c + 1e-8


def test_case4_reduces_to_marginals():
    # equal variances: only the thermal laws differ
    assert abs(case4_risk(0.6, 0.2, 1.1, 1.1) - geometric_l1(0.6, 0.2)[0]) < 1e-12
    # equal thermal parameters: only the shift laws differ
    assert abs(case4_risk(0.4, 0.4, 2.0, 1.0) - gaussian_l1(2.0, 1.0)) < 1e-12


def _case4_mpmath(s_t, s2, var1, var2):
    """Per-term closed-form sum at 30 digits, remainder below 1e-16."""
    with mpmath.workdps(30):
        s_t, s2, v1, v2 = (mpmath.mpf(x) for x in (s_t, s2, var1, var2))
        sig1, sig2 = mpmath.sqrt(v1), mpmath.sqrt(v2)
        total = mpmath.mpf(0)
        pa = pb = mpmath.mpf(1)  # s_t^n and s2^n
        # the dropped terms sum to at most s_t^n + s2^n
        while pa + pb > mpmath.mpf("1e-16"):
            A, B = (1 - s_t) * pa, (1 - s2) * pb
            if A == 0 or B == 0:
                total += A + B
            elif (v1 - v2) * (B * sig1 - A * sig2) <= 0:
                # one density dominates everywhere
                total += abs(A - B)
            else:
                # |A g1 - B g2| changes sign where the densities cross
                x2 = 2 * v1 * v2 * mpmath.log(B * sig1 / (A * sig2)) / (v1 - v2)
                u1 = mpmath.sqrt(x2 / (2 * v1))
                u2 = mpmath.sqrt(x2 / (2 * v2))
                total += abs(A * mpmath.erf(u1) - B * mpmath.erf(u2))
                total += abs(A * mpmath.erfc(u1) - B * mpmath.erfc(u2))
            pa *= s_t
            pb *= s2
        return float(total)


@pytest.mark.parametrize(
    "args",
    [
        (0.7, 0.3, 1.5, 0.9),
        (0.9, 0.85, 0.3, 2.5),
        (0.0, 0.4, 1.2, 0.7),  # s_t = 0
        (0.6, 0.0, 0.8, 1.9),  # s2 = 0
        (0.5, 0.2, 1.0, 1.0 * (1.0 + 1e-6)),  # near-equal variances
        (0.56, 0.55, 1.18, 1.18 * (1.0 - 1e-8)),
        (0.999, 0.3, 1.5, 1.0),  # s~ near 1
        # s~ and s2 near 1: Euler-Maclaurin sums, crossings at the head and the tail
        (0.999, 0.998, 1.5, 1.0),
        (0.999, 0.99, 2.0, 0.5),
        (0.99, 0.995, 1.5, 1.0),
    ],
)
def test_case4_matches_mpmath_series(args):
    assert abs(case4_risk(*args) - _case4_mpmath(*args)) < 1e-14


@pytest.mark.parametrize(
    "args, sign",
    [
        ((0.99995, 0.9999, 1.5, 1.0), -1),  # crossing at the head: summed from its far end
        ((0.9999, 0.99995, 1.5, 1.0), 1),  # crossing at the tail
    ],
)
def test_case4_euler_maclaurin_matches_direct_sum(monkeypatch, args, sign):
    seen = []
    em = risk_mod._euler_maclaurin

    def spy(mu, *rest):
        seen.append(mu)
        return em(mu, *rest)

    monkeypatch.setattr(risk_mod, "_euler_maclaurin", spy)
    fast = case4_risk(*args)
    assert len(seen) == 2 and all(math.copysign(1.0, mu) == sign for mu in seen)
    monkeypatch.setattr(risk_mod, "_DIRECT_TERMS", 10**9)
    assert abs(fast - case4_risk(*args)) < 1e-12
    assert len(seen) == 2


@pytest.mark.parametrize("z", [1.0, 0.3, 1e-9, 0.0, -0.7, -1.5, -12.0, -39.0, -41.0, -400.0])
def test_kummer_matches_mpmath(z):
    want = float(mpmath.hyp1f1(1, 1.5, z))
    assert abs(risk_mod._kummer(z) - want) < 1e-14 * want


@pytest.mark.parametrize("z", [0.0, 0.5, 3.0, 7.9, 8.0, 12.0, 1e3])
def test_erfcx_matches_mpmath(z):
    with mpmath.workdps(30):
        want = float(mpmath.exp(mpmath.mpf(z) ** 2) * mpmath.erfc(z))
    assert abs(risk_mod._erfcx(z) - want) < 5e-14 * want


@given(
    sa=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
    sb=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
)
@settings(max_examples=200)
def test_case4_tails_past_the_last_term_are_below_the_cut(sa, sb):
    if sa == sb == 0.0:
        return
    n = _last_term(sa, sb)
    assert n >= 0
    assert sa ** (n + 1) + sb ** (n + 1) < _CASE4_TAIL


def test_case4_near_unit_s_tilde_is_fast_and_bracketed():
    args = (0.99999, 0.3, 1.5, 1.0)
    t0 = time.perf_counter()
    total = case4_risk(*args)
    elapsed = time.perf_counter() - t0
    q = geometric_l1(args[0], args[1])[0]
    c = gaussian_l1(args[2], args[3])
    assert max(q, c) <= total <= q + c
    assert elapsed < 2.0


def test_case4_nearly_mixed_qubit_finishes():
    # s = (1 - r0)/(1 + r0) -> 1: n (1 - s) becomes an exponential variable
    # and the total settles; r0 = 1e-9 needs ~1e10 terms, summed in O(1)
    totals = []
    for r0 in (1e-4, 1e-5, 1e-6, 1e-9):
        base = QubitScenario(r0, 2.0)
        k = 1.2 * max(qubit_thresholds(base)[:2])
        t0 = time.perf_counter()
        rep = combined_risk(QubitScenario(r0, 2.0, k=k))
        assert time.perf_counter() - t0 < 0.1
        assert rep.case == 4
        totals.append(rep.total_risk)
    assert [round(t, 6) for t in totals] == [0.768619, 0.768602, 0.7686, 0.7686]
    gaps = [a - b for a, b in zip(totals, totals[1:])]
    assert gaps[0] > gaps[1] > gaps[2] > 0.0
    # the 4.4-million-term series, summed term by term until its tails are below 1e-19
    assert abs(case4_risk(0.99999, 0.99998, 1.5, 1.0) - 0.54888197908011) < 1e-12


def test_case4_every_input_is_fast_and_bracketed():
    near_one = [0.0, 0.3, 0.97, 0.999, 1 - 1e-6, 1 - 1e-9, 1 - 2**-52]
    for s_t, s2 in itertools.product(near_one, near_one):
        if s_t == s2:
            continue
        q = geometric_l1(s_t, s2)[0]
        for var1, var2 in ((1.5, 1.0), (0.01, 10.0), (1.0, 1.0 + 1e-9)):
            c = gaussian_l1(var1, var2)
            t0 = time.perf_counter()
            total = case4_risk(s_t, s2, var1, var2)
            assert time.perf_counter() - t0 < 0.1
            assert max(q, c) - 1e-13 <= total <= q + c + 1e-13


def test_cli_import_leaves_out_integrate():
    code = "import sys, gauss_purify.cli; print('scipy.integrate' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert proc.stdout.strip() == "False"


def test_case4_worked_point():
    # dense-regime value cross-checked against a per-term closed form
    sc = QubitScenario(1.0 / 3.0, 2.4, k=0.8)
    rep = combined_risk(sc)
    assert rep.case == 4
    assert abs(rep.total_risk - 0.616117181918463) < 1e-8


# --- qubit scenario mapping ---


def test_qubit_gaussian_maps():
    sc = QubitScenario(1.0 / 3.0, 2.4)
    assert abs(sc.s1 - 0.5) < 1e-15
    assert abs(sc.s2 - 1.0 / 9.0) < 1e-15
    assert abs(sc.V1 - 8.0 / 9.0) < 1e-15
    assert abs(sc.V2 - 0.36) < 1e-15
    assert sc.lambda_tilde == 1.0


def test_qubit_scenario_validation():
    with pytest.raises(ValueError):
        QubitScenario(0.0, 0.5)
    with pytest.raises(ValueError):
        QubitScenario(0.5, 2.5)  # lam * r0 > 1
    with pytest.raises(ValueError, match="lam \\* r0_norm must be below 1"):
        QubitScenario(0.5, 2.0)  # lam * r0 = 1: pure output, V2 = 0
    with pytest.raises(ValueError):
        QubitScenario(0.5, 0.5, k=1.0, rate=9.0)  # inconsistent pair
    sc = QubitScenario(0.5, 0.5, rate=4.0)
    assert abs(sc.k_value - 1.0) < 1e-15


def test_combined_risk_needs_k_or_rate():
    with pytest.raises(ValueError, match="neither k nor rate"):
        combined_risk(QubitScenario(0.5, 0.5))


@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0])
@pytest.mark.parametrize("name", ["V1", "V2", "k"])
def test_gaussian_problem_rejects_nonfinite_or_nonpositive(name, bad):
    params = dict(s1=0.5, s2=0.3, V1=1.0, V2=1.0, k=1.5)
    params[name] = bad
    with pytest.raises(ValueError, match=f"^{name} must be finite and positive"):
        GaussianProblem(**params)


@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0])
@pytest.mark.parametrize("name", ["lam", "k", "rate"])
def test_qubit_scenario_rejects_nonfinite_or_nonpositive(name, bad):
    params = dict(r0_norm=0.5, lam=0.5)
    params[name] = bad
    with pytest.raises(ValueError, match=f"^{name} must be finite and positive"):
        QubitScenario(**params)


def test_nan_reproducers_raise_value_error():
    # NaN used to reach the quadrature (V2) or come back as a nan rate (lam)
    with pytest.raises(ValueError, match="^V2 "):
        gaussian_risk(GaussianProblem(0.5, 0.3, 1.0, math.nan, 1.5))
    with pytest.raises(ValueError, match="^lam "):
        optimal_rate(QubitScenario(0.5, math.nan))


def _two_level_state(probs, tail_bound=0.0):
    """DiagonalFockState([probs, 0.5]): a bad value lands in one entry of the law."""
    return DiagonalFockState([probs, 0.5], tail_bound=tail_bound)


def _one_level_ancilla(probs):
    """AncillaCandidate([probs]): the bad value is the whole law."""
    return AncillaCandidate(np.array([probs]))


def _two_level_ancilla(probs):
    """AncillaCandidate([0.5, probs]): a bad value in one level."""
    return AncillaCandidate(np.array([0.5, probs]))


def _amp_s_tilde(s1, k):
    """channel_s_tilde for amplification; a direct row would share the attenuation row's IDs."""
    return channel_s_tilde(AMPLIFY, s1, k)


def _one_point_covariance(alpha_grid):
    """verify_covariance on the one-point grid [alpha_grid]."""
    return verify_covariance(ATTENUATE, 0.5, [alpha_grid], s1=0.3, in_cutoff=6)


_NONFINITE = (math.nan, math.inf, -math.inf)


_NONFINITE_CASES = [
    (thermal_state, dict(s=0.5, cutoff=5), ["s"]),
    (_two_level_state, dict(probs=0.5), ["probs"]),
    (DiagonalFockState, dict(probs=[1.0], tail_bound=0.0), ["tail_bound"]),
    (channel_s_tilde, dict(kind="att", s1=0.5, k=0.5), ["s1", "k"]),
    (gaussian_noise_topup, dict(s_tilde=0.2, s2=0.5), ["s_tilde", "s2"]),
    (
        classical_channel,
        dict(k=0.5, V1=1.0, V2=1.0, x=ClassicalGaussian(0.0, 1.0)),
        ["k", "V1", "V2"],
    ),
    (gaussian_l1, dict(var_a=1.0, var_b=2.0), ["var_a", "var_b"]),
    (classical_threshold, dict(V1=1.0, V2=2.0), ["V1", "V2"]),
    (classical_minimax_risk, dict(V1=1.0, V2=2.0, k=3.0), ["V1", "V2", "k"]),
    (case4_risk, dict(s_t=0.5, s2=0.3, var1=1.5, var2=1.0), ["s_t", "s2", "var1", "var2"]),
    # k-regime bounds written as comparisons must not let NaN or inf through
    (thinning_matrix, dict(k=0.5, cutoff=5), ["k"]),
    (gain_matrix, dict(k=1.5, in_cutoff=3, out_cutoff=5), ["k"]),
    (attenuate_kernel, dict(k=0.5, state=thermal_state(0.3, 5)), ["k"]),
    (amplify_kernel, dict(k=1.5, state=thermal_state(0.3, 5), out_cutoff=8), ["k"]),
    (_amp_s_tilde, dict(s1=0.5, k=1.5), ["k"]),
    (
        simulate_channel,
        dict(
            kind="amp",
            k=1.5,
            state=thermal_state(0.3, 5),
            ancilla=AncillaCandidate.vacuum(),
            cutoff=8,
        ),
        ["k"],
    ),
    (kraus_operators, dict(kind="amp", k=1.5, in_cutoff=3), ["k"]),
    (assemble_two_mode_unitary, dict(kind="amp", k=1.5, cutoff=3), ["k"]),
    (ClassicalGaussian, dict(mean=0.0, variance=1.0), ["mean", "variance"]),
    (
        case4_risk_quad,
        dict(s_t=0.5, s2=0.3, var1=1.5, var2=1.0),
        ["s_t", "s2", "var1", "var2"],
    ),
    (_one_level_ancilla, dict(probs=1.0), ["probs"]),
    (_two_level_ancilla, dict(probs=0.5), ["probs"]),
    (_one_point_covariance, dict(alpha_grid=0.5), ["alpha_grid"]),
    (displacement_matrix, dict(alpha=0.5, dim=4), ["alpha"]),
    (displacement_matrix_element, dict(m=0, n=1, alpha=0.5), ["alpha"]),
    (
        ancilla_optimality_search,
        dict(kind="att", k=0.6, s1=0.8, s2=0.4, max_level=1, samples=10),
        ["s1", "s2"],
    ),
    # counts: a fourth entry replaces the non-finite values with its own
    (
        ancilla_optimality_search,
        dict(kind="att", k=0.6, s1=0.8, s2=0.4, max_level=1, samples=10),
        ["max_level", "samples", "seed"],
        (-1, 0.5, *_NONFINITE),
    ),
    (
        check_stochastic_ordering,
        dict(kind="amp", k=1.5, s1=0.5, kappa_max=3),
        ["kappa_max"],
        (0, *_NONFINITE),
    ),
    (verify_noise_topup, dict(s_tilde=0.2, s2=0.5, samples=100), ["samples"], (0, -1, *_NONFINITE)),
    (verify_noise_topup, dict(s_tilde=0.2, s2=0.5, samples=100), ["seed"], (-1, 2.5, *_NONFINITE)),
    (
        kraus_operators,
        dict(kind="att", k=0.5, in_cutoff=3),
        ["in_cutoff"],
        (-1, 2.5, *_NONFINITE),
    ),
    (assemble_two_mode_unitary, dict(kind="att", k=0.5, cutoff=3), ["cutoff"], (-1, *_NONFINITE)),
    (thermal_state, dict(s=0.5, cutoff=5), ["cutoff"], (-1, 2.5, *_NONFINITE)),
    (thermal_state(0.3, 5).prob, dict(n=1), ["n"], (-1, 2.5, *_NONFINITE)),
    (number_state, dict(n=1, cutoff=3), ["n", "cutoff"], (-1, 2.5, *_NONFINITE)),
    (displacement_matrix, dict(alpha=0.5, dim=4), ["dim"], (0, 2.5, *_NONFINITE)),
    (
        displacement_matrix_element,
        dict(m=0, n=1, alpha=0.5),
        ["m", "n"],
        (-1, 2.5, *_NONFINITE),
    ),
    (
        simulate_channel,
        dict(
            kind="att",
            k=0.5,
            state=thermal_state(0.3, 5),
            ancilla=AncillaCandidate.vacuum(),
            cutoff=5,
        ),
        ["cutoff"],
        (-1, *_NONFINITE),
    ),
    (thinning_matrix, dict(k=0.5, cutoff=5), ["cutoff"], (-1, 2.5, *_NONFINITE)),
    (
        gain_matrix,
        dict(k=1.5, in_cutoff=3, out_cutoff=5),
        ["in_cutoff", "out_cutoff"],
        (-1, 2.5, *_NONFINITE),
    ),
    (
        amplify_kernel,
        dict(k=1.5, state=thermal_state(0.3, 5), out_cutoff=8),
        ["out_cutoff"],
        (-1, 2.5, *_NONFINITE),
    ),
    (thermal_state(0.3, 3).padded, dict(cutoff=5), ["cutoff"], (-1, 4.5, *_NONFINITE)),
    (
        verify_covariance,
        dict(kind="amp", k=1.2, alpha_grid=[0.3], s1=0.3, in_cutoff=4),
        ["k", "s1"],
    ),
    (
        verify_covariance,
        dict(kind="amp", k=1.2, alpha_grid=[0.3], s1=0.3, in_cutoff=4),
        ["in_cutoff"],
        (-1, 2.5, *_NONFINITE),
    ),
    # a grid with no nonzero point would compare nothing and pass
    (
        verify_covariance,
        dict(kind="amp", k=1.2, alpha_grid=[0.3], s1=0.3, in_cutoff=4),
        ["alpha_grid"],
        ([], [0]),
    ),
    # a law needs one level at least, on one axis
    (DiagonalFockState, dict(probs=[1.0]), ["probs"], ([], [[1.0]])),
    (run_verification_suite, dict(suite="fast"), ["seed"], (-1, 2.5, *_NONFINITE)),
]


@pytest.mark.parametrize(
    "fn, base, name, bad",
    [
        (fn, base, name, bad)
        for fn, base, names, *bads in _NONFINITE_CASES
        for name in names
        for bad in (bads[0] if bads else _NONFINITE)
    ],
    ids=lambda v: v.__name__ if callable(v) else "" if isinstance(v, dict) else str(v),
)
def test_nonfinite_parameters_raise_naming_them(fn, base, name, bad):
    with pytest.raises(ValueError, match=f"^{name} must "):
        fn(**dict(base, **{name: bad}))


@pytest.mark.parametrize(
    "module", ["", ".params", ".fock", ".channels", ".risk", ".sweeps", ".oracles"]
)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module("gauss_purify" + module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def test_package_names_are_the_module_lists():
    import gauss_purify
    from gauss_purify import channels, fock, risk

    assert gauss_purify.__all__ == fock.__all__ + channels.__all__ + risk.__all__
    assert len(set(gauss_purify.__all__)) == len(gauss_purify.__all__)


_LAZY_PACKAGE_CHILD = """
import sys
import gauss_purify
from gauss_purify import cli, params
assert [m for m in sys.modules if m.split(".")[0] == "numpy"] == [], "numpy loaded"
state = gauss_purify.thermal_state(0.3, 5)
assert "thermal_state" in dir(gauss_purify) and "__version__" in dir(gauss_purify)
namespace = {}
exec("from gauss_purify import *", namespace)
assert set(gauss_purify.__all__) <= set(namespace)
try:
    gauss_purify.no_such_name
except AttributeError:
    print(state.cutoff)
"""


def test_package_loads_its_names_on_first_use():
    proc = subprocess.run(
        [sys.executable, "-c", _LAZY_PACKAGE_CHILD], capture_output=True, text=True, check=True
    )
    assert proc.stdout == "5\n"


@pytest.mark.parametrize(
    "value, text",
    [
        (None, "none"),
        ("x", "x"),
        (3, "3"),
        (0.1, "0.1"),
        (np.float64(1 / 3), "0.333333333333"),
        (math.nan, "nan"),
        (math.inf, "inf"),
    ],
)
def test_fmt_spellings(value, text):
    assert _fmt(value) == text


_STDLIB_PARAMS_CHILD = """
import importlib.util, sys
sys.modules["numpy"] = None  # any numpy import now raises ImportError
spec = importlib.util.spec_from_file_location("params", sys.argv[1])
params = importlib.util.module_from_spec(spec)
spec.loader.exec_module(params)
print(params.channel_s_tilde(params.kind_for_k(0.5), 0.8, 0.5))
"""


def test_params_needs_only_the_standard_library():
    import gauss_purify.params

    proc = subprocess.run(
        [sys.executable, "-c", _STDLIB_PARAMS_CHILD, gauss_purify.params.__file__],
        capture_output=True,
        text=True,
        check=True,
    )
    assert float(proc.stdout) == channel_s_tilde(ATTENUATE, 0.8, 0.5)


def test_rate_branch_covers_every_branch():
    assert rate_branch(QubitScenario(1.0 / 3.0, 2.4)) == "purification"
    assert rate_branch(QubitScenario(0.5, 1.0)) == "identity"
    assert rate_branch(QubitScenario(0.8, 0.2)) == "dilution_classical"
    assert rate_branch(QubitScenario(0.8, 0.3)) == "dilution_amp"


def test_qubit_thresholds_worked_values():
    kq, kc, lt = qubit_thresholds(QubitScenario(1.0 / 3.0, 2.4))
    assert abs(kq - 0.3535533905932738) < 1e-15
    assert abs(kc - 0.6363961030678928) < 1e-15
    assert lt == 1.0
    kq, kc, lt = qubit_thresholds(QubitScenario(0.8, 5.0 / 12.0))
    assert abs(kq - 1.3333333333333335) < 1e-15
    assert abs(kc - 1.5713484026367726) < 1e-15
    assert abs(lt - 0.25) < 1e-15


def test_optimal_rate_worked_values():
    assert abs(optimal_rate(QubitScenario(1.0 / 3.0, 2.4)) - 0.0217013888888889) < 1e-15
    assert abs(optimal_rate(QubitScenario(0.8, 5.0 / 12.0)) - 10.24) < 1e-12
    assert optimal_rate(QubitScenario(0.4, 1.0)) == 1.0


@given(
    r=st.floats(min_value=0.05, max_value=0.9),
    lam=st.floats(min_value=1.01, max_value=2.0),
)
@settings(max_examples=60)
def test_optimal_rate_is_threshold_rate_purification(r, lam):
    if lam * r >= 0.999:
        return
    sc = QubitScenario(r, lam)
    kq, _, _ = qubit_thresholds(sc)
    assert abs(optimal_rate(sc) - kq * kq / (lam * lam)) < 1e-12


# --- regime classifier ---


def test_case_classification_fig_targets():
    sc = lambda k: QubitScenario(1.0 / 3.0, 2.4, k=k)
    kq, kc, _ = qubit_thresholds(sc(0.5))
    assert combined_risk(sc(kq * 0.5)).case == 1
    assert combined_risk(sc(kq)).case == 1  # boundary goes to the lower case
    assert combined_risk(sc(0.5)).case == 2
    assert combined_risk(sc(kc)).case == 2
    assert combined_risk(sc(0.8)).case == 4


def test_case3_path():
    rep = combined_risk(QubitScenario(0.5, 0.5, k=1.2))
    assert rep.case == 3
    assert rep.quantum_risk == 0.0
    assert rep.m0 is None
    assert abs(rep.total_risk - 0.06844895482680569) < 1e-12


def test_case2_report_invariants():
    rep = combined_risk(QubitScenario(1.0 / 3.0, 2.4, k=0.36))
    assert rep.case == 2
    assert rep.classical_risk == 0.0
    assert rep.total_risk == rep.quantum_risk
    assert rep.m0 is not None


@given(
    s1=st.floats(min_value=0.05, max_value=0.9),
    s2=st.floats(min_value=0.05, max_value=0.9),
    v1=st.floats(min_value=0.2, max_value=2.0),
    v2=st.floats(min_value=0.2, max_value=2.0),
    k=st.floats(min_value=0.05, max_value=2.5),
)
@settings(max_examples=40, deadline=None)
def test_report_invariants(s1, s2, v1, v2, k):
    rep = gaussian_risk(GaussianProblem(s1, s2, v1, v2, k))
    assert rep.case in (1, 2, 3, 4)
    for r in (rep.classical_risk, rep.quantum_risk, rep.total_risk):
        assert 0.0 <= r <= 2.0
    if rep.case == 1:
        assert rep.total_risk == 0.0
    if rep.case == 2:
        assert rep.classical_risk == 0.0
    if rep.case == 3:
        assert rep.quantum_risk == 0.0
    if rep.case == 4:
        lo = max(rep.classical_risk, rep.quantum_risk) - 1e-8
        hi = rep.classical_risk + rep.quantum_risk + 1e-8
        assert lo <= rep.total_risk <= hi


def test_report_fields_are_in_printed_order():
    # `risk` prints as_dict in field order; the dataclass is the only list
    rep = gaussian_risk(GaussianProblem(0.3, 0.6, 1.0, 2.0, 1.9))
    assert rep.case == 4
    order = ["case", "k0_quantum", "k0_classical", "s_tilde", "m0",
             "classical_risk", "quantum_risk", "total_risk"]
    assert [f.name for f in dataclasses.fields(RiskReport)] == order
    assert list(rep.as_dict()) == order
    assert rep.as_dict() == {name: getattr(rep, name) for name in order}


def test_as_dict_round_trip():
    rep = combined_risk(QubitScenario(0.5, 0.5, k=1.2))
    d = rep.as_dict()
    assert d["case"] == 3
    assert d["m0"] is None
    assert set(d) == {
        "case",
        "k0_quantum",
        "k0_classical",
        "classical_risk",
        "quantum_risk",
        "total_risk",
        "m0",
        "s_tilde",
    }


def test_case2_worked_report_fields():
    rep = gaussian_risk(GaussianProblem(0.8, 0.4, 1.0, 4.0, 0.5))
    assert rep.case == 2
    assert rep.m0 == 0
    assert rep.quantum_risk == pytest.approx(0.2, abs=1e-12)
    assert rep.classical_risk == 0.0
    assert rep.total_risk == rep.quantum_risk


def test_case4_vanishes_when_marginals_match():
    assert case4_risk(0.4, 0.4, 1.3, 1.3) == 0.0


def test_qubit_thresholds_half_half():
    kq, kc, lt = qubit_thresholds(QubitScenario(0.5, 0.5))
    assert kc == pytest.approx(math.sqrt(1.25), rel=1e-14)
    assert kq == pytest.approx(math.sqrt(5.0 / 3.0), rel=1e-12)
    assert lt == 1.0
    # classical constraint bites first whenever lam < lambda_tilde
    assert kc < kq


def test_qubit_thresholds_unit_lambda():
    kq, kc, lt = qubit_thresholds(QubitScenario(0.4, 1.0))
    assert kq == 1.0
    assert kc == 1.0
    assert lt == 1.0
    prob = GaussianProblem.from_qubit(QubitScenario(0.4, 1.0, k=1.0))
    assert prob.s1 == prob.s2
    assert prob.V1 == prob.V2


def test_dilution_branches_meet_at_lambda_tilde():
    r = 0.7
    lt = (1.0 - r) / r
    inner = (lt**-2 - r * r) / (1.0 - r * r)
    outer = (r + 1.0 / lt) / (lt * lt * (r + 1.0))
    assert abs(inner - outer) <= 1e-10
    assert optimal_rate(QubitScenario(r, lt)) == pytest.approx(outer, abs=1e-12)
