"""Tests for the photon-number channel kernels and classical channel."""

from __future__ import annotations

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import gammaln
from scipy.stats import binom, nbinom

from gauss_purify.channels import (
    AMPLIFY,
    ATTENUATE,
    ClassicalGaussian,
    amplify_kernel,
    attenuate_kernel,
    channel_s_tilde,
    classical_channel,
    fock_ancilla_outputs,
    gain_matrix,
    gaussian_noise_topup,
    normalize_kind,
    thinning_matrix,
)
from gauss_purify.fock import l1_distance, thermal_state, vacuum_state
from gauss_purify.oracles import _channel_outputs, _thermal_cutoff

att_ks = st.floats(min_value=0.05, max_value=0.95)
amp_ks = st.floats(min_value=1.05, max_value=3.0)


def test_normalize_kind():
    assert normalize_kind("att") == ATTENUATE
    assert normalize_kind("Amplify") == AMPLIFY
    with pytest.raises(ValueError):
        normalize_kind("squeeze")


def test_regime_bounds_enforced():
    with pytest.raises(ValueError):
        thinning_matrix(1.0, 5)
    with pytest.raises(ValueError):
        gain_matrix(1.0, 5, 10)
    with pytest.raises(ValueError):
        channel_s_tilde("att", 1.0, 0.5)


def test_thinning_matches_binomial_pmf():
    # column n is Binomial(n, k^2) thinning
    k = 0.6
    mat = thinning_matrix(k, 30)
    for n in (0, 1, 7, 30):
        want = binom.pmf(np.arange(31), n, k * k)
        assert np.max(np.abs(mat[:, n] - want)) < 1e-13


def test_gain_matches_negative_binomial_pmf():
    k = 1.4
    G = k * k
    mat = gain_matrix(k, 20, 120)
    m = np.arange(121)
    for n in (0, 3, 20):
        # m - n extra photons, n + 1 successes at probability 1/G
        want = np.zeros(121)
        want[n:] = nbinom.pmf(m[n:] - n, n + 1, 1.0 / G)
        assert np.max(np.abs(mat[:, n] - want)) < 1e-13
    # an output cutoff well past the bulk leaves every column stochastic
    assert np.max(np.abs(mat.sum(axis=0) - 1.0)) < 1e-12


@given(k=att_ks)
@settings(max_examples=40)
def test_thinning_columns_stochastic(k):
    mat = thinning_matrix(k, 40)
    assert np.max(np.abs(mat.sum(axis=0) - 1.0)) < 1e-12


@given(k1=att_ks, k2=att_ks)
@settings(max_examples=30)
def test_thinning_semigroup(k1, k2):
    # thinning by k1 then k2 equals thinning by k1 k2
    a = thinning_matrix(k1, 25)
    b = thinning_matrix(k2, 25)
    c = thinning_matrix(k1 * k2, 25)
    assert np.max(np.abs(b @ a - c)) < 1e-12


def test_attenuate_thermal_closure():
    k, s1 = 0.7, 0.6
    st_val = channel_s_tilde(ATTENUATE, s1, k)
    out = attenuate_kernel(k, thermal_state(s1, 300))
    target = thermal_state(st_val, 300)
    # closure is exact; only the input truncation separates the two
    assert l1_distance(out, target).value < 5e-12


def test_attenuate_s_tilde_halves_worked_value():
    assert abs(channel_s_tilde(ATTENUATE, 0.8, 0.5) - 0.5) < 1e-15


def test_amplify_thermal_closure():
    k, s1 = 1.5, 0.3
    st_val = channel_s_tilde(AMPLIFY, s1, k)
    out = amplify_kernel(k, thermal_state(s1, 250))
    target = thermal_state(st_val, out.cutoff)
    assert l1_distance(out, target).value < 5e-12


def test_amplify_vacuum_gives_thermal():
    # gain 2 on vacuum: geometric with s = 1 - 1/G = 0.5
    out = amplify_kernel(math.sqrt(2.0), vacuum_state())
    target = thermal_state(0.5, out.cutoff)
    assert np.max(np.abs(out.probs - target.probs)) < 1e-14


def test_amplify_worked_s_tilde():
    assert abs(channel_s_tilde(AMPLIFY, 0.4, math.sqrt(2.0)) - 0.7) < 1e-15


def test_amplify_auto_cutoff_certifies_loss():
    out = amplify_kernel(2.0, thermal_state(0.5, 80))
    src_tail = thermal_state(0.5, 80).tail_bound
    assert out.tail_bound - src_tail <= 1e-13


def test_amplify_pinned_cutoff_measures_loss():
    out = amplify_kernel(2.0, vacuum_state(), out_cutoff=10)
    # geometric tail of s = 0.75 beyond 10
    assert abs(out.tail_bound - 0.75**11) < 1e-12


@given(s1=st.floats(min_value=0.0, max_value=0.9), k=att_ks)
@settings(max_examples=50)
def test_s_tilde_attenuation_shrinks(s1, k):
    st_val = channel_s_tilde(ATTENUATE, s1, k)
    assert 0.0 <= st_val <= s1 + 1e-15


@given(s1=st.floats(min_value=0.0, max_value=0.9), k=amp_ks)
@settings(max_examples=50)
def test_s_tilde_amplification_grows(s1, k):
    st_val = channel_s_tilde(AMPLIFY, s1, k)
    assert s1 - 1e-15 <= st_val < 1.0


@pytest.mark.parametrize(
    "kind, k",
    [(ATTENUATE, 0.3), (ATTENUATE, 0.6), (ATTENUATE, 0.9), (AMPLIFY, 1.2), (AMPLIFY, 1.5), (AMPLIFY, 2.3)],
)
@pytest.mark.parametrize("s1", [0.0, 0.3, 0.7])
def test_fock_ancilla_outputs_match_two_mode_unitary(kind, k, s1):
    # loss followed by amplification, seen from the ancilla, must give
    # what the two-mode beamsplitter or squeezer gives level by level
    outs = fock_ancilla_outputs(kind, k, s1, 4)
    # the input's cut tail (<= 1e-14) bounds what truncation moves any entry
    src = thermal_state(s1, _thermal_cutoff(s1, 1e-14))
    ref, _ = _channel_outputs(kind, k, src.probs[None], np.eye(5), outs.shape[0] - 1)
    assert np.max(np.abs(ref[0].T - outs)) <= 1e-13


@pytest.mark.parametrize("kind, k", [(ATTENUATE, 0.6), (AMPLIFY, 1.4)])
@pytest.mark.parametrize("s1", [0.0, 0.5])
def test_fock_ancilla_vacuum_column_is_thermal(kind, k, s1):
    outs = fock_ancilla_outputs(kind, k, s1, 3)
    want = thermal_state(channel_s_tilde(kind, s1, k), outs.shape[0] - 1).probs
    assert np.max(np.abs(outs[:, 0] - want)) <= 1e-15


def test_noise_topup_worked_values():
    assert abs(gaussian_noise_topup(0.25, 0.5) - 2.0 / 3.0) < 1e-15
    assert gaussian_noise_topup(0.0, 0.5) == 1.0
    assert gaussian_noise_topup(0.3, 0.3) == 0.0
    with pytest.raises(ValueError):
        gaussian_noise_topup(0.6, 0.5)


def test_classical_channel_regimes():
    # below threshold the output variance hits the target exactly
    out = classical_channel(0.8, 1.0, 1.0, ClassicalGaussian(2.0, 1.0))
    assert out.mean == 0.8 * 2.0
    assert abs(out.variance - 1.0) < 1e-15
    # above threshold no noise is added
    out2 = classical_channel(1.5, 1.0, 1.0, ClassicalGaussian(2.0, 1.0))
    assert abs(out2.variance - 1.5**2) < 1e-15


def test_thinning_single_photon_split():
    mat = thinning_matrix(0.5, 1)
    # retention probability is k^2 = 0.25
    assert np.array_equal(mat[:, 0], [1.0, 0.0])
    assert np.allclose(mat[:, 1], [0.75, 0.25], rtol=0, atol=1e-15)


def test_attenuate_worked_thermal_pair():
    out = attenuate_kernel(0.5, thermal_state(0.8, 160))
    want = thermal_state(0.5, 160)
    assert np.max(np.abs(out.probs - want.probs)) <= 1e-12


def test_amplify_worked_thermal_pair():
    out = amplify_kernel(math.sqrt(2.0), thermal_state(0.4, 80))
    want = thermal_state(0.7, out.cutoff)
    assert np.max(np.abs(out.probs - want.probs)) <= 1e-12


def test_gain_matrix_unit_limit_first_order():
    # the k -> 1+ identity limit is approached at first order: the
    # diagonal deficit is 1 - G^-(n+1) ~ 2 (n+1) eps, so the worst
    # entry deviation shrinks linearly with eps
    cutoff = 30
    eye = np.eye(cutoff + 1)
    dev = {
        eps: float(np.max(np.abs(gain_matrix(1.0 + eps, cutoff, cutoff) - eye)))
        for eps in (1e-4, 1e-5, 1e-6)
    }
    assert dev[1e-6] <= 3 * (cutoff + 1) * 2e-6
    assert dev[1e-6] < dev[1e-5] < dev[1e-4]
    assert dev[1e-5] / dev[1e-6] == pytest.approx(10.0, rel=0.05)


def test_fock_ancilla_level_one_worked_weights():
    # att with s1 = 0.5, k = 0.5: N = 1, G = 1.25, eta = 0.6, and the
    # one photon survives the loss with probability 0.6, so
    # P(m) = 0.4 * 0.8 * 0.2^m + 0.6 * 0.64 * m * 0.2^(m-1)
    outs = fock_ancilla_outputs(ATTENUATE, 0.5, 0.5, 1)
    m = np.arange(outs.shape[0])
    want = 0.32 * 0.2**m + 0.384 * m * 0.2 ** np.maximum(m - 1, 0)
    assert np.max(np.abs(outs[:, 1] - want)) <= 1e-15
    assert np.max(np.abs(outs[:4, 1] - [0.32, 0.448, 0.1664, 0.04864])) <= 1e-15
    assert math.fsum(outs[:, 1]) == pytest.approx(1.0, abs=1e-13)


def test_classical_channel_worked_examples():
    low = classical_channel(0.5, 1.0, 1.0, ClassicalGaussian(1.3, 1.0))
    assert low.mean == 0.65
    assert low.variance == 1.0
    same = classical_channel(1.0, 0.7, 0.7, ClassicalGaussian(0.3, 0.7))
    assert same.mean == 0.3
    assert same.variance == 0.7
    high = classical_channel(math.sqrt(2.0), 1.0, 1.0, ClassicalGaussian(0.0, 1.0))
    assert high.mean == 0.0
    assert high.variance == pytest.approx(2.0, abs=1e-15)


def _binomial_mp(n: int, m: int, p: float):
    return mpmath.binomial(n, m) * mpmath.mpf(p) ** m * (1 - mpmath.mpf(p)) ** (n - m)


@pytest.mark.parametrize("k2", [0.25, 0.9025, 1.1025, 1.69, 4.0])
def test_loss_and_gain_entries_match_mpmath(k2):
    # loss P(m|n) = Bin(n, k^2)(m); gain P(m|n) = Bin(m, 1/k^2)(n) / k^2,
    # over inputs n <= 500 and, for gain, outputs m <= 3000.  The
    # log-gamma terms of the upper index `top` cancel, so the relative
    # error grows as eps * lgamma(top + 1).  The tolerance is 1e-12 up to
    # top ~ 250, then 4 eps lgamma(top + 1): 2.3e-12 at top = 500 and
    # 1.9e-11 at top = 3000.  Measured errors stay below 2.2 eps lgamma.
    k = math.sqrt(k2)
    G = k * k
    mat = thinning_matrix(k, 500) if k2 < 1.0 else gain_matrix(k, 500, 3000)
    eps = np.finfo(float).eps
    checked = 0
    with mpmath.workdps(40):
        for n in (0, 1, 2, 7, 64, 233, 500):
            # 50 outputs spread over the column's entries above 1e-300
            rows = np.flatnonzero(mat[:, n] > 1e-300)
            for m in sorted(set(np.linspace(rows[0], rows[-1], 50).astype(int).tolist())):
                want = _binomial_mp(n, m, G) if k2 < 1.0 else _binomial_mp(m, n, 1 / G) / G
                if want <= 1e-300:
                    continue
                tol = max(1e-12, 4 * eps * float(gammaln(max(n, m) + 1)))
                assert abs(mat[m, n] - want) <= tol * want, (n, m)
                checked += 1
    assert checked >= 150
