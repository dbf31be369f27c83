"""Tests for the simulation oracles and the self-check harness.

The heavy cross-validation (large cutoffs, dense grids) lives in the
verification suite; here each oracle is exercised once at a small size
so defects localize quickly.
"""

from __future__ import annotations

import json
import math
import time

import mpmath
import numpy as np
import pytest
from scipy.linalg import expm

from gauss_purify.channels import (
    AMPLIFY,
    ATTENUATE,
    amplify_kernel,
    attenuate_kernel,
    channel_s_tilde,
)
from gauss_purify.fock import number_state, thermal_state, vacuum_state
from gauss_purify import oracles
from gauss_purify.oracles import (
    AncillaCandidate,
    SUITE_NAMES,
    ancilla_optimality_search,
    assemble_two_mode_unitary,
    case4_risk_quad,
    check_stochastic_ordering,
    kraus_operators,
    simulate_channel,
    verify_covariance,
    verify_noise_topup,
)
from gauss_purify.oracles import (
    _bs_block,
    _channel_outputs,
    _check_diagonal_output,
    _check_threshold_exactness,
    _displaced_thermal_pmf,
    _jsonable,
    _report,
    _thermal_cutoff,
    _tms_columns,
)
from gauss_purify import risk as risk_mod
from gauss_purify.risk import case4_risk, quantum_minimax_risk


def test_simulated_attenuation_matches_kernel():
    src = thermal_state(0.5, 40)
    sim = simulate_channel(ATTENUATE, 0.6, src, AncillaCandidate.vacuum(), 40)
    ker = attenuate_kernel(0.6, src)
    assert np.max(np.abs(sim.probs - ker.probs)) < 1e-12


def test_simulated_amplification_matches_kernel():
    src = thermal_state(0.4, 30)
    sim = simulate_channel(AMPLIFY, 1.3, src, AncillaCandidate.vacuum(), 120)
    ker = amplify_kernel(1.3, src, out_cutoff=120)
    assert np.max(np.abs(sim.probs - ker.probs)) < 1e-12


def test_simulated_identity_at_unit_k():
    src = thermal_state(0.5, 25)
    sim = simulate_channel(ATTENUATE, 1.0, src, AncillaCandidate.vacuum(), 25)
    assert np.max(np.abs(sim.probs - src.probs)) == 0.0


def test_simulated_amplifier_vacuum_closure():
    sim = simulate_channel(AMPLIFY, math.sqrt(2.0), vacuum_state(), AncillaCandidate.vacuum(), 150)
    want = thermal_state(0.5, 150).probs
    assert np.max(np.abs(sim.probs - want)) < 1e-13


def _antisymmetric_tridiagonal(sub: np.ndarray) -> np.ndarray:
    """Dense G with G[j+1, j] = sub[j] = -G[j, j+1]."""
    return np.diag(sub, -1) - np.diag(sub, 1)


@pytest.mark.parametrize(
    "a0, b0, k, idx",
    [(0, 0, 1.3, [0]), (4, 0, 1.6, [0, 2, 5]), (0, 3, 2.0, [0, 1, 2, 3]), (9, 0, 1.1, [1])],
)
def test_squeezer_columns_match_dense_expm(a0, b0, k, idx):
    r = math.acosh(k)
    cols = _tms_columns(r, a0, b0, idx)
    # a^dag b^dag |a0+j, b0+j> = sqrt((a0+j+1)(b0+j+1)) |a0+j+1, b0+j+1>
    j = np.arange(cols.shape[0] - 1)
    gen = _antisymmetric_tridiagonal(np.sqrt((a0 + j + 1.0) * (b0 + j + 1.0)))
    want = expm(r * gen)[:, idx]
    assert np.max(np.abs(cols - want)) <= 1e-12
    assert np.max(np.abs(cols.T @ cols - np.eye(len(idx)))) <= 1e-13


@pytest.mark.parametrize("total", [0, 1, 5, 30])
def test_beamsplitter_block_matches_dense_expm(total):
    theta = math.acos(0.6)
    # a b^dag |total-j, j> = sqrt((total-j)(j+1)) |total-j-1, j+1>
    j = np.arange(total)
    gen = -_antisymmetric_tridiagonal(np.sqrt((total - j) * (j + 1.0)))
    block = _bs_block(theta, total)
    assert np.max(np.abs(block - expm(theta * gen))) <= 1e-12
    assert np.max(np.abs(block.T @ block - np.eye(total + 1))) <= 1e-13


def test_ladders_are_exact_identity_at_zero():
    assert np.array_equal(_bs_block(0.0, 7), np.eye(8))
    cols = _tms_columns(0.0, 2, 0, [0, 3])
    assert np.array_equal(cols, np.eye(cols.shape[0])[:, [0, 3]])


@pytest.mark.parametrize("kind, k, cutoff", [(ATTENUATE, 0.7, 16), (AMPLIFY, 1.4, 40)])
def test_batched_outputs_match_separate_simulations(kind, k, cutoff):
    # one pass over the sectors for every (input, Fock level) pair must
    # give what a separate simulation of each pair gives
    srcs = [thermal_state(0.3, 10), number_state(3, cutoff=10)]
    levels = 4
    outs, beyond = _channel_outputs(
        kind, k, np.stack([s.probs for s in srcs]), np.eye(levels + 1), cutoff
    )
    for i, src in enumerate(srcs):
        for lvl in range(levels + 1):
            sim = simulate_channel(kind, k, src, AncillaCandidate.fock(lvl), cutoff)
            assert np.max(np.abs(outs[i, lvl] - sim.probs)) <= 1e-14
            assert abs(src.tail_bound + max(beyond[i, lvl], 0.0) - sim.tail_bound) <= 1e-14


def test_amplifier_unitary_is_symmetric_under_mode_swap():
    # the two-mode squeezer commutes with swapping the modes, and the
    # mirrored sectors d, -d are read from one ladder, so the swap is exact
    cutoff = 12
    U, _ = assemble_two_mode_unitary(AMPLIFY, 1.15, cutoff)
    size = cutoff + 1
    swap = np.arange(size * size).reshape(size, size).T.ravel()
    assert np.array_equal(U[np.ix_(swap, swap)], U)


@pytest.mark.parametrize("kind, k, sectors", [(ATTENUATE, 0.6, range(5)), (AMPLIFY, 1.3, range(-3, 4))])
def test_ladder_index_inverts_the_sector_map(kind, k, sectors):
    # row i of every yielded ladder is the state at ladder index i of its sector
    needs = {s: [0] for s in sectors}
    seen = []
    for sector, na, nb, cols in oracles._sectors(kind, k, needs):
        got, index = oracles._ladder_index(kind, na, nb)
        assert np.all(got == sector)
        assert np.array_equal(index, np.arange(na.size))
        assert cols.shape == (na.size, 1)
        seen.append(sector)
    assert sorted(seen) == list(sectors)


def _count_decompositions(monkeypatch) -> list:
    calls = []
    real = oracles.eigh_tridiagonal

    def counting(*args, **kwargs):
        calls.append(len(args[0]))
        return real(*args, **kwargs)

    monkeypatch.setattr(oracles, "eigh_tridiagonal", counting)
    return calls


def test_one_decomposition_per_ladder_per_call(monkeypatch):
    calls = _count_decompositions(monkeypatch)
    # at these parameters no ladder needs an edge-mass retry, so each
    # decomposition is one ladder |d| = 0..n_in shared by every ancilla
    # level (the per-level loop made 3 (n_in + 1))
    s1 = 0.04
    n_in = _thermal_cutoff(s1, 1e-13)
    ancilla_optimality_search(AMPLIFY, 1.3, s1, 0.3, max_level=2, samples=50)
    assert len(calls) == n_in + 1
    # unitary: sectors d and -d share a ladder, c + 1 of them (not 2c + 1)
    calls.clear()
    cutoff = 13
    assemble_two_mode_unitary(AMPLIFY, 1.025, cutoff)
    assert len(calls) == cutoff + 1


def _edge_passes(r: float, a0: int, cols: list[int], length: int) -> bool:
    j = np.arange(length - 1)
    evolved = oracles._ladder_evolve(np.sqrt((a0 + j + 1.0) * (j + 1.0)), r, cols)
    return float(np.sum(evolved[-oracles._EDGE_ROWS :] ** 2)) <= oracles._EDGE_MASS


@pytest.mark.parametrize("k", [1.02, 1.1, 1.3, 1.5, 2.0, 3.0])
def test_squeezer_length_rule_needs_no_retry_and_wastes_little(monkeypatch, k):
    r = math.acosh(k)
    calls = _count_decompositions(monkeypatch)
    for a0 in (0, 8, 40):
        for t_max in (0, 2, 13, 30):
            cols = list(range(t_max + 1))
            calls.clear()
            length = _tms_columns(r, a0, 0, cols).shape[0]
            # the first length passed the edge test: one decomposition, no retry
            assert calls == [length], (a0, t_max)
            # past the bulk the edge mass falls with the length, so a failing
            # length below length / 1.5 puts the shortest passing one (what a
            # bisection between the two would find) above length / 1.5
            shorter = math.ceil(length / 1.5) - 1
            assert not _edge_passes(r, a0, cols, shorter), (a0, t_max, length)


def test_high_gain_ladders_are_decomposed_once(monkeypatch):
    # a ladder that starts too short is decomposed again, so any retry at
    # this high gain shows in the count
    calls = _count_decompositions(monkeypatch)
    n_in = 30
    _channel_outputs(AMPLIFY, 2.3, thermal_state(0.7, n_in).probs[None], np.eye(5), 265)
    # one ladder per |d| = |n - kappa|, d = -4..30
    assert len(calls) == n_in + 1


def test_squeezer_ladder_past_the_row_cap_is_rejected_fast(monkeypatch):
    # k = 50 would need a 137,000-row ladder (150 GB of eigenvectors)
    calls = _count_decompositions(monkeypatch)
    start = time.perf_counter()
    with pytest.raises(ValueError, match="^k must keep each squeezer ladder"):
        simulate_channel(AMPLIFY, 50.0, vacuum_state(), AncillaCandidate.vacuum(), 10)
    assert time.perf_counter() - start < 0.1
    assert calls == []


def test_amplifier_simulation_leaves_global_rng_alone(monkeypatch):
    def seed(*args, **kwargs):
        raise AssertionError("the global numpy RNG was reseeded")

    monkeypatch.setattr(np.random, "seed", seed)
    src = thermal_state(0.4, 10)
    sim = simulate_channel(AMPLIFY, 1.3, src, AncillaCandidate.vacuum(), 40)
    ker = amplify_kernel(1.3, src, out_cutoff=40)
    assert np.max(np.abs(sim.probs - ker.probs)) < 1e-12


def test_fock_ancilla_changes_output():
    src = number_state(2, cutoff=10)
    vac = simulate_channel(ATTENUATE, 0.7, src, AncillaCandidate.vacuum(), 10)
    one = simulate_channel(ATTENUATE, 0.7, src, AncillaCandidate.fock(1), 11)
    assert np.max(np.abs(vac.padded(11) - one.probs)) > 1e-3


@pytest.mark.parametrize(
    "kind, k, out_cutoff", [(ATTENUATE, 0.6, 20), (AMPLIFY, 1.3, 200)], ids=[ATTENUATE, AMPLIFY]
)
def test_kraus_operators_resolve_identity(kind, k, out_cutoff):
    # the amplifier spreads |n> over m >= n, so its output cutoff must hold
    # the geometric tail of every input column
    ops = kraus_operators(kind, k, 20, out_cutoff)
    total = sum(B.T @ B for B in ops)
    assert np.max(np.abs(total - np.eye(21))) < 1e-12


@pytest.mark.parametrize("kind, k", [(ATTENUATE, 0.6), (AMPLIFY, 1.2)])
def test_kraus_operators_are_vacuum_ancilla_blocks_of_the_unitary(kind, k):
    # B_j[m, n] = <m, j| U |n, 0>; both come from the ladder of |n, 0>,
    # which the unitary may run longer, so they agree to rounding
    cutoff = 6
    size = cutoff + 1
    U, _ = assemble_two_mode_unitary(kind, k, cutoff)
    ops = kraus_operators(kind, k, cutoff, cutoff)
    assert len(ops) == size
    m, n = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
    for j, B in enumerate(ops):
        assert np.max(np.abs(B - U[m * size + j, n * size])) <= 1e-14


def test_stochastic_ordering_small():
    for kind, k in ((ATTENUATE, 0.7), (AMPLIFY, 1.4)):
        rep = check_stochastic_ordering(kind, k, 0.5, kappa_max=4)
        assert rep.ok, rep.as_dict()
        assert rep.worst_margin >= -1e-12


def test_vacuum_optimality_small_search():
    rep = ancilla_optimality_search(ATTENUATE, 0.6, 0.8, 0.4, max_level=3, samples=300)
    assert rep.ok
    assert rep.margin >= -1e-9
    # vacuum is a simplex vertex, so the best candidate never loses to it
    assert rep.best_risk <= rep.vacuum_risk + 1e-15


def test_noise_topup_small_sample():
    rep = verify_noise_topup(0.25, 0.5, samples=20_000)
    assert rep.exact_max_err <= 1e-10
    assert rep.mc_l1_err <= rep.mc_tol
    assert abs(rep.v - 2.0 / 3.0) < 1e-15


def test_noise_topup_degenerate():
    rep = verify_noise_topup(0.3, 0.3, samples=1000)
    assert rep.v == 0.0
    assert rep.ok


def test_covariance_single_displacement():
    rep = verify_covariance(ATTENUATE, 0.5, [0.8], in_cutoff=36)
    assert rep.ok
    assert rep.max_trace_norm <= 1e-6
    with pytest.raises(ValueError):
        verify_covariance(ATTENUATE, 0.5, [2.5])


def test_case4_closed_form_agrees_with_quadrature():
    args = (0.7, 0.3, 1.4, 0.8)
    assert abs(case4_risk(*args) - case4_risk_quad(*args, abs_tol=1e-10)) < 1e-8


def test_suite_registry():
    assert len(SUITE_NAMES) == 20
    assert len(set(SUITE_NAMES)) == 20
    for name in ("kernel_vs_unitary", "vacuum_optimality", "case_continuity"):
        assert name in SUITE_NAMES


def test_report_payloads_serialize():
    raw = _report(
        "demo",
        True,
        scalar=np.float64(1.5),
        vector=np.arange(3),
        cplx=1 + 2j,
        inf=math.inf,
    )
    text = json.dumps(raw, sort_keys=True)
    assert "demo" in text
    assert _jsonable(np.float64(2.0)) == 2.0


def test_ordering_holds_at_half_retention():
    rep = check_stochastic_ordering(ATTENUATE, 0.5, 0.5, 10)
    assert rep.ok
    assert rep.worst_margin >= -1e-12
    assert rep.witness is None


def test_optimality_search_amplifier_above_threshold():
    rep = ancilla_optimality_search(AMPLIFY, 1.9, 0.4, 0.8, max_level=3, samples=300, seed=7)
    assert rep.ok
    assert rep.vacuum_risk == pytest.approx(
        quantum_minimax_risk(0.4, 0.8, 1.9, AMPLIFY), abs=1e-9
    )


def test_optimality_search_reports_counterexample_below_threshold():
    # below the amplifier threshold sqrt(3) the vacuum baseline is not
    # optimal against the raw channel output: hotter ancillas land
    # closer to the hot target, and the search must say so honestly
    rep = ancilla_optimality_search(AMPLIFY, 1.5, 0.4, 0.8, max_level=4, samples=200, seed=11)
    assert not rep.ok
    assert rep.margin < -1e-2
    assert rep.best_risk < rep.vacuum_risk
    assert rep.best_weights[0] < 1.0


def test_covariance_amplifier_output_displacement():
    rep = verify_covariance(AMPLIFY, math.sqrt(2.0), [1.0], s1=0.4, in_cutoff=40)
    assert rep.ok
    # output displacement of the alpha = 1 input is k alpha = sqrt(2)
    assert rep.gain_err <= 1e-8


_DISPLACEMENTS = np.array([0.0, 1e-3, 2.5, 20.0])


@pytest.mark.parametrize("s", [0.25, 0.7])
def test_displaced_thermal_pmf_matches_laguerre_form(s):
    # P(m) = (1-s) exp(-(1-s) u) s^m L_m(-u (1-s)^2 / s)
    got = _displaced_thermal_pmf(s, _DISPLACEMENTS, 80)
    assert got.shape == (_DISPLACEMENTS.size, 81)
    with mpmath.workdps(40):
        S = mpmath.mpf(s)
        for row, u in zip(got, _DISPLACEMENTS):
            U = mpmath.mpf(float(u))
            for m, p in enumerate(row):
                want = (1 - S) * mpmath.exp(-(1 - S) * U) * S**m * mpmath.laguerre(m, 0, -U * (1 - S) ** 2 / S)
                if want > 1e-300:
                    assert abs(p - want) <= 1e-12 * want, (u, m)


def test_displaced_thermal_pmf_at_zero_temperature_is_poisson():
    got = _displaced_thermal_pmf(0.0, _DISPLACEMENTS, 80)
    assert got[0].tolist() == [1.0] + [0.0] * 80
    with mpmath.workdps(40):
        for row, u in zip(got[1:], _DISPLACEMENTS[1:]):
            for m, p in enumerate(row):
                want = mpmath.exp(-u) * mpmath.mpf(float(u)) ** m / mpmath.factorial(m)
                if want > 1e-300:
                    assert abs(p - want) <= 1e-12 * want, (u, m)


@pytest.mark.parametrize("s", [0.0, 0.25])
def test_displaced_thermal_pmf_far_displacement_stays_finite(s):
    # exp(-(1-s) u) underflows to 0 and T_m passes the float range long
    # before m reaches the bulk near u; the rescaled rows must still
    # match the Laguerre form there
    u = 3000.0
    got = _displaced_thermal_pmf(s, np.array([u]), 3600)[0]
    assert np.all(np.isfinite(got)) and abs(math.fsum(got) - 1.0) < 1e-10
    with mpmath.workdps(40):
        S, U = mpmath.mpf(s), mpmath.mpf(u)
        for m in (2500, 2900, 3000, 3100, 3500):
            if s == 0.0:
                want = mpmath.exp(-U) * U**m / mpmath.factorial(m)
            else:
                want = (1 - S) * mpmath.exp(-(1 - S) * U) * S**m * mpmath.laguerre(m, 0, -U * (1 - S) ** 2 / S)
            assert abs(got[m] - want) <= 1e-10 * want, m


@pytest.mark.parametrize("s_tilde, s2", [(0.0, 0.9), (0.5, 0.8)])
def test_topup_to_a_hot_target(s_tilde, s2):
    # cutoffs 305 and 144 let the exact branch's quadrature reach
    # displacements whose photon law needs the rescaled recurrence
    rep = verify_noise_topup(s_tilde, s2, samples=2000)
    assert rep.ok
    assert rep.exact_max_err <= 1e-10


@pytest.mark.parametrize("s", [0.0, 0.25, 0.7])
def test_displaced_thermal_pmf_undisplaced_is_thermal(s):
    got = _displaced_thermal_pmf(s, np.zeros(1), 80)[0]
    want = thermal_state(s, 80).probs
    assert np.max(np.abs(got - want) / np.maximum(want, 1e-300)) <= 1e-13


def test_topup_fills_vacuum_to_thermal():
    rep = verify_noise_topup(0.0, 0.5, samples=20_000, seed=3)
    assert rep.ok
    assert rep.v == 1.0


def test_sabotaged_threshold_is_detected(monkeypatch):
    # mutation check: a k0 formula off by 1e-3 must fail the
    # threshold-exactness verification
    true_fn = risk_mod.quantum_threshold

    def skewed(kind, s1, s2):
        k0 = true_fn(kind, s1, s2)
        return k0 * (1.0 - 1e-3) if k0 <= 1.0 else k0 * (1.0 + 1e-3)

    monkeypatch.setattr(risk_mod, "quantum_threshold", skewed)
    report = _check_threshold_exactness(np.random.default_rng(5), fast=True)
    assert report["ok"] is False
    assert report["worst_s_tilde_err"] > 1e-6


def test_sector_leak_in_the_unitary_is_detected(monkeypatch):
    # mutation check: the exact unitary gives an off-diagonal mass of
    # exactly 0, so show that an amplitude moved across conserved
    # sectors, |0, 0> -> |1, 0>, still fails the diagonal-output check
    true_fn = oracles.assemble_two_mode_unitary

    def leaky(kind, k, cutoff):
        U, leak = true_fn(kind, k, cutoff)
        U[cutoff + 1, 0] += 1e-3  # row |1, 0>, column |0, 0>
        return U, leak

    assert _check_diagonal_output(np.random.default_rng(0), fast=True)["ok"] is True
    monkeypatch.setattr(oracles, "assemble_two_mode_unitary", leaky)
    report = _check_diagonal_output(np.random.default_rng(0), fast=True)
    assert report["ok"] is False
    assert report["offdiagonal_mass"] > 1e-4
