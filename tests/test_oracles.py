"""Tests for the simulation oracles and the self-check harness.

The heavy cross-validation (large cutoffs, dense grids) lives in the
verification suite; here each oracle is exercised once at a small size
so defects localize quickly.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import subprocess
import sys
import time
import tracemalloc
import types
import warnings

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
from gauss_purify.fock import DiagonalFockState, displacement_matrix, number_state, thermal_state, vacuum_state
from gauss_purify import oracles
from gauss_purify.oracles import (
    AncillaCandidate,
    OptimalityReport,
    OrderingReport,
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
    _kraus_diagonals,
    _kraus_sum,
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
    # the generator is symmetric in a0 <-> b0, so the ladder |t, b0+t> is
    # read from the one starting at |b0, 0>, as the mirrored sectors are
    cols = _tms_columns(r, max(a0, b0), idx)
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
    cols = _tms_columns(0.0, 2, [0, 3])
    assert np.array_equal(cols, np.eye(cols.shape[0])[:, [0, 3]])


@pytest.mark.parametrize("kind, k, cutoff", [(ATTENUATE, 0.7, 16), (AMPLIFY, 1.4, 40)])
def test_batched_outputs_match_separate_simulations(kind, k, cutoff):
    # one pass over the sectors for every (input, Fock level) pair must
    # give what a separate simulation of each pair gives
    srcs = [thermal_state(0.3, 10), number_state(3, cutoff=10)]
    levels = 4
    outs = _channel_outputs(kind, k, np.stack([s.probs for s in srcs]), np.eye(levels + 1))
    rows = min(outs.shape[-1], cutoff + 1)
    for i, src in enumerate(srcs):
        for lvl in range(levels + 1):
            sim = simulate_channel(kind, k, src, number_state(lvl), cutoff)
            assert sim.cutoff == cutoff
            assert np.max(np.abs(outs[i, lvl, :rows] - sim.probs[:rows])) <= 1e-14
            assert not np.any(sim.probs[rows:])
            # what the ladders carry past cutoff goes into the tail bound
            past = float(outs[i, lvl, cutoff + 1 :].sum())
            assert abs(src.tail_bound + past - sim.tail_bound) <= 1e-14


def test_amplifier_unitary_is_symmetric_under_mode_swap():
    # the two-mode squeezer commutes with swapping the modes, and the
    # mirrored sectors d, -d are read from one ladder, so the swap is exact
    cutoff = 12
    U, _ = assemble_two_mode_unitary(AMPLIFY, 1.15, cutoff)
    size = cutoff + 1
    swap = np.arange(size * size).reshape(size, size).T.ravel()
    assert np.array_equal(U[np.ix_(swap, swap)], U)


@pytest.mark.parametrize("kind, k", [(ATTENUATE, 0.6), (AMPLIFY, 1.3)])
def test_ladders_serve_each_input_once(kind, k):
    # the joint states of a 6 x 6 square in shuffled order: each is served
    # by exactly one ladder, whose rows keep its total (beamsplitter) or its
    # difference (squeezer); at k = 1 the evolution is the identity, so each
    # column is its own input
    na, nb = np.divmod(np.random.default_rng(1).permutation(36), 6)
    conserved = np.add if kind == ATTENUATE else np.subtract
    for k_run in (k, 1.0):
        served = np.zeros(na.size, dtype=int)
        for sel, m, j, cols in oracles._ladders(kind, k_run, na, nb):
            served[sel] += 1
            assert cols.shape == (m.size, sel.size) and j.shape == m.shape
            assert np.all(conserved(m, j)[:, None] == conserved(na[sel], nb[sel]))
            if k_run == 1.0:
                own = (m[:, None] == na[sel]) & (j[:, None] == nb[sel])
                assert np.array_equal(cols, own.astype(float))
        assert np.all(served == 1)


def _count_decompositions(monkeypatch) -> list:
    # records the ladder length of every decomposition
    calls = []
    real = oracles._ladder_svd

    def counting(offdiag):
        calls.append(len(offdiag) + 1)
        return real(offdiag)

    monkeypatch.setattr(oracles, "_ladder_svd", counting)
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


def _ladder_evolve_eigh(offdiag: np.ndarray, r: float, cols: list[int]) -> np.ndarray:
    """Columns of exp(r G) from the full tridiagonal eigendecomposition.

    With D = diag(i^j), D^-1 G D = -i T for the zero-diagonal symmetric
    tridiagonal T; T = V diag(lam) V^T gives entry (m, t) as the cosine
    sum when m - t is even and the sine sum when it is odd, signed by
    i^(m - t).
    """
    from scipy.linalg import eigh_tridiagonal

    length = len(offdiag) + 1
    cols = np.asarray(cols)
    lam, vec = eigh_tridiagonal(np.zeros(length), offdiag)
    right = vec[cols].T
    cos_part = vec @ (np.cos(r * lam)[:, None] * right)
    sin_part = vec @ (np.sin(r * lam)[:, None] * right)
    shift = (np.arange(length)[:, None] - cols[None, :]) % 4
    return np.where(shift < 2, 1.0, -1.0) * np.where(shift % 2 == 0, cos_part, sin_part)


@pytest.mark.parametrize("length", [1, 2, 3, 100, 101, 800, 801])
@pytest.mark.parametrize("generator", ["beamsplitter", "squeezer"])
def test_half_size_svd_matches_the_tridiagonal_eigendecomposition(generator, length):
    # both generators evolved by r = acosh(2.3); the beamsplitter block is
    # read whole, as `_bs_block` reads it, and the squeezer ladder at the
    # low even and odd columns the oracles read (its far columns carry the
    # ~1e-13 phase error that eigenvalues near 800 give both routes alike)
    r = math.acosh(2.3)
    j = np.arange(length - 1)
    if generator == "beamsplitter":
        offdiag = -np.sqrt((length - 1 - j) * (j + 1.0))
        cols = list(range(length))
    else:
        offdiag = np.sqrt((3 + j + 1.0) * (j + 1.0))
        cols = list(range(min(length, 4)))
    got = oracles._ladder_evolve(offdiag, r, cols)
    assert np.max(np.abs(got - _ladder_evolve_eigh(offdiag, r, cols))) <= 1e-13
    assert np.max(np.abs(got.T @ got - np.eye(len(cols)))) <= 1e-13


def _edge_passes(r: float, a0: int, cols: list[int], length: int, edge: float = oracles._EDGE_MASS) -> bool:
    j = np.arange(length - 1)
    evolved = oracles._ladder_evolve(np.sqrt((a0 + j + 1.0) * (j + 1.0)), r, cols)
    return float(np.sum(evolved[-oracles._EDGE_ROWS :] ** 2)) <= edge


@pytest.mark.parametrize("k", [1.02, 1.1, 1.3, 1.5, 2.0, 3.0])
def test_squeezer_length_rule_needs_no_retry_and_wastes_little(monkeypatch, k):
    r = math.acosh(k)
    calls = _count_decompositions(monkeypatch)
    for a0 in (0, 8, 40):
        for t_max in (0, 2, 13, 30):
            cols = list(range(t_max + 1))
            calls.clear()
            length = _tms_columns(r, a0, cols).shape[0]
            # the first length passed the edge test: one decomposition, no retry
            assert calls == [length], (a0, t_max)
            # past the bulk the edge mass falls with the length, so a failing
            # length below length / 1.5 puts the shortest passing one (what a
            # bisection between the two would find) above length / 1.5
            shorter = math.ceil(length / 1.5) - 1
            assert not _edge_passes(r, a0, cols, shorter), (a0, t_max, length)


def _tms_length_gammaln(r: float, a0: int, t_max: int, n_cols: int, edge: float = oracles._EDGE_MASS) -> int:
    """The ladder-length rule with every log NB_n(t) from its own gammaln terms."""
    from scipy.special import gammaln

    edge = math.log(edge)
    log_q, log_1q = 2.0 * math.log(math.tanh(r)), -2.0 * math.log(math.cosh(r))
    q = math.exp(log_q)
    n = a0 + 2 * t_max
    log_scale = gammaln(n + 1) - gammaln(t_max + 1) - gammaln(n - t_max + 1) + math.log(n_cols)
    start, span = 0, 64
    while start <= oracles._MAX_LADDER:
        t = np.arange(start, start + span, dtype=float)
        ratio = q * (n + t + 1.0) / (t + 1.0)
        log_nb = (
            gammaln(n + t + 1.0) - gammaln(t + 1.0) - gammaln(n + 1.0)
            + t * log_q + (n + 1) * log_1q
        )
        with np.errstate(divide="ignore", invalid="ignore"):
            log_tail = log_scale + log_nb - np.log1p(-ratio)
        hit = np.flatnonzero((ratio < 1.0) & (log_tail < edge))
        if hit.size:
            return t_max + start + int(hit[0]) + oracles._EDGE_ROWS
        start += span
        span *= 2
    return t_max + start + oracles._EDGE_ROWS


def test_ladder_length_matches_the_gammaln_rule():
    # the running sum of log ratios must pick the same row as the
    # closed-form log-gamma terms, so ladder sizes (and verify) keep still;
    # the starts a0 + 2 stand in for the mirrored starts b0 = 2
    grid = itertools.product(
        (1.001, 1.02, 1.1, 1.2, 1.25, 1.3, 1.5, 2.0, 2.3, 3.0),
        (0, 1, 2, 3, 5, 7, 14, 16, 40, 42), (0, 2, 13, 30), (1, 3, 14),
    )
    checked = 0
    for k, a0, t_max, n_cols in grid:
        r = math.acosh(k)
        want = _tms_length_gammaln(r, a0, t_max, n_cols)
        assert oracles._tms_length(r, a0, t_max, n_cols) == want, (k, a0, t_max, n_cols)
        checked += 1
    assert checked == 1200


@pytest.mark.parametrize("edge", [1e-18, 1e-16])
def test_weighted_ladder_length_matches_the_gammaln_rule(edge):
    # the weighted edges of `_ladders` run through the same search
    grid = itertools.product((1.02, 1.2, 1.3, 2.3), (0, 3, 14, 40), (0, 2, 13, 30), (1, 3, 14))
    for k, a0, t_max, n_cols in grid:
        r = math.acosh(k)
        want = _tms_length_gammaln(r, a0, t_max, n_cols, edge)
        assert oracles._tms_length(r, a0, t_max, n_cols, edge) == want, (k, a0, t_max, n_cols)
        assert want <= oracles._tms_length(r, a0, t_max, n_cols)


@pytest.mark.parametrize("edge", [1e-18, 1e-16])
@pytest.mark.parametrize("k", [1.1, 1.3, 2.3])
def test_weighted_length_rule_needs_no_retry_and_wastes_little(monkeypatch, k, edge):
    r = math.acosh(k)
    calls = _count_decompositions(monkeypatch)
    for a0 in (0, 8, 40):
        for t_max in (0, 2, 13):
            cols = list(range(t_max + 1))
            calls.clear()
            length = _tms_columns(r, a0, cols, edge).shape[0]
            assert calls == [length], (a0, t_max)
            assert not _edge_passes(r, a0, cols, math.ceil(length / 1.5) - 1, edge), (a0, t_max, length)


def test_light_sector_ladder_is_shorter_with_the_same_outputs():
    # sector d = 8 of an amplifier at k = 1.3, its inputs weighing 1e-10:
    # the weighted edge is 1e-16 instead of 1e-24, the unweighted ladder
    # holds less than that past the weighted one, and the weighted row
    # masses agree with the unweighted ladder's to 1e-16 absolute
    k, na, nb = 1.3, np.array([8, 9, 10]), np.array([0, 1, 2])
    weights = np.full(3, 1e-10)
    [(_, _, _, light)] = oracles._ladders(AMPLIFY, k, na, nb, weights)
    [(_, _, _, full)] = oracles._ladders(AMPLIFY, k, na, nb)
    assert light.shape[0] < full.shape[0]
    assert float(np.sum(full[light.shape[0] :] ** 2)) <= 1e-16
    mass = np.zeros(full.shape)
    mass[: light.shape[0]] = light * light * weights
    assert np.max(np.abs(mass - full * full * weights)) <= 1e-16
    # the joint inputs of a search (thermal input, pure ancilla levels
    # 0..2): each weighted ladder drops at most 1e-18 of output mass
    probs = thermal_state(0.7, 40).probs
    n, kap = np.repeat(np.arange(41), 3), np.tile(np.arange(3), 41)
    weights = probs[n]  # the largest ancilla probability is 1
    pairs = zip(oracles._ladders(AMPLIFY, 2.3, n, kap, weights), oracles._ladders(AMPLIFY, 2.3, n, kap))
    shorter = 0
    for (sel, _, _, light), (_, _, _, full) in pairs:
        assert light.shape[0] <= full.shape[0]
        shorter += light.shape[0] < full.shape[0]
        assert float(np.sum(weights[sel] * full[light.shape[0] :] ** 2)) <= 1e-18
    assert shorter > 30


@pytest.mark.parametrize("weight", [0.0, 1e-320, 1.0])
def test_weighted_edge_is_finite_for_any_weight(monkeypatch, weight):
    # a weight that is 0 or subnormal caps the edge at 1e-16, without a
    # division by zero or a warning (tier-1 turns RuntimeWarning into an error)
    edges = []
    real = oracles._tms_columns

    def spy(r, a0, idx, edge):
        edges.append(edge)
        return real(r, a0, idx, edge)

    monkeypatch.setattr(oracles, "_tms_columns", spy)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        list(oracles._ladders(AMPLIFY, 1.3, np.array([3, 0]), np.array([0, 3]), np.full(2, weight)))
    assert len(edges) == 1 and math.isfinite(edges[0]) and 0.0 < edges[0] <= 1e-16
    assert edges[0] == (1e-18 if weight == 1.0 else 1e-16)


def test_oracle_checks_bands_need_no_retry(monkeypatch):
    # the benchmark's amplifier bands: searches at k 1.28-1.32 on s1 near
    # 0.04, simulations at k 1.18-1.22 with cutoff 16; each weighted ladder
    # passes its edge test at the length the rule gives it
    real, lengths = oracles._tms_columns, []

    def checked(r, a0, idx, edge=oracles._EDGE_MASS):
        cols = real(r, a0, idx, edge)
        assert cols.shape[0] == oracles._tms_length(r, a0, max(idx), len(idx), edge), (r, a0, edge)
        lengths.append(cols.shape[0])
        return cols

    monkeypatch.setattr(oracles, "_tms_columns", checked)
    for k, s1 in itertools.product(np.linspace(1.28, 1.32, 5), (0.037, 0.04, 0.043)):
        ancilla_optimality_search(AMPLIFY, k, s1, 0.5 * channel_s_tilde(AMPLIFY, s1, k), max_level=2, samples=10)
    for k, s1 in itertools.product(np.linspace(1.18, 1.22, 5), (0.35, 0.45)):
        simulate_channel(AMPLIFY, k, thermal_state(s1, 16), AncillaCandidate.vacuum(), 16)
    assert len(lengths) > 100


def test_high_gain_ladders_are_decomposed_once(monkeypatch):
    # a ladder that starts too short is decomposed again, so any retry at
    # this high gain shows in the count
    calls = _count_decompositions(monkeypatch)
    n_in = 30
    _channel_outputs(AMPLIFY, 2.3, thermal_state(0.7, n_in).probs[None], np.eye(5))
    # one ladder per |d| = |n - kappa|, d = -4..30
    assert len(calls) == n_in + 1


def test_squeezer_ladder_past_the_row_cap_is_rejected_fast(monkeypatch):
    # k = 50 would need a 137,000-row ladder (75 GB of singular vectors)
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


@pytest.mark.parametrize("kind, k", [(ATTENUATE, 0.7), (AMPLIFY, 1.3)])
def test_ancilla_tail_bound_raises_the_output_tail_bound(kind, k):
    # the vacuum's law with 0.25 of mass declared omitted: same output law,
    # and the omitted mass goes into the output's bound
    src = thermal_state(0.4, 10)
    vac = simulate_channel(kind, k, src, AncillaCandidate.vacuum(), 40)
    loose = simulate_channel(kind, k, src, DiagonalFockState([1.0], tail_bound=0.25), 40)
    assert np.array_equal(loose.probs, vac.probs)
    assert abs(loose.tail_bound - (vac.tail_bound + 0.25)) <= 1e-15


def test_fock_ancilla_changes_output():
    src = number_state(2, cutoff=10)
    vac = simulate_channel(ATTENUATE, 0.7, src, AncillaCandidate.vacuum(), 10)
    one = simulate_channel(ATTENUATE, 0.7, src, number_state(1), 11)
    assert np.max(np.abs(vac.padded(11) - one.probs)) > 1e-3


@pytest.mark.parametrize(
    "kind, k, in_cutoff",
    [
        pytest.param(ATTENUATE, 0.6, 20, id=ATTENUATE),
        pytest.param(AMPLIFY, 1.3, 20, id=AMPLIFY),
        pytest.param(AMPLIFY, 2.3, 20, id=f"{AMPLIFY}-2.3"),
        # one-row ladders, and the sizes the benchmark's warm-up asks for
        *(
            pytest.param(kind, k, c, id=f"{kind}-in{c}")
            for c in (0, 4)
            for kind, k in ((ATTENUATE, 0.6), (AMPLIFY, 1.3))
        ),
    ],
)
def test_kraus_operators_resolve_identity(kind, k, in_cutoff):
    # the amplifier spreads |n> over m >= n; the certified ladders must hold
    # the geometric tail of every input column, at high gain too (an output
    # cut at (n + 1) k^2 + 10 sqrt((n + 1) k^2) + 64 lost 1.7e-8 at k = 2.3)
    ops = kraus_operators(kind, k, in_cutoff)
    total = sum(B.T @ B for B in ops)
    assert np.max(np.abs(total - np.eye(in_cutoff + 1))) < 1e-12


@pytest.mark.parametrize(
    "kind, k, cutoff",
    [
        pytest.param(ATTENUATE, 0.6, 6, id=f"{ATTENUATE}-0.6"),
        pytest.param(AMPLIFY, 1.2, 6, id=f"{AMPLIFY}-1.2"),
        # the total-0 block, one-row ladders, and the warm-up's cutoff 3
        *(
            pytest.param(kind, k, c, id=f"{kind}-{k}-cutoff{c}")
            for c in (0, 1, 3)
            for kind, k in ((ATTENUATE, 0.6), (AMPLIFY, 1.2))
        ),
    ],
)
def test_kraus_operators_are_vacuum_ancilla_blocks_of_the_unitary(kind, k, cutoff):
    # B_j[m, n] = <m, j| U |n, 0>; both come from the ladder of |n, 0>,
    # which the unitary may run longer, so they agree to rounding on the
    # square the unitary keeps
    size = cutoff + 1
    U, _ = assemble_two_mode_unitary(kind, k, cutoff)
    ops = kraus_operators(kind, k, cutoff)
    assert len(ops) >= size and ops[0].shape[0] >= size
    m, n = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
    for j, B in enumerate(ops[:size]):
        assert np.max(np.abs(B[:size] - U[m * size + j, n * size])) <= 1e-14


@pytest.mark.parametrize("kind, k", [(ATTENUATE, 0.6), (AMPLIFY, 1.3)])
def test_kraus_operators_are_single_diagonals(kind, k):
    # the dilation conserves a number, so B_j moves |n> to |n - j> (loss)
    # or |n + j> (gain) alone; verify_covariance's scattered Kraus sum
    # rests on this
    ops = kraus_operators(kind, k, 12)
    sign = 1 if kind == AMPLIFY else -1
    assert len(ops) > 1
    for j, B in enumerate(ops):
        m, n = np.indices(B.shape)
        assert np.all(B[m - n != sign * j] == 0.0), j
        assert np.any(B != 0.0), j


@pytest.mark.parametrize("alpha", [0.8, 0.6 - 0.9j, -1.1], ids=["real", "complex", "negative"])
@pytest.mark.parametrize("kind, k", [(ATTENUATE, 0.5), (AMPLIFY, 1.3)])
def test_scattered_kraus_sum_matches_the_dense_sum(kind, k, alpha):
    # the reference: sum_j B_j rho B_j^T over the dense Kraus operators
    cutoff = 16
    ops = kraus_operators(kind, k, cutoff)
    rows, amps = _kraus_diagonals(kind, k, cutoff)
    probs = thermal_state(0.4, cutoff).probs
    d = displacement_matrix(alpha, cutoff + 1)
    rho = (d * probs) @ d.conj().T
    want = sum(B @ rho @ B.T for B in ops)
    assert np.max(np.abs(_kraus_sum(rows, amps, rho) - want)) <= 1e-14
    # a diagonal input comes back as the diagonal of its image
    want0 = sum(B @ np.diag(probs) @ B.T for B in ops)
    assert np.max(np.abs(np.diag(want0) - _kraus_sum(rows, amps, probs))) <= 1e-14
    assert np.max(np.abs(want0 - np.diag(np.diag(want0)))) == 0.0


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
    assert abs(case4_risk(*args) - case4_risk_quad(*args)) < 1e-8


def test_case4_quadrature_answers_every_series_the_old_loop_did():
    # about 148,000 terms, inside the 2^18 cap
    args = (0.9998, 0.9996, 1.5, 1.0)
    assert abs(case4_risk_quad(*args) - case4_risk(*args)) <= 1e-12


@pytest.mark.parametrize("s_t, s2", [(0.9999, 0.9998), (1.0 - 1e-9, 0.5)])
def test_case4_quadrature_rejects_long_series_fast(s_t, s2):
    # about 3.0e5 and 3.0e10 terms, past the 2^18 cap: no integration runs
    start = time.perf_counter()
    with pytest.raises(ValueError, match="s_t and s2"):
        case4_risk_quad(s_t, s2, 1.5, 1.0)
    assert time.perf_counter() - start < 0.1


def _abs_diff_quad(c1, sig1, c2, sig2, length):
    """Reference: scipy's adaptive quadrature, the density crossing as a kink."""
    from scipy.integrate import quad

    a1 = c1 / (math.sqrt(2.0 * math.pi) * sig1)
    a2 = c2 / (math.sqrt(2.0 * math.pi) * sig2)

    def f(x):
        return abs(a1 * math.exp(-0.5 * x * x / sig1**2) - a2 * math.exp(-0.5 * x * x / sig2**2))

    points = None
    if c1 > 0.0 and c2 > 0.0 and sig1 != sig2:
        cross2 = 2.0 * (sig1 * sig2) ** 2 * math.log(c2 * sig1 / (c1 * sig2)) / (sig1**2 - sig2**2)
        if 0.0 < cross2 < length * length:
            points = [math.sqrt(cross2)]
    return 2.0 * quad(f, 0.0, length, points=points, epsabs=1e-16, epsrel=1e-13, limit=200)[0]


def _rule_rows(monkeypatch):
    """Record the rows of every `_abs_diff_rule` call, with its answers."""
    calls = []
    rule = oracles._abs_diff_rule

    def spy(*args):
        out = rule(*args)
        calls.append((np.broadcast_arrays(*args), out[0]))
        return out

    monkeypatch.setattr(oracles, "_abs_diff_rule", spy)
    return calls


def _assert_rows_match_quad(calls):
    for args, got in calls:
        want = [_abs_diff_quad(*row) for row in zip(*args)]
        assert np.max(np.abs(got - want)) <= 1e-14


def _case4_points():
    # the four `case4_bounds` points on the fig-6 curves, and one near s = 1
    fig6a, fig6b, fig6c = risk_mod.FIG6_SCENARIOS
    for (_, r0, lam, _), k in ((fig6a, 0.8), (fig6a, 0.95), (fig6b, 1.9), (fig6c, 2.0)):
        sc = risk_mod.QubitScenario(r0, lam, k=k)
        yield risk_mod.combined_risk(sc).s_tilde, sc.s2, k * k * sc.V1, sc.V2
    yield 0.99, 0.98, 1.5, 1.0


@pytest.mark.parametrize("args", list(_case4_points()))
def test_abs_diff_rule_matches_quad_per_photon_number(monkeypatch, args):
    # every term case4_risk_quad sums, each against its own quad call
    calls = _rule_rows(monkeypatch)
    case4_risk_quad(*args)
    assert sum(got.size for _, got in calls) > 30
    _assert_rows_match_quad(calls)


@pytest.mark.parametrize("suite", ["fast", "full"])
def test_abs_diff_rule_matches_quad_on_the_classical_draws(monkeypatch, suite):
    # the draws of the suite's `classical_quadrature` check, one call
    calls = _rule_rows(monkeypatch)
    rng = np.random.default_rng([oracles.DEFAULT_SEED, SUITE_NAMES.index("classical_quadrature")])
    assert oracles._check_classical_quadrature(rng, suite == "fast")["ok"]
    assert [got.size for _, got in calls] == [100 if suite == "fast" else 1000]
    _assert_rows_match_quad(calls)


_ORACLE_IMPORTS_CHILD = """
import json, sys
from gauss_purify import oracles as o
from gauss_purify.fock import thermal_state

o.simulate_channel("att", 0.6, thermal_state(0.5, 10), o.AncillaCandidate.vacuum(), 12)
o.ancilla_optimality_search("att", 0.6, 0.8, 0.4, max_level=2, samples=20)
o.assemble_two_mode_unitary("amp", 1.15, 6)
o.verify_covariance("att", 0.5, [0.8 + 0.2j], in_cutoff=20)
o.check_stochastic_ordering("amp", 1.3, 0.5, kappa_max=3)
o.verify_noise_topup(0.25, 0.5, samples=1000)
quad = o.case4_risk_quad(0.7, 0.3, 1.4, 0.8)
passed = o.run_verification_suite("fast")["all_passed"]
scipy_mods = sorted(m for m in sys.modules if m.startswith("scipy"))
print(json.dumps({"scipy": scipy_mods, "quad": quad, "passed": passed}))
"""


def test_oracle_layer_loads_no_scipy():
    # the oracle layer, its quadratures and the whole suite run on numpy alone
    proc = subprocess.run(
        [sys.executable, "-c", _ORACLE_IMPORTS_CHILD],
        capture_output=True, text=True, check=True,
    )
    got = json.loads(proc.stdout)
    assert got["scipy"] == []
    assert got["passed"] is True
    # the quadrature still certifies its 1e-12 (it raises past it)
    assert abs(got["quad"] - case4_risk(0.7, 0.3, 1.4, 0.8)) <= 1e-12


_REPORT_CALLS = {
    "OrderingReport": lambda: check_stochastic_ordering("amp", 1.3, 0.5, kappa_max=3),
    "OptimalityReport": lambda: ancilla_optimality_search("att", 0.6, 0.8, 0.4, 2, 20),
    "TopupReport": lambda: verify_noise_topup(0.25, 0.5, samples=1000),
    "CovarianceReport": lambda: verify_covariance("att", 0.5, [0.8 + 0.2j], in_cutoff=20),
}


@pytest.mark.parametrize("name", list(_REPORT_CALLS))
def test_report_as_dict_lists_every_field_then_ok(name):
    # perfbench prints as_dict() when a check fails
    rep = _REPORT_CALLS[name]()
    assert type(rep).__name__ == name
    d = rep.as_dict()
    fields = [f.name for f in dataclasses.fields(rep)]
    assert list(d) == fields + ["ok"]
    assert d["ok"] is rep.ok
    assert json.loads(json.dumps(d)) == d


def test_suite_registry():
    assert len(SUITE_NAMES) == 20
    assert len(set(SUITE_NAMES)) == 20
    for name in ("kernel_vs_unitary", "vacuum_optimality", "case_continuity"):
        assert name in SUITE_NAMES


def test_report_names_come_from_the_registry(monkeypatch):
    # a timing harness may swap every check for a wrapper named `call`
    def call(rng, fast):
        return _report(True)

    monkeypatch.setattr(oracles, "_SUITE_CHECKS", [call] * len(SUITE_NAMES))
    report = oracles.run_verification_suite("fast")
    assert [check["name"] for check in report["checks"]] == SUITE_NAMES
    assert {"attenuation_semigroup", "displacement_covariance"} <= set(SUITE_NAMES)


def test_nan_margins_fail_the_ordering_and_optimality_checks(monkeypatch):
    def nan_ordering(kind, k, s1, kappa_max):
        return OrderingReport(kind, k, s1, kappa_max, math.nan, None)

    def nan_search(kind, k, s1, s2, max_level, samples):
        return OptimalityReport(kind, k, s1, s2, max_level, samples, 0.5, 0.5, (1.0,), math.nan)

    monkeypatch.setattr(oracles, "check_stochastic_ordering", nan_ordering)
    monkeypatch.setattr(oracles, "ancilla_optimality_search", nan_search)
    rng = np.random.default_rng(0)
    assert oracles._check_stochastic_ordering(rng, fast=True)["ok"] is False
    assert oracles._check_vacuum_optimality(rng, fast=True)["ok"] is False


def test_report_payloads_serialize():
    raw = _report(
        True,
        scalar=np.float64(1.5),
        vector=np.arange(3),
        cplx=1 + 2j,
        inf=math.inf,
    )
    text = json.dumps(raw, sort_keys=True)
    assert json.loads(text) == {
        "ok": True, "scalar": 1.5, "vector": [0, 1, 2], "cplx": [1.0, 2.0], "inf": "inf"
    }
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


def test_optimality_search_counts_the_target_tail_past_the_outputs():
    # the outputs end at photon number n_in + max_level = 15, and the hot
    # target holds 0.95^16 = 0.44 of its mass past it; the risk counts it
    rep = ancilla_optimality_search(ATTENUATE, 0.6, 0.1, 0.95, max_level=2, samples=20)
    want, _ = risk_mod.geometric_l1(channel_s_tilde(ATTENUATE, 0.1, 0.6), 0.95)
    assert rep.vacuum_risk == pytest.approx(want, abs=1e-12)


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


def test_covariance_gates_the_gain(monkeypatch):
    # every displacement |alpha| scaled by 1 + 1e-5, on the input and the
    # output side alike: the trace norm cannot see it, as both sides move
    # together, but the output mean misses k alpha = 0.4 by 4e-6
    true_fn = oracles.displacement_matrix
    monkeypatch.setattr(oracles, "displacement_matrix", lambda alpha, dim: true_fn(alpha * (1 + 1e-5), dim))
    rep = verify_covariance(ATTENUATE, 0.5, [0.8], in_cutoff=36)
    assert rep.max_trace_norm <= 1e-6
    assert rep.gain_err > 1e-6 and not rep.ok, rep


_DISPLACEMENTS = np.array([0.0, 1e-3, 2.5, 20.0])


def _law_rows(s, u_vals, cutoff):
    """Photon law of each |alpha|^2 in turn, through the weighted pass with one state of weight 1."""
    return np.array(
        [_displaced_thermal_pmf(s, 1, lambda lo, hi: (np.array([u]), np.ones(1)), cutoff)[0] for u in u_vals]
    )


@pytest.mark.parametrize("s", [0.25, 0.7])
def test_displaced_thermal_pmf_matches_laguerre_form(s):
    # P(m) = (1-s) exp(-(1-s) u) s^m L_m(-u (1-s)^2 / s)
    got = _law_rows(s, _DISPLACEMENTS, 80)
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
    got = _law_rows(0.0, _DISPLACEMENTS, 80)
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
    got = _law_rows(s, [u], 3600)[0]
    assert np.all(np.isfinite(got)) and abs(math.fsum(got) - 1.0) < 1e-10
    with mpmath.workdps(40):
        S, U = mpmath.mpf(s), mpmath.mpf(u)
        for m in (2500, 2900, 3000, 3100, 3500):
            if s == 0.0:
                want = mpmath.exp(-U) * U**m / mpmath.factorial(m)
            else:
                want = (1 - S) * mpmath.exp(-(1 - S) * U) * S**m * mpmath.laguerre(m, 0, -U * (1 - S) ** 2 / S)
            assert abs(got[m] - want) <= 1e-10 * want, m


@pytest.mark.parametrize(
    "s_tilde, s2", [(0.0, 0.9), (0.5, 0.8), (0.0, 0.99), (0.25, 0.99), (0.0, 0.995), (0.0, 0.999)]
)
def test_topup_to_a_hot_target(s_tilde, s2):
    # cutoffs 305, 144, 3207, 6431 and 32,220 let the exact branch's rule
    # reach displacements whose photon law needs the rescaled recurrence,
    # and the Monte-Carlo law spreads over thousands of photon numbers, so
    # a bound of 3/sqrt(N) would fail here although the identity holds.
    # Each budget keeps 2x headroom over the case's time: 0.1-0.3 s, and
    # 1.9-2.5 s at s2 = 0.999
    start = time.perf_counter()
    rep = verify_noise_topup(s_tilde, s2, samples=2000)
    elapsed = time.perf_counter() - start
    assert rep.ok, rep
    assert rep.exact_max_err <= 1e-10
    assert elapsed < (6.0 if s2 > 0.995 else 2.0), elapsed


@pytest.mark.parametrize("s_tilde, s2, samples", [(0.0, 0.95, 2000), (0.25, 0.5, 1_000_000)])
def test_topup_memory_peak_is_bounded(s_tilde, s2, samples):
    # the law runs over blocks of displacements, never a (displacements x
    # cutoff) array: at s2 = 0.95 (cutoff 628) one such array of 2,000
    # samples would take 10 MB, and 10^6 draws alone take 8 MB (s2 = 0.999
    # is run untraced in test_topup_to_a_hot_target: tracing its 32,220-step
    # recurrence takes seconds)
    tracemalloc.start()
    try:
        assert verify_noise_topup(s_tilde, s2, samples=samples).ok
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4 << 20, peak


def test_topup_monte_carlo_bound_bites(monkeypatch):
    # the Monte-Carlo branch alone displaces thermal(s~ + 0.003) instead of
    # thermal(s~): its L1 gap is then 0.0026, past the bound of 0.0016 at
    # 10^6 samples, and within the old bound 3/sqrt(N) = 0.003
    true_fn = oracles._displaced_thermal_pmf

    def shifted(s, count, block, cutoff, squares=False):
        return true_fn(s + 0.003 if squares else s, count, block, cutoff, squares)

    monkeypatch.setattr(oracles, "_displaced_thermal_pmf", shifted)
    rep = verify_noise_topup(0.25, 0.5, samples=1_000_000)
    assert rep.exact_max_err <= 1e-10
    assert rep.mc_l1_err > rep.mc_tol and not rep.ok, rep


@pytest.mark.parametrize("weights", [None, 0.5])
def test_displaced_thermal_pmf_sums_over_blocks(monkeypatch, weights):
    # ten states in blocks of three: the weighted sums and sums of squares
    # match the single-state laws, with per-state weights and with one for all
    monkeypatch.setattr(oracles, "_LAW_BLOCK", 3)
    u = np.linspace(0.0, 30.0, 10)
    w = np.linspace(0.1, 1.0, 10) if weights is None else np.full(10, weights)
    rows = _law_rows(0.4, u, 60)
    got = _displaced_thermal_pmf(
        0.4, 10, lambda lo, hi: (u[lo:hi], w[lo:hi] if weights is None else weights), 60, squares=True
    )
    assert got.shape == (2, 61)
    assert np.max(np.abs(got - np.stack([w @ rows, w @ rows**2]))) <= 1e-15


@pytest.mark.parametrize("s", [0.0, 0.25, 0.7])
def test_displaced_thermal_pmf_undisplaced_is_thermal(s):
    got = _law_rows(s, [0.0], 80)[0]
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


def test_kernel_error_of_1e_9_fails_the_kernel_check(monkeypatch):
    # mutation check: both kernels' outputs scaled by 1 + 1e-9 (an entry
    # error of at most 5e-10 here) must fail kernel_vs_unitary, which
    # measures 8e-16 on the exact kernels; the old bound 1e-8 let it pass
    def scaled(kernel):
        def call(*args, **kwargs):
            return types.SimpleNamespace(probs=kernel(*args, **kwargs).probs * (1.0 + 1e-9))

        return call

    for name in ("attenuate_kernel", "amplify_kernel"):
        monkeypatch.setattr(oracles, name, scaled(getattr(oracles, name)))
    report = oracles._check_kernel_vs_unitary(np.random.default_rng(0), fast=True)
    assert report["ok"] is False
    assert 1e-12 < report["max_entry_err"] <= 1e-8


@pytest.mark.parametrize("fast", [True, False])
def test_case4_error_of_5e_11_fails_the_case4_bounds_check(monkeypatch, fast):
    # mutation check: case4_risk raised by 5e-11 must fail case4_bounds,
    # which measures about 6e-14 against case4_risk_quad; the old bound
    # 1e-10 let it pass
    true_fn = risk_mod.case4_risk
    rng = np.random.default_rng(0)
    assert oracles._check_case4_bounds(rng, fast)["ok"] is True
    monkeypatch.setattr(risk_mod, "case4_risk", lambda *args: true_fn(*args) + 5e-11)
    report = oracles._check_case4_bounds(rng, fast)
    assert report["ok"] is False
    assert 1e-11 < report["worst_quadrature_gap"] <= 1e-10


def test_vacuum_risk_error_of_1e_10_fails_the_optimality_check(monkeypatch):
    # mutation check: every search's vacuum risk shifted by 1e-10 (its
    # margin kept) must fail vacuum_optimality, which measures about 8e-14
    # against the closed form
    true_fn = oracles.ancilla_optimality_search
    rng = np.random.default_rng(0)
    report = oracles._check_vacuum_optimality(rng, fast=True)
    assert report["ok"] is True and report["vacuum_risk_err"] <= 1e-12

    def shifted(*args, **kwargs):
        rep = true_fn(*args, **kwargs)
        return dataclasses.replace(rep, vacuum_risk=rep.vacuum_risk + 1e-10)

    monkeypatch.setattr(oracles, "ancilla_optimality_search", shifted)
    report = oracles._check_vacuum_optimality(rng, fast=True)
    assert report["ok"] is False
    assert 1e-11 < report["vacuum_risk_err"] <= 2e-10


@pytest.mark.parametrize("fast", [True, False])
def test_gain_column_error_of_5e_11_fails_the_column_check(monkeypatch, fast):
    # mutation check: gain columns scaled by 1 + 5e-11 must fail
    # column_stochastic, which measures about 5e-14 on the exact kernel;
    # the old bound 1e-10 let it pass
    true_fn = oracles.gain_matrix
    rng = np.random.default_rng(0)
    assert oracles._check_column_stochastic(rng, fast)["ok"] is True
    monkeypatch.setattr(oracles, "gain_matrix", lambda *args: true_fn(*args) * (1.0 + 5e-11))
    report = oracles._check_column_stochastic(rng, fast)
    assert report["ok"] is False
    assert 1e-11 < report["amp_err"] <= 1e-10
