"""Brute-force oracles and the verification suite.

The analytic kernels and closed-form risks elsewhere in the package
rest on a chain of identities.  This module rebuilds the same objects
the slow honest way: channels as literal two-mode unitaries on a
truncated Fock space, optimality claims as direct searches over ancilla
states, the noise top-up as an averaged displacement mixture.  Every
construction measures its truncation instead of assuming it away.

run_verification_suite() packages the checks as JSON-ready reports for
the command-line `verify` subcommand.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from . import risk as risk_mod
from .channels import (
    _auto_out_cutoff,
    _nb_tail_start,
    amplify_kernel,
    attenuate_kernel,
    fock_ancilla_outputs,
    gain_matrix,
    gaussian_noise_topup,
    thinning_matrix,
)
from .fock import (
    DiagonalFockState,
    displacement_matrix,
    displacement_matrix_element,
    l1_distance,
    thermal_state,
)
from .params import (
    AMPLIFY,
    ATTENUATE,
    DEFAULT_SEED,
    channel_s_tilde,
    check_count,
    check_k,
    check_positive,
    check_thermal,
    kind_for_k,
    normalize_kind,
)

__all__ = [
    "DEFAULT_SEED",
    "AncillaCandidate",
    "OrderingReport",
    "OptimalityReport",
    "TopupReport",
    "CovarianceReport",
    "simulate_channel",
    "kraus_operators",
    "assemble_two_mode_unitary",
    "check_stochastic_ordering",
    "ancilla_optimality_search",
    "verify_noise_topup",
    "verify_covariance",
    "case4_risk_quad",
    "run_verification_suite",
    "SUITE_NAMES",
]

# ladder evolutions are accepted once the mass near the truncation edge
# is below this per unit column (the wavefront has not reached the wall);
# `_channel_outputs` lets a ladder whose inputs weigh at most w lose
# min(_OUTPUT_MASS / w, 1e-16), so n ladders lose at most n * 1e-18 of output
_EDGE_MASS = 1e-24
_OUTPUT_MASS = 1e-18
_EDGE_ROWS = 16
# longest squeezer ladder decomposed (its two half-size singular-vector
# matrices take about 0.27 GB); longer ones, at high gain or large photon
# numbers, are rejected up front
_MAX_LADDER = 1 << 13


def _thermal_cutoff(s: float, tail: float) -> int:
    """Smallest cutoff with thermal tail s^(cutoff+1) <= tail."""
    if s <= 0.0:
        return 0
    return max(0, math.ceil(math.log(tail) / math.log(s)) - 1)


class AncillaCandidate(DiagonalFockState):
    """Phase-invariant ancilla of the channel's dilation: a number-diagonal state."""

    @classmethod
    def vacuum(cls) -> "AncillaCandidate":
        return cls(np.array([1.0]))


# ---------------------------------------------------------------------------
# two-mode generators and their evolution


def _ladder_svd(offdiag: np.ndarray):
    """SVD C = U diag(sigma) V^T of the even-odd block of a ladder generator.

    The generator G (G[j+1, j] = offdiag[j] = -G[j, j+1]) has a zero
    diagonal, so it couples only even to odd ladder rows: reordered evens
    first, G = [[0, C], [-C^T, 0]] with C[i, i] = -offdiag[2i] and
    C[i+1, i] = offdiag[2i+1], a bidiagonal ceil(L/2) x floor(L/2) block
    (Golub & Kahan 1965).  U is square; for odd L its extra column has
    sigma = 0, which `sigma` carries as a trailing zero.
    """
    length = len(offdiag) + 1
    n_even, n_odd = (length + 1) // 2, length // 2
    block = np.zeros((n_even, n_odd))
    diag, below = np.arange(n_odd), np.arange(n_even - 1)
    block[diag, diag] = -offdiag[0::2]
    block[below + 1, below] = offdiag[1::2]
    u, sigma, vt = np.linalg.svd(block)
    return u, np.concatenate((sigma, np.zeros(n_even - n_odd))), vt.T


def _ladder_evolve(offdiag: np.ndarray, r: float, cols) -> np.ndarray:
    """Columns `cols` of exp(r G) for the real antisymmetric tridiagonal G
    with G[j+1, j] = offdiag[j] = -G[j, j+1].

    With G = [[0, C], [-C^T, 0]] on (even rows, odd rows) and C = U S V^T
    (`_ladder_svd`), exp(r G) is exactly the four half-size blocks
    [[U cos(rS) U^T, U sin(rS) V^T], [-V sin(rS) U^T, V cos(rS) V^T]]: an
    even column reads a row of U, an odd one a row of V.  At r = 0 the
    result is exactly I[:, cols].
    """
    length = len(offdiag) + 1
    cols = np.asarray(cols)
    if r == 0.0:
        return np.eye(length)[:, cols]
    u, sigma, v = _ladder_svd(offdiag)
    n_odd = v.shape[0]
    cos, sin = np.cos(r * sigma), np.sin(r * sigma)
    even = cols % 2 == 0
    # each column in the singular bases, x for the even rows and y for the
    # odd ones: column 2l reads row l of U, column 2l+1 row l of V
    u_rows, v_rows = u[cols[even] // 2].T, v[cols[~even] // 2].T
    x = np.zeros((len(sigma), len(cols)))
    y = np.empty((n_odd, len(cols)))
    x[:, even] = cos[:, None] * u_rows
    y[:, even] = -sin[:n_odd, None] * u_rows[:n_odd]
    x[:n_odd, ~even] = sin[:n_odd, None] * v_rows
    y[:, ~even] = cos[:n_odd, None] * v_rows
    out = np.empty((length, len(cols)))
    out[0::2] = u @ x
    out[1::2] = v @ y
    return out


def _bs_block(theta: float, total: int) -> np.ndarray:
    """Beamsplitter unitary on the conserved-total block span{|total-j, j>}.

    The generator theta (a^dag b - a b^dag) is real antisymmetric and
    tridiagonal on the block (a b^dag |total-j, j> = sqrt((total-j)(j+1))
    |total-j-1, j+1>), so `_ladder_evolve` exponentiates it exactly, from
    one SVD of its half-size even-odd block, and the block is orthogonal
    to rounding.  One decomposition per call; nothing is kept between
    calls.
    """
    j = np.arange(total)
    offdiag = -np.sqrt((total - j) * (j + 1.0))
    return _ladder_evolve(offdiag, theta, np.arange(total + 1))


def _tms_length(r: float, a0: int, t_max: int, n_cols: int, edge: float = _EDGE_MASS) -> int:
    """Squeezer ladder length whose last `_EDGE_ROWS` rows carry < `edge`.

    Column t0 of the evolved ladder spreads over rows t0 + t like a
    negative binomial in t with ratio q = tanh^2 r = 1 - 1/k^2; for
    t0 = 0 it is exactly NB_n(t) = C(n+t, t) q^t (1-q)^(n+1), n = a0.
    For larger t0 the leading term of the tail is at most C(n, t0)
    NB_n(t - t0) at n = a0 + 2 t0, so the rule takes the heaviest
    column, t0 = t_max, with that factor times the column count as its
    scale.  The edge window starts where `channels._nb_tail_start`, the
    one negative-binomial tail rule, cuts that scaled law at `edge` (see
    `_ladders` for the weighted edge); the edge test in `_tms_columns`
    certifies the result against the same edge.  When q rounds to 1 the
    length returned is far past `_MAX_LADDER`.
    """
    if r == 0.0:
        return t_max + 1 + _EDGE_ROWS
    # q and 1 - q = 1/k^2 in log form, finite up to the largest float k
    log_q, log_1q = 2.0 * math.log(math.tanh(r)), -2.0 * math.log(math.cosh(r))
    n = a0 + 2 * t_max
    lgamma = math.lgamma
    log_scale = lgamma(n + 1) - lgamma(t_max + 1) - lgamma(n - t_max + 1) + math.log(n_cols)
    return t_max + _nb_tail_start(n, log_q, log_1q, log_scale, math.log(edge)) + _EDGE_ROWS


def _tms_columns(r: float, a0: int, col_indices, edge: float = _EDGE_MASS) -> np.ndarray:
    """Evolved squeezer columns |a0+t, t> -> ladder amplitudes.

    The generator on the ladder span{|a0+j, j>} is real antisymmetric
    tridiagonal and is exponentiated exactly by `_ladder_evolve`.  The
    ladder length comes from `_tms_length`, and the edge-mass test
    certifies it: the mass past the ladder is below `edge`, so the
    returned amplitudes agree with the untruncated evolution.  A ladder
    that fails the test is doubled.  Raises ValueError naming k when the
    ladder would need more than `_MAX_LADDER` rows.
    """
    t_max = max(col_indices)
    length = _tms_length(r, a0, t_max, len(col_indices), edge)
    while length <= _MAX_LADDER:
        j = np.arange(length - 1)
        offdiag = np.sqrt((a0 + j + 1.0) * (j + 1.0))
        cols = _ladder_evolve(offdiag, r, col_indices)
        if float(np.sum(cols[-_EDGE_ROWS:, :] ** 2)) <= edge:
            return cols
        length *= 2
    raise ValueError(
        f"k must keep each squeezer ladder within {_MAX_LADDER} rows; k = {math.cosh(r):.6g} "
        f"needs {length} or more for |{a0}+t, t>, t <= {t_max}"
    )


def _ladders(kind: str, k: float, na: np.ndarray, nb: np.ndarray, weights=None):
    """Yield (sel, m, j, cols) for every ladder the joint states |na[i], nb[i]> sit on.

    sel holds the positions of the inputs the ladder serves, in order;
    column c of cols is input sel[c] evolved, and row t of cols is the
    amplitude of |m[t], j[t]>.  The beamsplitter conserves the total
    na + nb, and its ladder is the whole block |total - t, t>.  The
    squeezer conserves the difference d = na - nb, and its ladder
    |max(d, 0) + t, max(-d, 0) + t> is as long as its negative-binomial
    tail bound says (`_tms_length`) and certified by its edge mass, so
    rows past it carry less than its edge and read as zero; it may end
    before or after a caller's cutoff.  The edge is `_EDGE_MASS`, or, given
    `weights` (each input's largest absolute weight) and the heaviest w of
    both sectors, min(1e-18 / w, 1e-16): the output mass past n ladders is
    then at most n * 1e-18, below the rounding of every reported value.
    Sectors d and -d have the same generator (off-diagonal
    sqrt((|d|+t+1)(t+1))), so both are read from one decomposition
    (`_ladder_svd`) over the union of their inputs.
    """
    if kind == ATTENUATE:
        theta, total = math.acos(k), na + nb
        for s in np.unique(total):
            sel, t = np.flatnonzero(total == s), np.arange(s + 1)
            yield sel, s - t, t, _bs_block(theta, int(s))[:, nb[sel]]
        return
    r, d, index = math.acosh(k), na - nb, np.minimum(na, nb)
    for a in np.unique(np.abs(d)):
        near = np.abs(d) == a
        idx = np.unique(index[near])
        w = None if weights is None else float(weights[near].max())
        edge = _EDGE_MASS if w is None else _OUTPUT_MASS / w if w > 1e-2 else 1e-16
        cols = _tms_columns(r, int(a), idx, edge)
        t = np.arange(cols.shape[0])
        for sector in dict.fromkeys((a, -a)):
            sel = np.flatnonzero(d == sector)
            if sel.size:
                yield sel, max(sector, 0) + t, max(-sector, 0) + t, cols[:, np.searchsorted(idx, index[sel])]


def _channel_outputs(kind: str, k: float, probs: np.ndarray, taus: np.ndarray) -> np.ndarray:
    """Output laws of every (input, ancilla) pair, one pass over `_ladders`.

    probs (P, n_in+1) and taus (Q, k_anc+1) stack the input and ancilla
    photon-number laws.  Returns the output laws (P, Q, rows) over every
    row a ladder reaches.  Squeezer ladders are sized to the weight they
    carry: a joint input's largest input times largest ancilla probability.
    """
    P, Q = probs.shape[0], taus.shape[0]
    # every (n, kap) level pair with weight in some input and some ancilla
    live_n = np.flatnonzero(np.any(probs != 0.0, axis=0))
    live_kap = np.flatnonzero(np.any(taus != 0.0, axis=0))
    n, kap = np.repeat(live_n, live_kap.size), np.tile(live_kap, live_n.size)
    parts = []
    weights = probs[:, n].max(axis=0) * taus[:, kap].max(axis=0)
    for sel, m, _, cols in _ladders(kind, k, n, kap, weights):
        # pair weights, one row per column and one entry per (input, ancilla)
        w = probs[:, n[sel]].T[:, :, None] * taus[:, kap[sel]].T[:, None, :]
        parts.append((m, (cols * cols) @ w.reshape(sel.size, P * Q)))
    out = np.zeros((1 + max(int(m.max()) for m, _ in parts), P * Q))
    for m, mass in parts:
        out[m] += mass
    return out.T.reshape(P, Q, -1)


def simulate_channel(
    kind: str,
    k: float,
    state: DiagonalFockState,
    ancilla: DiagonalFockState,
    cutoff: int,
) -> DiagonalFockState:
    """Channel output by explicit two-mode unitary evolution.

    Couples the (truncated) input to the ancilla with a beamsplitter
    rotation (attenuation, k = cos theta) or a two-mode squeezer
    (amplification, k = cosh r), evolved one conserved ladder at a time
    (`_ladders`), then traces out the ancilla mode.  The output holds
    photon numbers 0 .. `cutoff`; its tail bound is the input's and the
    ancilla's plus the output mass the ladders carry beyond `cutoff`.
    """
    kind = normalize_kind(kind)
    k = check_k(kind, k, closed=True)
    cutoff = check_count("cutoff", cutoff)
    out = _channel_outputs(kind, k, state.probs[None], ancilla.probs[None])[0, 0]
    probs = np.zeros(cutoff + 1)
    probs[: out.size] = out[: cutoff + 1]
    tail = state.tail_bound + ancilla.tail_bound + float(out[cutoff + 1 :].sum())
    return DiagonalFockState(probs, tail)


def _kraus_diagonals(kind: str, k: float, in_cutoff: int) -> tuple[np.ndarray, np.ndarray]:
    """The one nonzero diagonal of each vacuum-ancilla Kraus operator B_j.

    B_j[m, n] is the amplitude of |m, j> in the evolved |n, 0>, and the
    ladder of |n, 0> holds one row per j, so B_j moves |n> to that row's m
    alone.  Returns (rows, amps) of shape (levels, in_cutoff + 1) with
    B_j[rows[j, n], n] = amps[j, n]; entries no ladder reaches hold
    amplitude 0 and row 0.
    """
    n = np.arange(in_cutoff + 1)
    ladders = list(_ladders(kind, k, n, np.zeros_like(n)))
    shape = (1 + max(int(j.max()) for _, _, j, _ in ladders), n.size)
    rows, amps = np.zeros(shape, dtype=int), np.zeros(shape)
    for sel, m, j, cols in ladders:
        rows[j[:, None], sel] = m[:, None]
        amps[j[:, None], sel] = cols
    return rows, amps


def _kraus_sum(rows: np.ndarray, amps: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Sum_j B_j rho B_j^T over the single-diagonal B_j of `_kraus_diagonals`.

    B_j rho B_j^T is (b_j b_j^T o rho) shifted by j along both axes, so
    the sum is one scatter over every (j, n, n') onto the flat output
    index rows[j, n] * size + rows[j, n'].  A 1-D rho is the diagonal of
    a number-diagonal state; its image is diagonal and comes back as a
    vector.
    """
    size = int(rows.max()) + 1
    if rho.ndim == 1:
        return np.bincount(rows.ravel(), (amps * amps * rho).ravel(), size)
    flat = (rows[:, :, None] * size + rows[:, None, :]).ravel()
    mass = ((amps[:, :, None] * amps[:, None, :]) * rho).ravel()
    real = np.bincount(flat, mass.real, size * size)
    imag = np.bincount(flat, mass.imag, size * size)
    return (real + 1j * imag).reshape(size, size)


def kraus_operators(kind: str, k: float, in_cutoff: int) -> list[np.ndarray]:
    """Vacuum-ancilla Kraus operators B_j of the channel, from the unitary.

    B_j[m, n] is the amplitude of |m, j> in the evolved |n, 0> (`_ladders`):
    B_j loses j photons under attenuation and gains them under
    amplification.  Rows m and levels j run over every state a ladder
    reaches; entries past a certified squeezer ladder carry less than
    `_EDGE_MASS` and are zero.  Each B_j is the dense scatter of its one
    diagonal from `_kraus_diagonals`.
    """
    kind = normalize_kind(kind)
    k = check_k(kind, k, closed=True)
    in_cutoff = check_count("in_cutoff", in_cutoff)
    rows, amps = _kraus_diagonals(kind, k, in_cutoff)
    j, n = np.indices(amps.shape)
    ops = np.zeros((amps.shape[0], int(rows.max()) + 1, amps.shape[1]))
    ops[j, rows, n] = amps
    return list(ops)


def assemble_two_mode_unitary(kind: str, k: float, cutoff: int) -> tuple[np.ndarray, float]:
    """Dense two-mode unitary restricted to n_a, n_b <= cutoff.

    Entries come from fully converged ladder evolutions (`_ladders`), so
    the returned matrix is the restriction of the untruncated unitary;
    the accompanying number is the largest column mass lost to the
    restriction (exactly 0 for complete beamsplitter blocks).
    """
    kind = normalize_kind(kind)
    k = check_k(kind, k, closed=True)
    cutoff = check_count("cutoff", cutoff)
    size = cutoff + 1
    U = np.zeros((size * size, size * size))
    max_leak = 0.0
    # input |na, nb> is column na * size + nb, its position in the divmod order
    for sel, m, j, cols in _ladders(kind, k, *np.divmod(np.arange(size * size), size)):
        keep = (m <= cutoff) & (j <= cutoff)
        block = cols[keep]
        U[np.ix_(m[keep] * size + j[keep], sel)] = block
        max_leak = max(max_leak, 1.0 - float(np.min(np.sum(block * block, axis=0))))
    return U, max_leak


# ---------------------------------------------------------------------------
# ordering, optimality, noise top-up, covariance


class _Report:
    """Shared serializer of the oracle reports: every field, then `ok`."""

    def as_dict(self) -> dict:
        return _jsonable({**asdict(self), "ok": self.ok})


def _ordered(margin: float) -> bool:
    """A CDF margin within rounding of the partial sums counts as ordered."""
    return margin >= -1e-12


@dataclass(frozen=True)
class OrderingReport(_Report):
    """Partial-sum (stochastic-ordering) comparison of ancilla outputs."""

    kind: str
    k: float
    s1: float
    kappa_max: int
    worst_margin: float
    witness: Optional[tuple[int, int]]

    @property
    def ok(self) -> bool:
        return _ordered(self.worst_margin)


def check_stochastic_ordering(
    kind: str, k: float, s1: float, kappa_max: int
) -> OrderingReport:
    """Verify the vacuum output is stochastically smallest among Fock ancillas.

    The output laws for ancillas |0>, ..., |kappa_max> come from
    channels.fock_ancilla_outputs (loss followed by amplification, seen
    from the ancilla; run_verification_suite checks that law against the
    two-mode unitary).  For every level and every photon count m the
    vacuum-output CDF must dominate: sum_{l<=m} p0_l >= sum_{l<=m}
    pkappa_l.  Returns the worst margin and, if it is negative beyond
    rounding, the (kappa, m) witness.
    """
    kappa_max = check_count("kappa_max", kappa_max, least=1)
    cdf = np.cumsum(fock_ancilla_outputs(kind, k, s1, kappa_max), axis=0)
    # rows kappa, columns m; argmin takes the first (kappa, m) at the minimum
    margins = (cdf[:, :1] - cdf).T
    kappa, m = np.unravel_index(int(np.argmin(margins)), margins.shape)
    worst = float(margins[kappa, m])
    witness = None if _ordered(worst) else (int(kappa), int(m))
    return OrderingReport(normalize_kind(kind), float(k), float(s1), kappa_max, worst, witness)


@dataclass(frozen=True)
class OptimalityReport(_Report):
    """Search result over ancilla candidates against the vacuum baseline."""

    kind: str
    k: float
    s1: float
    s2: float
    max_level: int
    samples: int
    vacuum_risk: float
    best_risk: float
    best_weights: tuple[float, ...]
    margin: float

    @property
    def ok(self) -> bool:
        return self.margin >= -1e-9


def ancilla_optimality_search(
    kind: str,
    k: float,
    s1: float,
    s2: float,
    max_level: int = 6,
    samples: int = 10_000,
    seed: int = DEFAULT_SEED,
) -> OptimalityReport:
    """Sample ancillas on the Fock simplex and compare risks to the vacuum.

    Candidates are all simplex vertices (pure Fock ancillas up to
    max_level) plus `samples` Dirichlet-uniform draws.  The channel is
    linear in the ancilla, so each candidate's output is the matching
    mixture of the pure-level outputs, which come from one pass over the
    ladders (`_ladders`, one decomposition each, shared by every level);
    the risk is the L1 distance to the thermal target.  The report's `ok`
    fails when a candidate beats the vacuum beyond rounding.
    """
    kind = normalize_kind(kind)
    k = check_k(kind, k, closed=True)
    s1 = check_thermal("s1", s1)
    s2 = check_thermal("s2", s2)
    max_level = check_count("max_level", max_level)
    samples = check_count("samples", samples)
    seed = check_count("seed", seed)
    src = thermal_state(s1, _thermal_cutoff(s1, 1e-13))
    pure_outs = _channel_outputs(kind, k, src.probs[None], np.eye(max_level + 1))[0]
    target = thermal_state(s2, pure_outs.shape[1] - 1)

    rng = np.random.default_rng([seed, 7])
    weights = np.vstack(
        [np.eye(max_level + 1), rng.dirichlet(np.ones(max_level + 1), size=samples)]
    )
    # in place: the (candidates x rows) block is the search's largest array
    diff = weights @ pure_outs
    diff -= target.probs
    # past the ladders the outputs vanish and only the target's tail is left
    dists = np.abs(diff, out=diff).sum(axis=1) + target.tail_bound
    vacuum = float(dists[0])
    best_idx = int(np.argmin(dists))
    best = float(dists[best_idx])
    return OptimalityReport(
        kind,
        float(k),
        float(s1),
        float(s2),
        max_level,
        samples,
        vacuum,
        best,
        tuple(float(w) for w in weights[best_idx]),
        best - vacuum,
    )


# displaced thermal states per block of the weighted photon law: sized
# for the cache, not the cutoff, so memory stays O(block + cutoff)
_LAW_BLOCK = 20_000


def _displaced_thermal_pmf(s: float, count: int, block, cutoff: int, squares: bool = False) -> np.ndarray:
    """Rows sum_i w_i P(m | u_i) and, with `squares`, sum_i w_i P(m | u_i)^2, m = 0..cutoff,
    over `count` displaced thermal states; block(lo, hi) returns u = |alpha|^2 and
    weights w (an array, or one number for all) of states lo..hi-1, called in order
    over blocks of `_LAW_BLOCK` states.
    P(m) = (1-s) exp(-(1-s) u) T_m with T_m = s^m L_m(-u (1-s)^2 / s),
    from the stable upward recurrence
    (m+1) T_(m+1) = ((2m+1) s + (1-s)^2 u) T_m - m s^2 T_(m-1), T_0 = 1;
    at s = 0 it gives T_m = u^m / m!, the Poisson law.  T_m can grow
    like exp((1-s) u) while the prefactor underflows, so once T_m may
    pass 1e200 the states above 1 are divided down to 1 and the factor
    moves into the prefactor, in logs.
    """
    sums = np.zeros((1 + squares, cutoff + 1))
    for lo in range(0, count, _LAW_BLOCK):
        u, w = block(lo, min(lo + _LAW_BLOCK, count))
        uniform = np.ndim(w) == 0  # one weight for every state (the Monte-Carlo draws): sum, then scale
        prefac = (1.0 - s) * np.exp(-(1.0 - s) * u)
        log_prefac = None  # built at the first rescaling
        drift = (1.0 - s) ** 2 * u
        # updated in place: a fresh block-sized array per step churns the allocator
        t_prev, t_cur, t_next, p = np.zeros_like(u), np.ones_like(u), np.empty_like(u), prefac.copy()
        # every state's T_m stays below `bound`, as the subtracted term is >= 0
        bound, top = 1.0, float(np.max(drift, initial=0.0))
        for m in range(cutoff + 1):
            if m:
                np.add(drift, (2 * m - 1) * s, out=t_next)
                t_next *= t_cur
                t_prev *= (m - 1) * s * s
                t_next -= t_prev
                t_next /= m
                t_prev, t_cur, t_next = t_cur, t_next, t_prev
                bound *= ((2 * m - 1) * s + top) / m
                if bound > 1e200:
                    if log_prefac is None:
                        log_prefac = math.log1p(-s) - (1.0 - s) * u
                    big = t_cur > 1.0
                    t_prev[big] /= t_cur[big]
                    log_prefac[big] += np.log(t_cur[big])
                    prefac[big] = np.exp(log_prefac[big])
                    t_cur[big] = bound = 1.0
                np.multiply(prefac, t_cur, out=p)
            sums[0, m] += w * p.sum() if uniform else w @ p
            if squares:
                sums[1, m] += w * (p @ p) if uniform else w @ (p * p)
    return sums


@dataclass(frozen=True)
class TopupReport(_Report):
    """Noise top-up verification: exact mixture and Monte-Carlo agreement."""

    s_tilde: float
    s2: float
    v: float
    exact_max_err: float
    mc_l1_err: float
    mc_tol: float
    samples: int

    @property
    def ok(self) -> bool:
        return self.exact_max_err <= 1e-10 and self.mc_l1_err <= self.mc_tol


# 8-point Gauss-Legendre nodes and weights: every oracle integral's panel rule
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)
_REFINE_LEVELS = 6


def _panel_nodes(lo, width, panels: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of `panels` Gauss-Legendre panels of `width` from `lo`, on a last axis."""
    x = width * np.repeat(np.arange(panels), 8) + 0.5 * width * np.tile(_GL_NODES + 1.0, panels)
    return x + lo, 0.5 * width * np.tile(_GL_WEIGHTS, panels)


def _refine(rule, tol: float, norm) -> tuple[np.ndarray, float]:
    """rule(0), rule(1), ... (level j halves the panel width j times) until the gap
    `norm`(|rule(j) - rule(j - 1)|) is within `tol`, at most `_REFINE_LEVELS` times over;
    returns the finer result and its gap, which bounds its error while the rule converges."""
    fine = rule(0)
    for level in range(1, _REFINE_LEVELS + 1):
        coarse, fine = fine, rule(level)
        gap = float(norm(np.abs(fine - coarse)))
        if gap <= tol:
            break
    return fine, gap


def _topup_rule(s_tilde: float, v: float, cutoff: int, h: float) -> np.ndarray:
    """Exact top-up law on Gauss-Legendre panels of width h in t.

    With |alpha|^2 = t^2 the weight is (2t / v) exp(-t^2 / v), and the law
    of photon number m peaks near t = sqrt(m) with a width that does not
    grow with m, so fixed panels resolve every m.  The panels end at
    t = sqrt(v ln 1e18): the weight past it has mass 1e-18, and the law
    is at most 1.
    """
    t, weight = _panel_nodes(0.0, h, math.ceil(math.sqrt(v * math.log(1e18)) / h))
    weight = weight * (2.0 * t / v) * np.exp(-t * t / v)
    return _displaced_thermal_pmf(s_tilde, t.size, lambda lo, hi: (t[lo:hi] ** 2, weight[lo:hi]), cutoff)[0]


def verify_noise_topup(
    s_tilde: float, s2: float, samples: int = 1_000_000, seed: int = DEFAULT_SEED
) -> TopupReport:
    """Check that displacement noise of variance v fills thermal(s~) to thermal(s2).

    Exact branch: average the displaced-thermal photon law over the
    exponential law of |alpha|^2 = t^2 (mean v) with the panel rule of
    `_topup_rule` in t, and compare to thermal(s2) at 1e-10.  The rule's
    error is estimated against the rule at half the panel width
    (`_refine`, the loop the case-4 and classical quadratures share): h
    starts at min(1, sqrt(v)), the width of the weight, and halves (at
    most six times) until the two agree to 1e-13 in every photon number;
    the finer result is compared.  Monte-Carlo branch: average the photon
    law over N = `samples` drawn displacements.  Error model: the mean in
    photon number m errs by about sigma_m Z / sqrt(N), Z standard normal and
    sigma_m the standard deviation of P(m | u) over the same draws, so the
    expected L1 gap is sqrt(2/pi) sum_m sigma_m / sqrt(N); it must stay within
    `mc_tol` = 4 sum_m sigma_m / sqrt(N) (0 for one draw).  Both branches run
    through one weighted pass (`_displaced_thermal_pmf`).
    """
    v = gaussian_noise_topup(s_tilde, s2)
    samples = check_count("samples", samples, least=1)
    seed = check_count("seed", seed)
    cutoff = max(_thermal_cutoff(s2, 1e-14), 20)
    target = thermal_state(s2, cutoff).probs
    if v == 0.0:
        src = thermal_state(s_tilde, cutoff).probs
        err = float(np.max(np.abs(src - target)))
        return TopupReport(s_tilde, s2, v, err, err, 3.0 / math.sqrt(samples), samples)

    h = min(1.0, math.sqrt(v))
    mixed, _ = _refine(lambda level: _topup_rule(s_tilde, v, cutoff, h / 2**level), 1e-13, np.max)
    exact_err = float(np.max(np.abs(mixed - target)))

    rng = np.random.default_rng([seed, 11])
    sums, squares = _displaced_thermal_pmf(
        s_tilde, samples, lambda lo, hi: (rng.exponential(v, size=hi - lo), 1.0), cutoff, squares=True
    )
    mc = sums / samples
    mc_err = float(np.sum(np.abs(mc - target)))
    sigma = np.sqrt(np.maximum(squares - sums * mc, 0.0) / max(samples - 1, 1))
    mc_tol = 4.0 * float(np.sum(sigma)) / math.sqrt(samples)
    return TopupReport(float(s_tilde), float(s2), float(v), exact_err, mc_err, mc_tol, samples)


@dataclass(frozen=True)
class CovarianceReport(_Report):
    """Displacement covariance of the simulated channel."""

    kind: str
    k: float
    s1: float
    alphas: tuple[complex, ...]
    max_trace_norm: float
    gain_err: float

    @property
    def ok(self) -> bool:
        return self.max_trace_norm <= 1e-6 and self.gain_err <= 1e-6


def verify_covariance(
    kind: str,
    k: float,
    alpha_grid,
    s1: float = 0.5,
    in_cutoff: int = 48,
) -> CovarianceReport:
    """Check the channel commutes with displacements: E(D ρ D†) = D' E(ρ) D'†.

    For each alpha on the grid the channel (as Kraus operators extracted
    from the two-mode unitary, on every output row their ladders reach)
    is applied to the displaced thermal state and compared, in trace
    norm, against the displaced-by-k*alpha image of the undisplaced
    output.  Each B_j shifts photon number by exactly j (its one nonzero
    diagonal, `_kraus_diagonals`), so B_j rho B_j^T is b_j b_j^T o rho
    shifted by j along both axes and the Kraus sum is one scatter
    (`_kraus_sum`); the undisplaced output is diagonal and is kept as a
    vector.  Also extracts the output displacement of the principal mode,
    <a> = sum_m sqrt(m) rho[m, m-1]; its deviation from k * alpha is
    reported.  Zero points compare nothing, so the grid needs at least
    one nonzero point.
    """
    kind = normalize_kind(kind)
    k = check_k(kind, k, closed=True)
    s1 = check_thermal("s1", s1)
    in_cutoff = check_count("in_cutoff", in_cutoff)
    alphas = tuple(complex(a) for a in alpha_grid)
    # written so that NaN fails too: every comparison with NaN is False
    if not all(abs(a) <= 2.0 for a in alphas):
        raise ValueError(f"alpha_grid must hold finite points with |alpha| <= 2, got {alphas}")
    if not any(alphas):
        raise ValueError(f"alpha_grid must hold a nonzero point, got {alphas}")
    rows, amps = _kraus_diagonals(kind, k, in_cutoff)
    p_th = thermal_state(s1, in_cutoff).probs
    out0 = _kraus_sum(rows, amps, p_th)
    out_dim = out0.size
    root_m = np.sqrt(np.arange(1.0, out_dim))

    worst = 0.0
    gain_err = 0.0
    for alpha in alphas:
        if alpha == 0:
            continue
        d_in = displacement_matrix(alpha, in_cutoff + 1)
        out_sim = _kraus_sum(rows, amps, (d_in * p_th) @ d_in.conj().T)
        d_out = displacement_matrix(k * alpha, out_dim)
        out_ref = (d_out * out0) @ d_out.conj().T
        diff = out_sim - out_ref
        diff = 0.5 * (diff + diff.conj().T)
        worst = max(worst, float(np.sum(np.abs(np.linalg.eigvalsh(diff)))))
        mean_out = complex(root_m @ np.diagonal(out_sim, -1))
        gain_err = max(gain_err, abs(mean_out - k * alpha))
    return CovarianceReport(kind, float(k), float(s1), alphas, worst, gain_err)


# ---------------------------------------------------------------------------
# independent quadrature for the doubly-exceeded-regime series

# Half-width of the quadrature window in units of the larger standard
# deviation; the omitted Gaussian mass at 8 sigma is below 1.3e-15.
_TAIL_SIGMAS = 8.0
# absolute error case4_risk_quad certifies, quadrature estimates and tail
_QUAD_TOL = 1e-12
# most photon-number terms case4_risk_quad sums; longer series are rejected
_MAX_TERMS = 1 << 18
# panels a side of a row's density crossing at the first level
_ABS_DIFF_PANELS = 4
# photon numbers per quadrature block: 2^21 nodes at the finest level
_CASE4_BLOCK = 512


def _abs_diff_rule(c1, sig1, c2, sig2, length) -> tuple[np.ndarray, float]:
    """Integral of |c1 N(0,sig1^2) - c2 N(0,sig2^2)| over [-length, length], per row.

    The arguments broadcast over rows; the even integrand is integrated
    over [0, length] and doubled.  Each row is split where its densities
    cross (at length / 2 where they do not cross inside), so the
    integrand is analytic on each side and Gauss-Legendre panels converge
    exponentially.  `_ABS_DIFF_PANELS` panels a side, doubled (`_refine`)
    until the rows' summed gap is within _QUAD_TOL / 4 of their weight
    sum(c1 + c2).  Returns (values, that gap).
    """
    # rows on the first axis, then the two sides, then the nodes
    args = np.broadcast_arrays(c1, sig1, c2, sig2, length)
    c1, sig1, c2, sig2, length = (a[..., None, None] for a in args)
    # squared crossing; nan or inf where a weight is zero or sig1 = sig2
    with np.errstate(divide="ignore", invalid="ignore"):
        cross2 = 2.0 * (sig1 * sig2) ** 2 * np.log(c2 * sig1 / (c1 * sig2)) / (sig1**2 - sig2**2)
        inside = (cross2 > 0.0) & (cross2 < length * length)
        split = np.where(inside, np.sqrt(np.where(inside, cross2, 0.0)), 0.5 * length)
    lo = np.concatenate((np.zeros_like(split), split), axis=-2)
    width = np.concatenate((split, length - split), axis=-2)

    def rule(level: int) -> np.ndarray:
        panels = _ABS_DIFF_PANELS << level
        x, w = _panel_nodes(lo, width / panels, panels)
        g1 = c1 / sig1 * np.exp(-0.5 * (x / sig1) ** 2)
        g2 = c2 / sig2 * np.exp(-0.5 * (x / sig2) ** 2)
        return math.sqrt(2.0 / math.pi) * np.sum(w * np.abs(g1 - g2), axis=(-2, -1))

    return _refine(rule, 0.25 * _QUAD_TOL * float(np.sum(c1 + c2)), np.sum)


def case4_risk_quad(s_t: float, s2: float, var1: float, var2: float) -> float:
    """Joint product-law L1 distance by a panel quadrature per photon number.

    Independent of risk.case4_risk's closed-form terms: each term
    |A_n N(0,var1) - B_n N(0,var2)| is integrated by `_abs_diff_rule` over
    +-8 standard deviations, in blocks of `_CASE4_BLOCK` photon numbers.  The series
    stops once s_t^n and s2^n are within _QUAD_TOL / 16.  Error contract:
    the blocks' summed gaps (at most _QUAD_TOL / 2), the Gaussian mass
    outside the window and the dropped tail stay within _QUAD_TOL, else
    RuntimeError.  ValueError naming s_t and s2, before any integration,
    when the series needs more than `_MAX_TERMS` terms.
    """
    check_thermal("s_t", s_t)
    check_thermal("s2", s2)
    check_positive("var1", var1)
    check_positive("var2", var2)
    terms = math.ceil(math.log(_QUAD_TOL / 16) / math.log(max(s_t, s2, _QUAD_TOL / 16)))
    if terms > _MAX_TERMS:
        raise ValueError(
            f"s_t and s2 must keep the case-4 series within {_MAX_TERMS} terms; "
            f"s_t = {s_t!r}, s2 = {s2!r} need {terms}"
        )
    sig1, sig2 = math.sqrt(var1), math.sqrt(var2)
    length = _TAIL_SIGMAS * max(sig1, sig2)
    A, B = ((1.0 - s) * s ** np.arange(terms) for s in (s_t, s2))
    blocks = [
        _abs_diff_rule(A[i : i + _CASE4_BLOCK], sig1, B[i : i + _CASE4_BLOCK], sig2, length)
        for i in range(0, terms, _CASE4_BLOCK)
    ]
    window = math.erfc(_TAIL_SIGMAS / math.sqrt(2.0)) * float(np.sum(A + B))
    err = sum(gap for _, gap in blocks) + window + s_t**terms + s2**terms
    if err > _QUAD_TOL:
        raise RuntimeError(f"quadrature error {err:.3e} exceeds requested {_QUAD_TOL:.3e}")
    return min(sum(float(np.sum(vals)) for vals, _ in blocks), 2.0)


# ---------------------------------------------------------------------------
# verification suite


def _jsonable(value):
    """Coerce report payloads to plain JSON types."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, float) and math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return value


def _report(ok: bool, **details) -> dict:
    return _jsonable({"ok": bool(ok), **details})


def _check_fock_metric(rng: np.random.Generator, fast: bool) -> dict:
    trials = 50 if fast else 200
    worst_sym = 0.0
    worst_tri = 0.0
    worst_self = 0.0
    for _ in range(trials):
        cut = int(rng.integers(5, 40))
        raw = rng.random((3, cut + 1))
        states = [DiagonalFockState(row / row.sum()) for row in raw]
        pq = l1_distance(states[0], states[1]).value
        qp = l1_distance(states[1], states[0]).value
        pr = l1_distance(states[0], states[2]).value
        qr = l1_distance(states[1], states[2]).value
        worst_sym = max(worst_sym, abs(pq - qp))
        worst_tri = max(worst_tri, pq - (pr + qr))
        worst_self = max(worst_self, l1_distance(states[0], states[0]).value)
    elem = displacement_matrix_element(0, 0, 0.6 + 0.0j)
    elem_err = abs(elem - math.exp(-0.18))
    dim = 80
    D = displacement_matrix(0.8 + 0.3j, dim)
    gram = D.conj().T @ D
    block = 24
    unit_err = float(np.max(np.abs(gram[:block, :block] - np.eye(dim)[:block, :block])))
    ok = worst_sym <= 1e-12 and worst_tri <= 1e-12 and worst_self == 0.0 and elem_err <= 1e-12 and unit_err <= 1e-8
    return _report(
        ok,
        trials=trials,
        symmetry_err=worst_sym,
        triangle_err=worst_tri,
        self_distance=worst_self,
        displacement_elem_err=float(elem_err),
        displacement_unitarity_err=unit_err,
    )


def _check_thermal_fixed_family(rng: np.random.Generator, fast: bool) -> dict:
    ks_att = [0.3, 0.5, 0.9] if not fast else [0.5]
    ks_amp = [1.2, 1.5, 2.0] if not fast else [1.5]
    s_vals = [0.2, 0.5, 0.8] if not fast else [0.5]
    worst = 0.0
    for s1 in s_vals:
        cut = _thermal_cutoff(s1, 1e-16)
        src = thermal_state(s1, cut)
        for kind, kernel, ks in (
            (ATTENUATE, attenuate_kernel, ks_att),
            (AMPLIFY, amplify_kernel, ks_amp),
        ):
            for k in ks:
                got = kernel(k, src)
                want = thermal_state(channel_s_tilde(kind, s1, k), got.cutoff)
                worst = max(worst, float(np.max(np.abs(got.probs - want.probs))))
    return _report(worst <= 1e-12, max_entry_err=worst)


def _check_threshold_state_exact(rng: np.random.Generator, fast: bool) -> dict:
    pairs = [(ATTENUATE, 0.8, 0.4), (AMPLIFY, 0.4, 0.8)]
    extra = 2 if fast else 6
    for _ in range(extra):
        s1, s2 = sorted(rng.uniform(0.05, 0.9, size=2))[::-1]
        pairs.append((ATTENUATE, float(s1), float(s2)))
        pairs.append((AMPLIFY, float(s2), float(s1)))
    worst = 0.0
    for kind, s1, s2 in pairs:
        k0 = risk_mod.quantum_threshold(kind, s1, s2)
        cut = _thermal_cutoff(s1, 1e-16)
        src = thermal_state(s1, cut)
        got = attenuate_kernel(k0, src) if kind == ATTENUATE else amplify_kernel(k0, src)
        want = thermal_state(s2, got.cutoff)
        worst = max(worst, float(np.max(np.abs(got.probs - want.probs))))
    return _report(worst <= 1e-12, max_entry_err=worst, pairs=len(pairs))


def _check_attenuation_semigroup(rng: np.random.Generator, fast: bool) -> dict:
    cut = 40
    worst = 0.0
    trials = 3 if fast else 8
    for _ in range(trials):
        ka, kb = rng.uniform(0.2, 0.95, size=2)
        prod = thinning_matrix(float(kb), cut) @ thinning_matrix(float(ka), cut)
        direct = thinning_matrix(float(ka * kb), cut)
        worst = max(worst, float(np.max(np.abs(prod - direct))))
    return _report(worst <= 1e-10, max_entry_err=worst, trials=trials)


def _check_column_stochastic(rng: np.random.Generator, fast: bool) -> dict:
    cut = 30 if fast else 60
    worst_att = 0.0
    for k in (0.3, 0.7, 0.95):
        sums = thinning_matrix(k, cut).sum(axis=0)
        worst_att = max(worst_att, float(np.max(np.abs(sums - 1.0))))
    worst_amp = 0.0
    neg = 0.0
    for k in (1.2, 1.7):
        mat = gain_matrix(k, cut, _auto_out_cutoff(k * k, cut, k=k))
        neg = min(neg, float(mat.min()))
        sums = mat.sum(axis=0)
        worst_amp = max(worst_amp, float(np.max(np.abs(sums - 1.0))))
    # an amplifier column sum misses 1 by its certified cut (<= 1e-14) plus
    # `_binomial`'s rounding, eps * lgamma(m + 1) relative: < 4e-13 at m <= 364
    ok = worst_att <= 1e-12 and worst_amp <= 1e-11 and neg >= 0.0
    return _report(ok, att_err=worst_att, amp_err=worst_amp, min_entry=neg)


def _max_gap(a: np.ndarray, b: np.ndarray) -> float:
    """Largest entry gap between two output laws, on the rows both hold."""
    rows = min(a.shape[0], b.shape[0])
    return float(np.max(np.abs(a[:rows] - b[:rows])))


def _check_kernel_vs_unitary(rng: np.random.Generator, fast: bool) -> dict:
    cutoff = 40 if fast else 60
    ks = [0.5, 1.5] if fast else [0.3, 0.5, 0.9, 1.2, 1.5, 2.0]
    s_vals = [0.5] if fast else [0.2, 0.5, 0.8]
    srcs = [thermal_state(s1, cutoff) for s1 in s_vals]
    inputs = np.stack([src.probs for src in srcs])
    worst = 0.0
    for k in ks:
        # one pass over the ladders serves every s1 (vacuum ancilla)
        kind = kind_for_k(k)
        sims = _channel_outputs(kind, k, inputs, np.ones((1, 1)))[:, 0]
        for src, sim in zip(srcs, sims):
            if kind == ATTENUATE:
                kern = attenuate_kernel(k, src).probs
            else:
                kern = amplify_kernel(k, src, out_cutoff=cutoff).probs
            worst = max(worst, _max_gap(kern, sim))
    return _report(worst <= 1e-12, max_entry_err=worst, cutoff=cutoff, k_grid=ks, s1_grid=s_vals)


def _check_two_mode_unitarity(rng: np.random.Generator, fast: bool) -> dict:
    # the squeezer leaks ~ (1 - 1/k^2)^cutoff per column, so the gain is
    # kept small enough that low-lying columns are complete at 1e-12
    cutoff = 20 if fast else 25
    results = {}
    worst = 0.0
    for kind, k in ((ATTENUATE, 0.6), (AMPLIFY, 1.1)):
        U, leak = assemble_two_mode_unitary(kind, k, cutoff)
        gram = U.T @ U
        # columns whose sector fits entirely in the retained square are
        # exactly unitary; check the gram matrix restricted to them
        na, nb = np.divmod(np.arange((cutoff + 1) ** 2), cutoff + 1)
        full = (na + nb <= cutoff) if kind == ATTENUATE else (np.diag(gram) > 1.0 - 1e-12)
        keep = np.flatnonzero(full)
        if not keep.size:
            return _report(False, cutoff=cutoff, error="no complete columns")
        sub = gram[np.ix_(keep, keep)] - np.eye(keep.size)
        err = float(np.max(np.abs(sub)))
        worst = max(worst, err)
        results[f"{kind}_unitarity_err"] = err
        results[f"{kind}_max_leak"] = leak
        results[f"{kind}_complete_columns"] = int(keep.size)
    return _report(worst <= 1e-10, cutoff=cutoff, **results)


def _check_diagonal_output(rng: np.random.Generator, fast: bool) -> dict:
    # input sized so every conserved sector that matters fits the joint
    # square: total <= cutoff for the beamsplitter, and for the squeezer
    # every output (m, m - d) with m <= in_cutoff stays retained
    cutoff = 14
    anc = DiagonalFockState(np.array([0.6, 0.3, 0.1]))
    src = thermal_state(0.45, cutoff - anc.cutoff)
    size = cutoff + 1
    # diagonal product state (input tensor ancilla) on the joint basis
    joint = np.kron(src.padded(cutoff), anc.padded(cutoff))
    worst_offdiag = 0.0
    worst_gap = 0.0
    for kind, k in ((ATTENUATE, 0.7), (AMPLIFY, 1.3)):
        U, _ = assemble_two_mode_unitary(kind, k, cutoff)
        # U diag(joint) U^T, then the trace over the ancilla mode
        evolved = (U * joint) @ U.T
        reduced = np.einsum("abcb->ac", evolved.reshape(size, size, size, size))
        diag = np.diag(reduced)
        worst_offdiag = max(worst_offdiag, float(np.sum(np.abs(reduced - np.diag(diag)))))
        fast_path = simulate_channel(kind, k, src, anc, cutoff)
        upto = cutoff if kind == ATTENUATE else cutoff - anc.cutoff
        worst_gap = max(worst_gap, float(np.max(np.abs(diag[: upto + 1] - fast_path.probs[: upto + 1]))))
    ok = worst_offdiag <= 1e-12 and worst_gap <= 1e-12
    return _report(ok, offdiagonal_mass=worst_offdiag, fast_path_gap=worst_gap)


def _check_stochastic_ordering(rng: np.random.Generator, fast: bool) -> dict:
    n_grid = 6 if fast else 20
    s_vals = [0.5] if fast else [0.2, 0.5, 0.8]
    reps = [
        check_stochastic_ordering(kind, float(k), s1, 10)
        for s1 in s_vals
        for kind, k_lo, k_hi in ((ATTENUATE, 0.05, 0.95), (AMPLIFY, 1.05, 2.5))
        for k in np.linspace(k_lo, k_hi, n_grid)
    ]
    worst = min(reps, key=lambda rep: rep.worst_margin)
    # convexity: mixtures inherit the ordering from the pure levels
    mix_margins = []
    for _ in range(5 if fast else 15):
        w = rng.dirichlet(np.ones(6))
        k = float(rng.uniform(0.2, 0.9))
        cdf = np.cumsum(fock_ancilla_outputs(ATTENUATE, k, 0.5, 5), axis=0)
        mix_margins.append(float(np.min(cdf[:, 0] - cdf @ w)))
    # the ordered law itself, against the two-mode unitary
    law_err = 0.0
    src = thermal_state(0.5, _thermal_cutoff(0.5, 1e-14))
    for kind, k in ((ATTENUATE, 0.6), (AMPLIFY, 1.5)):
        outs = fock_ancilla_outputs(kind, k, 0.5, 10)
        ref = _channel_outputs(kind, k, src.probs[None], np.eye(11))[0].T
        law_err = max(law_err, _max_gap(ref, outs))
    ok = all(rep.ok for rep in reps) and all(map(_ordered, mix_margins)) and law_err <= 1e-12
    return _report(
        ok,
        worst_margin=worst.worst_margin,
        mixture_worst_margin=min(mix_margins),
        law_vs_unitary_err=law_err,
        witness=None if ok else repr((worst.kind, worst.k, worst.s1, worst.witness)),
        grid_points=n_grid,
    )


def _check_vacuum_optimality(rng: np.random.Generator, fast: bool) -> dict:
    if fast:
        settings = [(ATTENUATE, 0.6, 0.8, 0.4), (AMPLIFY, 2.1, 0.4, 0.8)]
        samples = 2000
    else:
        settings = [
            (ATTENUATE, 0.5, 0.8, 0.4),
            (ATTENUATE, 0.7, 0.8, 0.4),
            (AMPLIFY, 1.9, 0.4, 0.8),
            (AMPLIFY, 2.3, 0.4, 0.8),
        ]
        samples = 10_000
    reps = [
        ancilla_optimality_search(kind, k, s1, s2, max_level=6, samples=samples)
        for kind, k, s1, s2 in settings
    ]
    # against the closed form: the search's input omits at most 1e-13
    # (`_thermal_cutoff(s1, 1e-13)`), its ladders at most n * 1e-18, plus rounding
    err = max(abs(r.vacuum_risk - risk_mod.geometric_l1(channel_s_tilde(r.kind, r.s1, r.k), r.s2)[0]) for r in reps)
    return _report(
        all(rep.ok for rep in reps) and err <= 1e-11,
        worst_margin=min(rep.margin for rep in reps),
        settings=[
            {"kind": rep.kind, "k": rep.k, "vacuum_risk": rep.vacuum_risk, "margin": rep.margin}
            for rep in reps
        ],
        samples=samples,
        vacuum_risk_err=err,
    )


def _check_noise_topup(rng: np.random.Generator, fast: bool) -> dict:
    samples = 100_000 if fast else 1_000_000
    reps = [verify_noise_topup(st, s2, samples=samples) for st, s2 in ((0.25, 0.5), (0.0, 0.5), (0.3, 0.3))]
    # every report field but the sample count, which the suite sets
    cases = [{key: val for key, val in asdict(r).items() if key != "samples"} for r in reps]
    return _report(all(r.ok for r in reps), cases=cases)


def _check_displacement_covariance(rng: np.random.Generator, fast: bool) -> dict:
    alphas = [0.8] if fast else [1.0, 0.8 + 0.6j, -1.2]
    in_cut = 36 if fast else 48
    rep_att = verify_covariance(ATTENUATE, 0.5, alphas, s1=0.5, in_cutoff=in_cut)
    rep_amp = verify_covariance(AMPLIFY, math.sqrt(2.0), alphas, s1=0.5, in_cutoff=in_cut)
    return _report(
        rep_att.ok and rep_amp.ok,
        att_trace_norm=rep_att.max_trace_norm,
        amp_trace_norm=rep_amp.max_trace_norm,
        att_gain_err=rep_att.gain_err,
        amp_gain_err=rep_amp.gain_err,
    )


def _random_ordered_pairs(rng: np.random.Generator, count: int) -> np.ndarray:
    s = rng.uniform(1e-3, 0.999, size=(count, 2))
    return np.column_stack([np.max(s, axis=1), np.min(s, axis=1)])


def _check_threshold_exactness(rng: np.random.Generator, fast: bool) -> dict:
    count = 200 if fast else 1000
    pairs = _random_ordered_pairs(rng, count)
    worst_s = 0.0
    worst_r = 0.0
    for hi, lo in pairs:
        for kind, s1, s2 in ((ATTENUATE, hi, lo), (AMPLIFY, lo, hi)):
            k0 = risk_mod.quantum_threshold(kind, s1, s2)
            worst_s = max(worst_s, abs(channel_s_tilde(kind, s1, k0) - s2))
            worst_r = max(worst_r, risk_mod.quantum_minimax_risk(s1, s2, k0, kind))
    ok = worst_s <= 1e-12 and worst_r == 0.0
    return _report(ok, pairs=count, worst_s_tilde_err=worst_s, worst_risk=worst_r)


def _check_closed_vs_bruteforce(rng: np.random.Generator, fast: bool) -> dict:
    count = 200 if fast else 1000
    worst = 0.0
    for _ in range(count):
        st = float(rng.uniform(0.01, 0.95))
        s2 = float(rng.uniform(0.0, st))
        closed, _ = risk_mod.geometric_l1(st, s2)
        cut = max(_thermal_cutoff(st, 1e-13), _thermal_cutoff(s2, 1e-13))
        brute = l1_distance(thermal_state(st, cut), thermal_state(s2, cut)).value
        worst = max(worst, abs(closed - brute))
    tie, _ = risk_mod.geometric_l1(0.5, 0.4)
    worked_err = abs(tie - 0.2)
    ok = worst <= 1e-10 and worked_err <= 1e-12
    return _report(ok, draws=count, worst_err=worst, worked_point_err=worked_err)


def _check_quantum_monotonicity(rng: np.random.Generator, fast: bool) -> dict:
    count = 200 if fast else 1000
    worst_drop = 0.0
    for _ in range(count):
        hi, lo = _random_ordered_pairs(rng, 1)[0]
        k0 = risk_mod.quantum_threshold(ATTENUATE, hi, lo)
        ka, kb = sorted(rng.uniform(k0, 1.0, size=2))
        ra = risk_mod.quantum_minimax_risk(hi, lo, float(ka), ATTENUATE)
        rb = risk_mod.quantum_minimax_risk(hi, lo, float(kb), ATTENUATE)
        worst_drop = max(worst_drop, ra - rb)
    return _report(worst_drop <= 1e-12, draws=count, worst_drop=worst_drop)


def _check_classical_quadrature(rng: np.random.Generator, fast: bool) -> dict:
    count = 100 if fast else 1000
    closed, sa, sb = np.empty(count), np.empty(count), np.empty(count)
    for i in range(count):
        V1 = float(rng.uniform(0.1, 3.0))
        V2 = float(rng.uniform(0.1, 3.0))
        k0 = math.sqrt(V2 / V1)
        k = float(k0 * rng.uniform(1.01, 2.5))
        closed[i] = risk_mod.classical_minimax_risk(V1, V2, k)
        sa[i], sb[i] = math.sqrt(k * k * V1), math.sqrt(V2)
    # the density crossing only tells the rule where to split, so the
    # values do not lean on the closed form; one call serves every draw
    vals, _ = _abs_diff_rule(1.0, sa, 1.0, sb, 10.0 * np.maximum(sa, sb))
    worst = float(np.max(np.abs(closed - vals)))
    worked = abs(risk_mod.classical_minimax_risk(1.0, 1.0, math.sqrt(2.0)) - 0.33205)
    ok = worst <= 1e-8 and worked <= 1e-4
    return _report(ok, draws=count, worst_err=worst, worked_point_err=worked)


def _check_rate_consistency(rng: np.random.Generator, fast: bool) -> dict:
    n = 30 if fast else 100
    worst = 0.0
    # fig 6a purifies and fig 6b dilutes
    (_, r_a, lam_a, _), (_, r_b, lam_b, _), _ = risk_mod.FIG6_SCENARIOS
    worked_a = abs(risk_mod.optimal_rate(risk_mod.QubitScenario(r_a, lam_a)) - 0.0217014)
    worked_b = abs(risk_mod.optimal_rate(risk_mod.QubitScenario(r_b, lam_b)) - 10.24)
    for r in np.linspace(0.05, 0.9, n):
        lam_hi = min(2.5, 0.99 / r)
        for lam in np.linspace(0.1, lam_hi, n):
            sc = risk_mod.QubitScenario(float(r), float(lam))
            kq, kc, lt = risk_mod.qubit_thresholds(sc)
            governing = kq if (lam >= 1.0 or lam >= lt) else kc
            if lam == 1.0:
                governing = 1.0
            worst = max(worst, abs(risk_mod.optimal_rate(sc) - governing**2 / lam**2))
    ok = worst <= 1e-12 and worked_a <= 1e-6 and worked_b <= 1e-6
    return _report(
        ok,
        grid=n,
        worst_err=worst,
        worked_purification_err=worked_a,
        worked_dilution_err=worked_b,
    )


def _check_region_rules(rng: np.random.Generator, fast: bool) -> dict:
    n = 25 if fast else 60
    violations = 0
    checked = 0
    for r in np.linspace(0.05, 0.95, n):
        for lam in np.linspace(0.05, 0.98, n):
            sc = risk_mod.QubitScenario(float(r), float(lam))
            kq, kc, lt = risk_mod.qubit_thresholds(sc)
            if abs(lam - lt) <= 1e-12:
                continue
            checked += 1
            if (kc < kq) != (lam < lt):
                violations += 1
        lam_hi = 0.99 / r
        if lam_hi <= 1.0:
            continue
        for lam in np.linspace(1.02, min(3.0, lam_hi), n):
            sc = risk_mod.QubitScenario(float(r), float(lam))
            kq, kc, _ = risk_mod.qubit_thresholds(sc)
            checked += 1
            if not (kq < kc < 1.0):
                violations += 1
    return _report(violations == 0, checked=checked, violations=violations)


def _check_case_continuity(rng: np.random.Generator, fast: bool) -> dict:
    eps = 1e-6
    worst_jump = 0.0
    worst_below = 0.0
    worst_drop = 0.0
    for _, r0, lam, (_, k_max, _) in risk_mod.FIG6_SCENARIOS:
        base = risk_mod.QubitScenario(r0, lam)
        kq, kc, _ = risk_mod.qubit_thresholds(base)
        for boundary in (kq, kc):
            if boundary >= k_max:
                continue
            lo = risk_mod.combined_risk(risk_mod.QubitScenario(r0, lam, k=boundary - eps))
            hi = risk_mod.combined_risk(risk_mod.QubitScenario(r0, lam, k=boundary + eps))
            worst_jump = max(worst_jump, abs(hi.total_risk - lo.total_risk))
        first = min(kq, kc)
        grid = np.linspace(0.02 * first, first, 8 if fast else 15)
        for k in grid:
            worst_below = max(
                worst_below,
                risk_mod.combined_risk(risk_mod.QubitScenario(r0, lam, k=float(k))).total_risk,
            )
        grid = np.linspace(first, k_max, 12 if fast else 30)
        prev = -1.0
        for k in grid:
            val = risk_mod.combined_risk(risk_mod.QubitScenario(r0, lam, k=float(k))).total_risk
            worst_drop = max(worst_drop, prev - val)
            prev = val
    ok = worst_jump <= 1e-4 and worst_below == 0.0 and worst_drop <= 1e-7
    return _report(
        ok,
        worst_boundary_jump=worst_jump,
        worst_below_threshold=worst_below,
        worst_monotonicity_drop=worst_drop,
    )


def _check_case4_bounds(rng: np.random.Generator, fast: bool) -> dict:
    # case-4 points (s~, s2, var1, var2) on the fig-6 curves; the full suite
    # adds one near s = 1, whose erf runs take _erf_sum's panel rule
    fig6a, fig6b, fig6c = risk_mod.FIG6_SCENARIOS
    on_curves = [(fig6a, 0.8), (fig6a, 0.95), (fig6b, 1.9), (fig6c, 2.0)]
    points = [] if fast else [(0.99, 0.995, 1.5, 1.0)]
    for (_, r0, lam, _), k in on_curves[:2] if fast else on_curves:
        sc = risk_mod.QubitScenario(r0, lam, k=k)
        points.append((risk_mod.combined_risk(sc).s_tilde, sc.s2, k * k * sc.V1, sc.V2))
    worst_low = 0.0
    worst_high = 0.0
    worst_quad = 0.0
    for s_t, s2, var1, var2 in points:
        total = risk_mod.case4_risk(s_t, s2, var1, var2)
        quantum, classical = risk_mod.geometric_l1(s_t, s2)[0], risk_mod.gaussian_l1(var1, var2)
        worst_low = max(worst_low, max(classical, quantum) - total)
        worst_high = max(worst_high, total - (classical + quantum))
        worst_quad = max(worst_quad, abs(case4_risk_quad(s_t, s2, var1, var2) - total))
    # the gap is case4_risk_quad's certified _QUAD_TOL = 1e-12 plus rounding
    ok = worst_low <= 1e-8 and worst_high <= 1e-8 and worst_quad <= 1e-11
    return _report(
        ok,
        points=len(points),
        worst_lower_violation=worst_low,
        worst_upper_violation=worst_high,
        worst_quadrature_gap=worst_quad,
    )


_SUITE_CHECKS = [
    _check_fock_metric,
    _check_thermal_fixed_family,
    _check_threshold_state_exact,
    _check_attenuation_semigroup,
    _check_column_stochastic,
    _check_kernel_vs_unitary,
    _check_two_mode_unitarity,
    _check_diagonal_output,
    _check_stochastic_ordering,
    _check_vacuum_optimality,
    _check_noise_topup,
    _check_displacement_covariance,
    _check_threshold_exactness,
    _check_closed_vs_bruteforce,
    _check_quantum_monotonicity,
    _check_classical_quadrature,
    _check_rate_consistency,
    _check_region_rules,
    _check_case_continuity,
    _check_case4_bounds,
]

# the report's check names; computed here, as the entries of _SUITE_CHECKS
# may be replaced by wrappers (timing harnesses) at run time
SUITE_NAMES = [fn.__name__.removeprefix("_check_") for fn in _SUITE_CHECKS]


def run_verification_suite(suite: str = "fast", seed: int = DEFAULT_SEED) -> dict:
    """Run the oracle battery and return a JSON-ready report.

    suite "fast" uses reduced grids and sample counts; "full" runs every
    invariant at the sizes the package contracts state.  All randomness
    derives from `seed` per check, so reports are reproducible
    byte-for-byte.  No timestamps are included, for the same reason.
    """
    if suite not in ("fast", "full"):
        raise ValueError("suite must be 'fast' or 'full'")
    seed = check_count("seed", seed)
    fast = suite == "fast"
    checks = []
    for idx, (name, fn) in enumerate(zip(SUITE_NAMES, _SUITE_CHECKS)):
        rng = np.random.default_rng([seed, idx])
        checks.append({"name": name, **fn(rng, fast)})
    return {
        "suite": suite,
        "seed": seed,
        "checks": checks,
        "all_passed": all(c["ok"] for c in checks),
    }
