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
from scipy.integrate import quad, quad_vec
from scipy.linalg import eigh_tridiagonal
from scipy.special import gammaln

from . import risk as risk_mod
from .channels import (
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

DEFAULT_SEED = 42

# ladder evolutions are accepted once the mass near the truncation edge
# is below this (the wavefront has not reached the wall)
_EDGE_MASS = 1e-24
_EDGE_ROWS = 16
# longest squeezer ladder decomposed (its eigenvectors take 0.5 GB); longer
# ones, at high gain or large photon numbers, are rejected up front
_MAX_LADDER = 1 << 13


def _thermal_cutoff(s: float, tail: float) -> int:
    """Smallest cutoff with thermal tail s^(cutoff+1) <= tail."""
    if s <= 0.0:
        return 0
    return max(0, math.ceil(math.log(tail) / math.log(s)) - 1)


@dataclass(frozen=True)
class AncillaCandidate:
    """Phase-invariant ancilla: weights on Fock levels 0..K (a simplex point)."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("weights must be a nonempty vector")
        if not np.all(np.isfinite(w)):
            raise ValueError(f"weights must be finite, got {w}")
        if np.any(w < -1e-12):
            raise ValueError("weights must be nonnegative")
        total = float(w.sum())
        if abs(total - 1.0) > 1e-9:
            raise ValueError("weights must sum to 1")
        w = np.clip(w, 0.0, None) / total
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)

    @classmethod
    def vacuum(cls) -> "AncillaCandidate":
        return cls(np.array([1.0]))

    @classmethod
    def fock(cls, level: int) -> "AncillaCandidate":
        level = check_count("level", level)
        w = np.zeros(level + 1)
        w[level] = 1.0
        return cls(w)

    @property
    def max_level(self) -> int:
        return self.weights.size - 1


# ---------------------------------------------------------------------------
# two-mode generators and their evolution


def _ladder_evolve(offdiag: np.ndarray, r: float, cols) -> np.ndarray:
    """Columns `cols` of exp(r G) for the real antisymmetric tridiagonal G
    with G[j+1, j] = offdiag[j] = -G[j, j+1].

    With D = diag(i^j), D^-1 G D = -i T where T is symmetric tridiagonal
    with zero diagonal and off-diagonal `offdiag`.  Writing T = V diag(lam)
    V^T gives exp(r G) = D V exp(-i r lam) V^T D^-1 exactly; entry (m, t)
    is the cosine sum when m - t is even and the sine sum when it is odd,
    signed by i^(m - t).  At r = 0 the result is exactly I[:, cols].
    """
    length = len(offdiag) + 1
    cols = np.asarray(cols)
    if r == 0.0:
        return np.eye(length)[:, cols]
    lam, vec = eigh_tridiagonal(np.zeros(length), offdiag)
    right = vec[cols].T
    cos_part = vec @ (np.cos(r * lam)[:, None] * right)
    sin_part = vec @ (np.sin(r * lam)[:, None] * right)
    shift = (np.arange(length)[:, None] - cols[None, :]) % 4
    sign = np.where(shift < 2, 1.0, -1.0)
    return sign * np.where(shift % 2 == 0, cos_part, sin_part)


def _bs_block(theta: float, total: int) -> np.ndarray:
    """Beamsplitter unitary on the conserved-total block span{|total-j, j>}.

    The generator theta (a^dag b - a b^dag) is real antisymmetric and
    tridiagonal on the block (a b^dag |total-j, j> = sqrt((total-j)(j+1))
    |total-j-1, j+1>), so `_ladder_evolve` exponentiates it exactly and the
    block is orthogonal to rounding.  One decomposition per call; nothing
    is kept between calls.
    """
    j = np.arange(total)
    offdiag = -np.sqrt((total - j) * (j + 1.0))
    return _ladder_evolve(offdiag, theta, np.arange(total + 1))


def _tms_length(r: float, a0: int, b0: int, t_max: int, n_cols: int) -> int:
    """Squeezer ladder length whose last `_EDGE_ROWS` rows carry < `_EDGE_MASS`.

    Column t0 of the evolved ladder spreads over rows t0 + t like a
    negative binomial in t with ratio q = tanh^2 r = 1 - 1/k^2; for
    t0 = 0 it is exactly NB_n(t) = C(n+t, t) q^t (1-q)^(n+1), n = a0+b0.
    For larger t0 the leading term of the tail is at most C(n, t0)
    NB_n(t - t0) at n = a0 + b0 + 2 t0, so the rule takes the heaviest
    column, t0 = t_max, with that factor as its bound.  The edge window
    starts at the first row past the law's mode where the bound, summed
    over the remaining geometric tail and over the columns, is below
    `_EDGE_MASS`; the edge test in `_tms_columns` certifies the result.
    The scan stops past `_MAX_LADDER` rows and then returns a length
    beyond it.
    """
    if r == 0.0:
        return t_max + 1 + _EDGE_ROWS
    # q and 1 - q = 1/k^2 in log form, finite up to the largest float k
    log_q, log_1q = 2.0 * math.log(math.tanh(r)), -2.0 * math.log(math.cosh(r))
    q = math.exp(log_q)
    n = a0 + b0 + 2 * t_max
    log_scale = gammaln(n + 1) - gammaln(t_max + 1) - gammaln(n - t_max + 1) + math.log(n_cols)
    start, span = 0, 64
    while start <= _MAX_LADDER:
        t = np.arange(start, start + span, dtype=float)
        # successive pmf ratio; the law decreases past its mode, where ratio < 1
        ratio = q * (n + t + 1.0) / (t + 1.0)
        log_nb = (
            gammaln(n + t + 1.0) - gammaln(t + 1.0) - gammaln(n + 1.0)
            + t * log_q + (n + 1) * log_1q
        )
        with np.errstate(divide="ignore", invalid="ignore"):
            log_tail = log_scale + log_nb - np.log1p(-ratio)
        hit = np.flatnonzero((ratio < 1.0) & (log_tail < math.log(_EDGE_MASS)))
        if hit.size:
            return t_max + start + int(hit[0]) + _EDGE_ROWS
        start += span
        span *= 2
    return t_max + start + _EDGE_ROWS


def _tms_columns(r: float, a0: int, b0: int, col_indices: list[int]) -> np.ndarray:
    """Evolved squeezer columns |a0+t, b0+t> -> ladder amplitudes.

    The generator on the ladder span{|a0+j, b0+j>} is real antisymmetric
    tridiagonal and is exponentiated exactly by `_ladder_evolve`.  The
    ladder length comes from `_tms_length`, and the edge-mass test
    certifies it: the mass past the ladder is below `_EDGE_MASS`, so the
    returned amplitudes agree with the untruncated evolution.  A ladder
    that fails the test is doubled.  Raises ValueError naming k when the
    ladder would need more than `_MAX_LADDER` rows.
    """
    t_max = max(col_indices)
    length = _tms_length(r, a0, b0, t_max, len(col_indices))
    while length <= _MAX_LADDER:
        j = np.arange(length - 1)
        offdiag = np.sqrt((a0 + j + 1.0) * (b0 + j + 1.0))
        cols = _ladder_evolve(offdiag, r, col_indices)
        if float(np.sum(cols[-_EDGE_ROWS:, :] ** 2)) <= _EDGE_MASS:
            return cols
        length *= 2
    raise ValueError(
        f"k must keep each squeezer ladder within {_MAX_LADDER} rows; k = {math.cosh(r):.6g} "
        f"needs {length} or more for |{a0}+t, {b0}+t>, t <= {t_max}"
    )


def _ladder_index(kind: str, na, nb):
    """(sector, ladder index) of the joint state |na, nb>.

    The beamsplitter conserves the total na + nb and its ladder runs
    over nb; the squeezer conserves the difference na - nb and its
    ladder runs over min(na, nb).
    """
    if kind == ATTENUATE:
        return na + nb, nb
    return na - nb, np.minimum(na, nb)


def _sectors(kind: str, k: float, needs: dict):
    """Yield (sector, na, nb, cols) for every sector in `needs`.

    `needs[sector]` lists the ladder indices (see `_ladder_index`) whose
    evolved states are wanted; cols holds them as columns, in that order,
    with row i the amplitude of the ladder state |na[i], nb[i]>, so input
    column c is the state at row needs[sector][c].  A beamsplitter ladder
    is its whole conserved-total block.  A squeezer ladder |a0+t, b0+t>,
    a0 = max(d, 0), b0 = max(-d, 0), is as long as its negative-binomial
    tail bound says (`_tms_length`) and certified by its edge mass, so
    rows past it carry less than `_EDGE_MASS` and read as zero; it may
    end before or after na = cutoff.  Sectors d and -d have the same
    generator (off-diagonal sqrt((|d|+j+1)(j+1))), so both are read from
    one decomposition over the union of their indices.
    """
    if kind == ATTENUATE:
        theta = math.acos(k)
        for total in sorted(needs):
            j = np.arange(total + 1)
            yield total, total - j, j, _bs_block(theta, total)[:, needs[total]]
        return
    r = math.acosh(k)
    for a in sorted({abs(d) for d in needs}):
        pair = [d for d in dict.fromkeys((a, -a)) if d in needs]
        idx = sorted(set().union(*(needs[d] for d in pair)))
        cols = _tms_columns(r, a, 0, idx)
        t = np.arange(cols.shape[0])
        for d in pair:
            yield d, max(d, 0) + t, max(-d, 0) + t, cols[:, np.searchsorted(idx, needs[d])]


def _sector_needs(kind: str, na: np.ndarray, nb: np.ndarray) -> tuple[dict, dict]:
    """Group joint states |na, nb> by sector: (positions, ladder indices)."""
    sector, index = _ladder_index(kind, na, nb)
    members = {int(s): np.flatnonzero(sector == s) for s in np.unique(sector)}
    return members, {s: index[sel] for s, sel in members.items()}


def _channel_outputs(
    kind: str, k: float, probs: np.ndarray, taus: np.ndarray, cutoff: int
) -> tuple[np.ndarray, np.ndarray]:
    """Output laws of every (input, ancilla) pair, one ladder per sector.

    probs (P, n_in+1) and taus (Q, k_anc+1) stack the input and ancilla
    photon-number laws.  The outer loop runs over conserved sectors;
    each ladder is decomposed once and every column any pair needs is
    taken from it.  Returns the output laws (P, Q, cutoff+1) and the mass
    each pair sends beyond `cutoff` (P, Q).
    """
    P, Q = probs.shape[0], taus.shape[0]
    # every (n, kap) level pair with weight in some input and some ancilla
    live_n = np.flatnonzero(np.any(probs != 0.0, axis=0))
    live_kap = np.flatnonzero(np.any(taus != 0.0, axis=0))
    n, kap = np.repeat(live_n, live_kap.size), np.tile(live_kap, live_n.size)
    members, needs = _sector_needs(kind, n, kap)
    out = np.zeros((P, Q, cutoff + 1))
    beyond = np.zeros((P, Q))
    for sector, m_vals, _, cols in _sectors(kind, k, needs):
        sel = members[sector]
        # pair weights, one row per column and one entry per (input, ancilla)
        w = probs[:, n[sel]].T[:, :, None] * taus[:, kap[sel]].T[:, None, :]
        mass = (cols * cols) @ w.reshape(sel.size, P * Q)
        keep = m_vals <= cutoff
        out[:, :, m_vals[keep]] += mass[keep].T.reshape(P, Q, -1)
        beyond += mass[~keep].sum(axis=0).reshape(P, Q)
    return out, beyond


def simulate_channel(
    kind: str,
    k: float,
    state: DiagonalFockState,
    ancilla: AncillaCandidate,
    cutoff: int,
) -> DiagonalFockState:
    """Channel output by explicit two-mode unitary evolution.

    Couples the (truncated) input to the ancilla with a beamsplitter
    rotation (attenuation, k = cos theta) or a two-mode squeezer
    (amplification, k = cosh r), then traces out the ancilla mode.  Both
    generators conserve a quantum number, so the evolution runs sector by
    sector, one ladder decomposition each (mirrored squeezer sectors d
    and -d share one); output mass beyond `cutoff` is measured into the
    tail bound.
    """
    kind = normalize_kind(kind)
    k = check_k(kind, k, closed=True)
    cutoff = check_count("cutoff", cutoff)
    out, beyond = _channel_outputs(kind, k, state.probs[None], ancilla.weights[None], cutoff)
    return DiagonalFockState(out[0, 0], cutoff, state.tail_bound + max(float(beyond[0, 0]), 0.0))


def kraus_operators(kind: str, k: float, in_cutoff: int, out_cutoff: int) -> list[np.ndarray]:
    """Vacuum-ancilla Kraus operators B_j of the channel, from the unitary.

    B_j[m, n] is the amplitude of |m, j> in the evolved |n, 0>, read from
    the ladder of |n, 0> (the conserved-total block of the beamsplitter,
    where B_j loses j photons, or the squeezer ladder at difference n,
    where it gains them) and kept for m <= out_cutoff.  j runs up to the
    largest ancilla level any kept entry reaches: in_cutoff for
    attenuation; for amplification, the largest level a certified
    squeezer ladder reaches within out_cutoff (entries past a ladder
    carry less than `_EDGE_MASS` and are zero).
    """
    kind = normalize_kind(kind)
    k = check_k(kind, k, closed=True)
    in_cutoff = check_count("in_cutoff", in_cutoff)
    out_cutoff = check_count("out_cutoff", out_cutoff)
    n = np.arange(in_cutoff + 1)
    _, needs = _sector_needs(kind, n, np.zeros_like(n))
    parts = []
    for sector, na, nb, cols in _sectors(kind, k, needs):
        keep = na <= out_cutoff
        src = na[needs[sector][0]]
        parts.append((nb[keep], na[keep], np.full(keep.sum(), src), cols[keep, 0]))
    j, m, src, amps = (np.concatenate(p) for p in zip(*parts))
    ops = np.zeros((int(j.max()) + 1, out_cutoff + 1, in_cutoff + 1))
    ops[j, m, src] = amps
    return list(ops)


def assemble_two_mode_unitary(kind: str, k: float, cutoff: int) -> tuple[np.ndarray, float]:
    """Dense two-mode unitary restricted to n_a, n_b <= cutoff.

    Entries come from fully converged conserved-sector evolutions, one
    ladder decomposition per sector (mirrored squeezer sectors share
    one), so the returned matrix is the restriction of the untruncated
    unitary; the accompanying number is the largest column mass lost to
    the restriction (exactly 0 for complete beamsplitter blocks).
    """
    kind = normalize_kind(kind)
    k = check_k(kind, k, closed=True)
    cutoff = check_count("cutoff", cutoff)
    size = cutoff + 1
    _, needs = _sector_needs(kind, *np.divmod(np.arange(size * size), size))
    U = np.zeros((size * size, size * size))
    max_leak = 0.0
    for sector, na, nb, cols in _sectors(kind, k, needs):
        keep = (na <= cutoff) & (nb <= cutoff)
        block = cols[keep]
        idx = needs[sector]
        U[np.ix_(na[keep] * size + nb[keep], na[idx] * size + nb[idx])] = block
        max_leak = max(max_leak, 1.0 - float(np.min(np.sum(block * block, axis=0))))
    return U, max_leak


# ---------------------------------------------------------------------------
# ordering, optimality, noise top-up, covariance


class _Report:
    """Shared serializer of the oracle reports: every field, then `ok`."""

    def as_dict(self) -> dict:
        return _jsonable({**asdict(self), "ok": self.ok})


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
        return self.worst_margin >= -1e-12


def check_stochastic_ordering(
    kind: str, k: float, s1: float, kappa_max: int
) -> OrderingReport:
    """Verify the vacuum output is stochastically smallest among Fock ancillas.

    The output laws for ancillas |0>, ..., |kappa_max> come from
    channels.fock_ancilla_outputs (loss followed by amplification, seen
    from the ancilla; run_verification_suite checks that law against the
    two-mode unitary).  For every level and every photon count m the
    vacuum-output CDF must dominate: sum_{l<=m} p0_l >= sum_{l<=m}
    pkappa_l.  Returns the worst margin and, if negative beyond 1e-12,
    the (kappa, m) witness.
    """
    kappa_max = check_count("kappa_max", kappa_max, least=1)
    cdf = np.cumsum(fock_ancilla_outputs(kind, k, s1, kappa_max), axis=0)
    # rows kappa, columns m; argmin takes the first (kappa, m) at the minimum
    margins = (cdf[:, :1] - cdf).T
    kappa, m = np.unravel_index(int(np.argmin(margins)), margins.shape)
    worst = float(margins[kappa, m])
    witness = None if worst >= -1e-12 else (int(kappa), int(m))
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
    conserved sectors (one ladder decomposition each, shared by every
    level); the risk is the L1 distance to the thermal target.  The
    report flags any candidate beating the vacuum by more than 1e-9.
    """
    kind = normalize_kind(kind)
    k = check_k(kind, k, closed=True)
    s1 = check_thermal("s1", s1)
    s2 = check_thermal("s2", s2)
    max_level = check_count("max_level", max_level)
    samples = check_count("samples", samples)
    seed = check_count("seed", seed)
    n_in = _thermal_cutoff(s1, 1e-13)
    if kind == ATTENUATE:
        out_cut = n_in + max_level
    else:
        gain = k * k
        bulk = (n_in + max_level + 1) * gain
        out_cut = int(bulk + 10.0 * math.sqrt(bulk) + 80)
    src = thermal_state(s1, n_in)
    pure_outs = _channel_outputs(kind, k, src.probs[None], np.eye(max_level + 1), out_cut)[0][0]
    target = thermal_state(s2, out_cut).probs

    rng = np.random.default_rng([seed, 7])
    weights = np.vstack(
        [np.eye(max_level + 1), rng.dirichlet(np.ones(max_level + 1), size=samples)]
    )
    dists = np.abs(weights @ pure_outs - target[None, :]).sum(axis=1)
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


def _displaced_thermal_pmf(s: float, u_vals: np.ndarray, cutoff: int) -> np.ndarray:
    """Photon-number law of a displaced thermal state, rows per |alpha|^2 = u.

    P(m) = (1-s) exp(-(1-s) u) T_m with T_m = s^m L_m(-u (1-s)^2 / s),
    from the stable upward recurrence
    (m+1) T_(m+1) = ((2m+1) s + (1-s)^2 u) T_m - m s^2 T_(m-1), T_0 = 1;
    at s = 0 it gives T_m = u^m / m!, the Poisson law.  T_m can grow
    like exp((1-s) u) while the prefactor underflows, so once T_m may
    pass 1e200 the rows above 1 are divided down to 1 and the factor
    moves into the prefactor, in logs.
    """
    u = np.atleast_1d(np.asarray(u_vals, dtype=float))
    prefac = (1.0 - s) * np.exp(-(1.0 - s) * u)
    log_prefac = None  # built at the first rescaling
    drift = (1.0 - s) ** 2 * u
    # one photon number per row, so every write is contiguous
    out = np.empty((cutoff + 1, u.size))
    out[0] = prefac
    t_prev, t_cur = np.zeros_like(u), np.ones_like(u)
    # every row's T_m stays below `bound`, as the subtracted term is >= 0
    bound, top = 1.0, float(np.max(drift, initial=0.0))
    for m in range(cutoff):
        t_prev, t_cur = t_cur, (((2 * m + 1) * s + drift) * t_cur - m * s * s * t_prev) / (m + 1)
        bound *= ((2 * m + 1) * s + top) / (m + 1)
        if bound > 1e200:
            if log_prefac is None:
                log_prefac = math.log1p(-s) - (1.0 - s) * u
            big = t_cur > 1.0
            t_prev[big] /= t_cur[big]
            log_prefac[big] += np.log(t_cur[big])
            prefac[big] = np.exp(log_prefac[big])
            t_cur[big] = bound = 1.0
        out[m + 1] = prefac * t_cur
    return out.T


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


def verify_noise_topup(
    s_tilde: float, s2: float, samples: int = 1_000_000, seed: int = DEFAULT_SEED
) -> TopupReport:
    """Check that displacement noise of variance v fills thermal(s~) to thermal(s2).

    Exact branch: integrate the displaced-thermal photon law against the
    exponential law of |alpha|^2 (mean v) and compare to thermal(s2) at
    1e-10.  Monte-Carlo branch: average the photon law over sampled
    displacements; the L1 gap must stay within 3/sqrt(samples).
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

    def integrand(u: float) -> np.ndarray:
        return (math.exp(-u / v) / v) * _displaced_thermal_pmf(s_tilde, np.array([u]), cutoff)[0]

    mixed, _ = quad_vec(integrand, 0.0, np.inf, epsabs=1e-13, epsrel=1e-12)
    exact_err = float(np.max(np.abs(mixed - target)))

    rng = np.random.default_rng([seed, 11])
    acc = np.zeros(cutoff + 1)
    remaining = samples
    while remaining > 0:
        chunk = min(remaining, 20_000)
        u = rng.exponential(v, size=chunk)
        acc += _displaced_thermal_pmf(s_tilde, u, cutoff).sum(axis=0)
        remaining -= chunk
    mc = acc / samples
    mc_err = float(np.sum(np.abs(mc - target)))
    return TopupReport(
        float(s_tilde), float(s2), float(v), exact_err, mc_err, 3.0 / math.sqrt(samples), samples
    )


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
        return self.max_trace_norm <= 1e-6


def verify_covariance(
    kind: str,
    k: float,
    alpha_grid,
    s1: float = 0.5,
    in_cutoff: int = 48,
) -> CovarianceReport:
    """Check the channel commutes with displacements: E(D ρ D†) = D' E(ρ) D'†.

    For each alpha on the grid the channel (as Kraus operators extracted
    from the two-mode unitary) is applied to the displaced thermal state
    and compared, in trace norm, against the displaced-by-k*alpha image
    of the undisplaced output.  Also extracts the output displacement of
    the principal mode; its deviation from k * alpha is reported.  Zero
    points compare nothing, so the grid needs at least one nonzero point.
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
    if kind == ATTENUATE:
        out_cutoff = in_cutoff
    else:
        bulk = (in_cutoff + 1) * k * k
        out_cutoff = int(bulk + 10.0 * math.sqrt(bulk) + 64)
    ops = kraus_operators(kind, k, in_cutoff, out_cutoff)
    rho_th = np.diag(thermal_state(s1, in_cutoff).probs).astype(complex)
    out0 = sum(B @ rho_th @ B.T for B in ops).astype(complex)
    lower = np.diag(np.sqrt(np.arange(1.0, out_cutoff + 1)), 1)

    worst = 0.0
    gain_err = 0.0
    for alpha in alphas:
        if alpha == 0:
            continue
        d_in = displacement_matrix(alpha, in_cutoff + 1)
        rho_in = d_in @ rho_th @ d_in.conj().T
        out_sim = sum(B @ rho_in @ B.conj().T for B in ops)
        d_out = displacement_matrix(k * alpha, out_cutoff + 1)
        out_ref = d_out @ out0 @ d_out.conj().T
        diff = out_sim - out_ref
        diff = 0.5 * (diff + diff.conj().T)
        worst = max(worst, float(np.sum(np.abs(np.linalg.eigvalsh(diff)))))
        mean_out = complex(np.trace(out_sim @ lower))
        gain_err = max(gain_err, abs(mean_out - k * alpha))
    return CovarianceReport(kind, float(k), float(s1), alphas, worst, gain_err)


# ---------------------------------------------------------------------------
# independent quadrature for the doubly-exceeded-regime series

# Half-width of the quadrature window in units of the larger standard
# deviation; the omitted Gaussian mass at 8 sigma is below 1.3e-15.
_TAIL_SIGMAS = 8.0


def _abs_diff_quad(
    c1: float, sig1: float, c2: float, sig2: float, L: float, epsabs: float
) -> tuple[float, float]:
    """Adaptive quadrature of |c1 N(0,sig1^2) - c2 N(0,sig2^2)| over the line.

    The integrand is even, so integrate [0, L] and double.  The density
    crossover is handed to quad as a known kink.  Returns (value, error
    estimate).
    """
    a1 = c1 / (math.sqrt(2.0 * math.pi) * sig1)
    a2 = c2 / (math.sqrt(2.0 * math.pi) * sig2)
    inv1 = 0.5 / (sig1 * sig1)
    inv2 = 0.5 / (sig2 * sig2)

    def f(x: float) -> float:
        xx = x * x
        return abs(a1 * math.exp(-inv1 * xx) - a2 * math.exp(-inv2 * xx))

    points = None
    if c1 > 0.0 and c2 > 0.0 and sig1 != sig2:
        x2 = (
            2.0
            * sig1 * sig1 * sig2 * sig2
            * math.log(c2 * sig1 / (c1 * sig2))
            / (sig1 * sig1 - sig2 * sig2)
        )
        if x2 > 0.0:
            xs = math.sqrt(x2)
            if 0.0 < xs < L:
                points = [xs]
    # pin epsrel, else quad stops at its default relative criterion and
    # reports ~1e-8 |I| error estimates that swamp the term budget
    val, err = quad(f, 0.0, L, points=points, epsabs=0.5 * epsabs, epsrel=1e-12, limit=200)
    return 2.0 * val, 2.0 * err


def case4_risk_quad(
    s_t: float, s2: float, var1: float, var2: float, abs_tol: float = 1e-8
) -> float:
    """Joint product-law L1 distance by adaptive quadrature per photon number.

    Independent of risk.case4_risk's closed-form terms: each term
    |A_n N(0,var1) - B_n N(0,var2)| is integrated numerically, with an
    error request proportional to the term's mass (the requests sum to
    less than abs_tol / 2).  The series stops by the same rule as
    risk.case4_risk, once s_t^(n+1) + s2^(n+1) < abs_tol / 4.  Raises
    RuntimeError if the summed error estimates and tail exceed abs_tol.
    """
    check_thermal("s_t", s_t)
    check_thermal("s2", s2)
    check_positive("var1", var1)
    check_positive("var2", var2)
    check_positive("abs_tol", abs_tol)
    sig1, sig2 = math.sqrt(var1), math.sqrt(var2)
    L = _TAIL_SIGMAS * max(sig1, sig2)
    total = 0.0
    err_quad = 0.0
    n = 0
    while True:
        A = (1.0 - s_t) * s_t**n
        B = (1.0 - s2) * s2**n
        eps_n = min(abs_tol * 1e-4, max(0.25 * abs_tol * (A + B), 1e-15))
        val, err = _abs_diff_quad(A, sig1, B, sig2, L, eps_n)
        total += val
        err_quad += err
        tail = s_t ** (n + 1) + s2 ** (n + 1)
        if tail < 0.25 * abs_tol:
            break
        n += 1
    if err_quad + tail > abs_tol:
        raise RuntimeError(
            f"quadrature error {err_quad + tail:.3e} exceeds requested {abs_tol:.3e}"
        )
    return min(total, 2.0)


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


def _report(name: str, ok: bool, **details) -> dict:
    entry = {"name": name, "ok": bool(ok)}
    entry.update(details)
    return _jsonable(entry)


def _check_fock_metric(rng: np.random.Generator, fast: bool) -> dict:
    trials = 50 if fast else 200
    worst_sym = 0.0
    worst_tri = 0.0
    worst_self = 0.0
    for _ in range(trials):
        cut = int(rng.integers(5, 40))
        raw = rng.random((3, cut + 1))
        states = []
        for row in raw:
            probs = row / row.sum()
            states.append(DiagonalFockState(probs, cut, 0.0))
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
        "fock_metric",
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
    return _report("thermal_fixed_family", worst <= 1e-12, max_entry_err=worst)


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
    return _report("threshold_state_exact", worst <= 1e-12, max_entry_err=worst, pairs=len(pairs))


def _check_semigroup(rng: np.random.Generator, fast: bool) -> dict:
    cut = 40
    worst = 0.0
    trials = 3 if fast else 8
    for _ in range(trials):
        ka, kb = rng.uniform(0.2, 0.95, size=2)
        prod = thinning_matrix(float(kb), cut) @ thinning_matrix(float(ka), cut)
        direct = thinning_matrix(float(ka * kb), cut)
        worst = max(worst, float(np.max(np.abs(prod - direct))))
    return _report("attenuation_semigroup", worst <= 1e-10, max_entry_err=worst, trials=trials)


def _check_column_stochastic(rng: np.random.Generator, fast: bool) -> dict:
    cut = 30 if fast else 60
    worst_att = 0.0
    for k in (0.3, 0.7, 0.95):
        sums = thinning_matrix(k, cut).sum(axis=0)
        worst_att = max(worst_att, float(np.max(np.abs(sums - 1.0))))
    worst_amp = 0.0
    neg = 0.0
    for k in (1.2, 1.7):
        G = k * k
        out_cut = int((cut + 1) * G + 10 * math.sqrt((cut + 1) * G) + 200)
        mat = gain_matrix(k, cut, out_cut)
        neg = min(neg, float(mat.min()))
        sums = mat.sum(axis=0)
        worst_amp = max(worst_amp, float(np.max(np.abs(sums - 1.0))))
    ok = worst_att <= 1e-12 and worst_amp <= 1e-10 and neg >= 0.0
    return _report(
        "column_stochastic", ok, att_err=worst_att, amp_err=worst_amp, min_entry=neg
    )


def _check_kernel_vs_unitary(rng: np.random.Generator, fast: bool) -> dict:
    cutoff = 40 if fast else 60
    ks = [0.5, 1.5] if fast else [0.3, 0.5, 0.9, 1.2, 1.5, 2.0]
    s_vals = [0.5] if fast else [0.2, 0.5, 0.8]
    srcs = [thermal_state(s1, cutoff) for s1 in s_vals]
    inputs = np.stack([src.probs for src in srcs])
    worst = 0.0
    for k in ks:
        # one pass over the sectors serves every s1 (vacuum ancilla)
        kind = kind_for_k(k)
        sims = _channel_outputs(kind, k, inputs, np.ones((1, 1)), cutoff)[0][:, 0]
        for src, sim in zip(srcs, sims):
            if kind == ATTENUATE:
                kern = attenuate_kernel(k, src).probs
            else:
                kern = amplify_kernel(k, src, out_cutoff=cutoff).probs
            worst = max(worst, float(np.max(np.abs(kern - sim))))
    return _report(
        "kernel_vs_unitary", worst <= 1e-8, max_entry_err=worst, cutoff=cutoff,
        k_grid=ks, s1_grid=s_vals,
    )


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
            return _report("two_mode_unitarity", False, cutoff=cutoff, error="no complete columns")
        sub = gram[np.ix_(keep, keep)] - np.eye(keep.size)
        err = float(np.max(np.abs(sub)))
        worst = max(worst, err)
        results[f"{kind}_unitarity_err"] = err
        results[f"{kind}_max_leak"] = leak
        results[f"{kind}_complete_columns"] = int(keep.size)
    return _report("two_mode_unitarity", worst <= 1e-10, cutoff=cutoff, **results)


def _check_diagonal_output(rng: np.random.Generator, fast: bool) -> dict:
    # input sized so every conserved sector that matters fits the joint
    # square: total <= cutoff for the beamsplitter, and for the squeezer
    # every output (m, m - d) with m <= in_cutoff stays retained
    cutoff = 14
    anc = AncillaCandidate(np.array([0.6, 0.3, 0.1]))
    src = thermal_state(0.45, cutoff - anc.max_level)
    size = cutoff + 1
    tau = np.zeros(size)
    tau[: anc.weights.size] = anc.weights
    # diagonal product state (input tensor ancilla) on the joint basis
    joint = np.kron(src.padded(cutoff), tau)
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
        upto = cutoff if kind == ATTENUATE else cutoff - anc.max_level
        worst_gap = max(worst_gap, float(np.max(np.abs(diag[: upto + 1] - fast_path.probs[: upto + 1]))))
    ok = worst_offdiag <= 1e-10 and worst_gap <= 1e-10
    return _report(
        "diagonal_output", ok, offdiagonal_mass=worst_offdiag, fast_path_gap=worst_gap
    )


def _check_stochastic_ordering(rng: np.random.Generator, fast: bool) -> dict:
    n_grid = 6 if fast else 20
    s_vals = [0.5] if fast else [0.2, 0.5, 0.8]
    worst = math.inf
    witness = None
    for s1 in s_vals:
        for kind, k_lo, k_hi in ((ATTENUATE, 0.05, 0.95), (AMPLIFY, 1.05, 2.5)):
            for k in np.linspace(k_lo, k_hi, n_grid):
                rep = check_stochastic_ordering(kind, float(k), s1, 10)
                if rep.worst_margin < worst:
                    worst, witness = rep.worst_margin, (kind, float(k), s1, rep.witness)
    # convexity: mixtures inherit the ordering from the pure levels
    mix_worst = math.inf
    for _ in range(5 if fast else 15):
        w = rng.dirichlet(np.ones(6))
        k = float(rng.uniform(0.2, 0.9))
        cdf = np.cumsum(fock_ancilla_outputs(ATTENUATE, k, 0.5, 5), axis=0)
        mix_worst = min(mix_worst, float(np.min(cdf[:, 0] - cdf @ w)))
    # the ordered law itself, against the two-mode unitary
    law_err = 0.0
    src = thermal_state(0.5, _thermal_cutoff(0.5, 1e-14))
    for kind, k in ((ATTENUATE, 0.6), (AMPLIFY, 1.5)):
        outs = fock_ancilla_outputs(kind, k, 0.5, 10)
        ref, _ = _channel_outputs(kind, k, src.probs[None], np.eye(11), outs.shape[0] - 1)
        law_err = max(law_err, float(np.max(np.abs(ref[0].T - outs))))
    ok = worst >= -1e-12 and mix_worst >= -1e-12 and law_err <= 1e-12
    return _report(
        "stochastic_ordering",
        ok,
        worst_margin=worst,
        mixture_worst_margin=mix_worst,
        law_vs_unitary_err=law_err,
        witness=None if ok else repr(witness),
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
    worst = math.inf
    details = []
    for kind, k, s1, s2 in settings:
        rep = ancilla_optimality_search(kind, k, s1, s2, max_level=6, samples=samples)
        worst = min(worst, rep.margin)
        details.append(
            {"kind": kind, "k": k, "vacuum_risk": rep.vacuum_risk, "margin": rep.margin}
        )
    return _report(
        "vacuum_optimality", worst >= -1e-9, worst_margin=worst, settings=details,
        samples=samples,
    )


def _check_noise_topup(rng: np.random.Generator, fast: bool) -> dict:
    samples = 100_000 if fast else 1_000_000
    reps = [
        verify_noise_topup(0.25, 0.5, samples=samples),
        verify_noise_topup(0.0, 0.5, samples=samples),
        verify_noise_topup(0.3, 0.3, samples=samples),
    ]
    ok = all(r.ok for r in reps)
    return _report(
        "noise_topup",
        ok,
        cases=[
            {
                "s_tilde": r.s_tilde,
                "s2": r.s2,
                "v": r.v,
                "exact_max_err": r.exact_max_err,
                "mc_l1_err": r.mc_l1_err,
                "mc_tol": r.mc_tol,
            }
            for r in reps
        ],
    )


def _check_covariance(rng: np.random.Generator, fast: bool) -> dict:
    alphas = [0.8] if fast else [1.0, 0.8 + 0.6j, -1.2]
    in_cut = 36 if fast else 48
    rep_att = verify_covariance(ATTENUATE, 0.5, alphas, s1=0.5, in_cutoff=in_cut)
    rep_amp = verify_covariance(AMPLIFY, math.sqrt(2.0), alphas, s1=0.5, in_cutoff=in_cut)
    ok = rep_att.ok and rep_amp.ok
    return _report(
        "displacement_covariance",
        ok,
        att_trace_norm=rep_att.max_trace_norm,
        amp_trace_norm=rep_amp.max_trace_norm,
        att_gain_err=rep_att.gain_err,
        amp_gain_err=rep_amp.gain_err,
    )


def _random_ordered_pairs(rng: np.random.Generator, count: int) -> np.ndarray:
    s = rng.uniform(1e-3, 0.999, size=(count, 2))
    hi = np.max(s, axis=1)
    lo = np.min(s, axis=1)
    return np.column_stack([hi, lo])


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
    return _report(
        "threshold_exactness", ok, pairs=count, worst_s_tilde_err=worst_s, worst_risk=worst_r
    )


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
    return _report(
        "closed_vs_bruteforce", ok, draws=count, worst_err=worst, worked_point_err=worked_err
    )


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
    return _report(
        "quantum_monotonicity", worst_drop <= 1e-12, draws=count, worst_drop=worst_drop
    )


def _check_classical_quadrature(rng: np.random.Generator, fast: bool) -> dict:
    count = 100 if fast else 1000
    worst = 0.0
    for _ in range(count):
        V1 = float(rng.uniform(0.1, 3.0))
        V2 = float(rng.uniform(0.1, 3.0))
        k0 = math.sqrt(V2 / V1)
        k = float(k0 * rng.uniform(1.01, 2.5))
        closed = risk_mod.classical_minimax_risk(V1, V2, k)
        sa, sb = math.sqrt(k * k * V1), math.sqrt(V2)
        # the density crossing only tells quad where to subdivide, so the
        # value does not lean on the closed form
        val, _ = _abs_diff_quad(1.0, sa, 1.0, sb, 10.0 * max(sa, sb), 1e-11)
        worst = max(worst, abs(closed - val))
    worked = abs(risk_mod.classical_minimax_risk(1.0, 1.0, math.sqrt(2.0)) - 0.33205)
    ok = worst <= 1e-8 and worked <= 1e-4
    return _report(
        "classical_quadrature", ok, draws=count, worst_err=worst, worked_point_err=worked
    )


def _check_rate_consistency(rng: np.random.Generator, fast: bool) -> dict:
    n = 30 if fast else 100
    worst = 0.0
    worked_a = abs(risk_mod.optimal_rate(risk_mod.QubitScenario(1.0 / 3.0, 2.4)) - 0.0217014)
    worked_b = abs(risk_mod.optimal_rate(risk_mod.QubitScenario(0.8, 5.0 / 12.0)) - 10.24)
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
        "rate_consistency",
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
    return _report("region_rules", violations == 0, checked=checked, violations=violations)


def _fig6_scenarios() -> list[tuple[str, float, float, float]]:
    # (name, r0, lam, k_max)
    return [
        ("fig6a", 1.0 / 3.0, 2.4, 1.0),
        ("fig6b", 0.8, 5.0 / 12.0, 2.2),
        ("fig6c", 0.5, 0.25, 2.5),
    ]


def _check_case_continuity(rng: np.random.Generator, fast: bool) -> dict:
    eps = 1e-6
    worst_jump = 0.0
    worst_below = 0.0
    worst_drop = 0.0
    for name, r0, lam, k_max in _fig6_scenarios():
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
        "case_continuity",
        ok,
        worst_boundary_jump=worst_jump,
        worst_below_threshold=worst_below,
        worst_monotonicity_drop=worst_drop,
    )


def _check_case4_bounds(rng: np.random.Generator, fast: bool) -> dict:
    points = [
        (1.0 / 3.0, 2.4, 0.8),
        (1.0 / 3.0, 2.4, 0.95),
        (0.8, 5.0 / 12.0, 1.9),
        (0.5, 0.25, 2.0),
    ]
    if fast:
        points = points[:2]
    worst_low = 0.0
    worst_high = 0.0
    worst_quad = 0.0
    for r0, lam, k in points:
        rep = risk_mod.combined_risk(risk_mod.QubitScenario(r0, lam, k=k))
        lower = max(rep.classical_risk, rep.quantum_risk)
        upper = rep.classical_risk + rep.quantum_risk
        worst_low = max(worst_low, lower - rep.total_risk)
        worst_high = max(worst_high, rep.total_risk - upper)
        sc = risk_mod.QubitScenario(r0, lam, k=k)
        quad_val = case4_risk_quad(rep.s_tilde, sc.s2, k * k * sc.V1, sc.V2)
        worst_quad = max(worst_quad, abs(quad_val - rep.total_risk))
    ok = worst_low <= 1e-8 and worst_high <= 1e-8 and worst_quad <= 1e-7
    return _report(
        "case4_bounds",
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
    _check_semigroup,
    _check_column_stochastic,
    _check_kernel_vs_unitary,
    _check_two_mode_unitarity,
    _check_diagonal_output,
    _check_stochastic_ordering,
    _check_vacuum_optimality,
    _check_noise_topup,
    _check_covariance,
    _check_threshold_exactness,
    _check_closed_vs_bruteforce,
    _check_quantum_monotonicity,
    _check_classical_quadrature,
    _check_rate_consistency,
    _check_region_rules,
    _check_case_continuity,
    _check_case4_bounds,
]

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
    for idx, fn in enumerate(_SUITE_CHECKS):
        rng = np.random.default_rng([seed, idx])
        checks.append(fn(rng, fast))
    return {
        "suite": suite,
        "seed": seed,
        "checks": checks,
        "all_passed": all(c["ok"] for c in checks),
    }
