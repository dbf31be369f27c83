"""Truncated Fock-space primitives for phase-invariant single-mode states.

A phase-invariant (number-diagonal) state is fully described by its
photon-number distribution, so everything in this module works on
nonnegative probability vectors with an explicit, certified bound on the
mass omitted by truncation.  Thermal states are geometric distributions
p[n] = (1 - s) s^n with purity parameter 0 <= s < 1; their truncation
tail is known in closed form, which keeps every downstream distance
computation honest about what the cutoff discarded.

Displacement-operator matrix elements are provided for the verification
layer; they use the associated-Laguerre closed form with log-domain
factorials so that high orders neither overflow nor lose the phase.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .params import check_alpha, check_count, check_nonnegative, check_thermal

__all__ = [
    "DiagonalFockState",
    "L1Distance",
    "thermal_state",
    "vacuum_state",
    "number_state",
    "l1_distance",
    "mean_photon",
    "displacement_matrix_element",
    "displacement_matrix",
]

# Soft tolerance for normalization bookkeeping; acceptance tolerances are
# all >= 1e-12 so 1e-12 of slack here never masks a real defect.
_NORM_SLACK = 1e-12


@dataclass(frozen=True)
class DiagonalFockState:
    """Photon-number distribution on n = 0 .. cutoff, with cutoff = probs.size - 1.

    Attributes
    ----------
    probs : numpy.ndarray
        Occupation probabilities for n = 0 .. cutoff.  All entries are
        nonnegative and sum to at most 1 (within rounding).
    tail_bound : float
        Certified upper bound on the probability mass not represented in
        ``probs``.  For a thermal state with parameter s this equals
        s**(N+1) exactly; channel outputs carry the propagated bound.
    """

    probs: np.ndarray
    tail_bound: float = 0.0

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float)
        if probs.ndim != 1 or probs.size == 0:
            raise ValueError(f"probs must be a nonempty vector, got shape {probs.shape}")
        bad = np.flatnonzero(~np.isfinite(probs))
        if bad.size:
            raise ValueError(f"probs must be finite, got {probs[bad[0]]} at n = {bad[0]}")
        if np.any(probs < -_NORM_SLACK):
            raise ValueError("negative probability entry")
        # Clip rounding-level negatives so downstream abs/cumsum logic is clean.
        probs = np.where(probs < 0.0, 0.0, probs)
        object.__setattr__(self, "probs", probs)
        total = float(probs.sum())
        if total > 1.0 + 1e-9:
            raise ValueError(f"probabilities sum to {total} > 1")
        check_nonnegative("tail_bound", self.tail_bound)
        if total + self.tail_bound < 1.0 - 1e-9:
            raise ValueError(
                f"sum(probs) + tail_bound = {total + self.tail_bound} < 1; "
                "tail bound is not a certified remainder"
            )

    @property
    def cutoff(self) -> int:
        """Largest retained photon number N."""
        return self.probs.size - 1

    @property
    def norm(self) -> float:
        return float(self.probs.sum())

    def prob(self, n: int) -> float:
        """Occupation probability of |n>, zero beyond the cutoff."""
        n = check_count("n", n)
        return float(self.probs[n]) if n <= self.cutoff else 0.0

    def padded(self, cutoff: int) -> np.ndarray:
        """Probability vector zero-extended to length cutoff+1."""
        cutoff = check_count("cutoff", cutoff)
        if cutoff < self.cutoff:
            raise ValueError("padding cannot shrink the support")
        out = np.zeros(cutoff + 1)
        out[: self.cutoff + 1] = self.probs
        return out


class L1Distance(NamedTuple):
    """L1 distance on the retained support plus a certified interval.

    The exact (untruncated) distance lies in [value, value + truncation]
    whenever both inputs carry exact head entries, since the omitted
    terms contribute at most the two tail bounds.
    """

    value: float
    truncation: float

    @property
    def lower(self) -> float:
        return self.value

    @property
    def upper(self) -> float:
        return self.value + self.truncation


def thermal_state(s: float, cutoff: int) -> DiagonalFockState:
    """Thermal (geometric) photon-number distribution.

    Parameters
    ----------
    s : float
        Purity parameter in [0, 1); s = 0 is the vacuum.  Mean photon
        number is s / (1 - s).
    cutoff : int
        Largest retained photon number.

    Returns
    -------
    DiagonalFockState
        probs[n] = (1 - s) s**n for n <= cutoff, tail_bound = s**(cutoff+1).
    """
    s = check_thermal("s", s)
    cutoff = check_count("cutoff", cutoff)
    # at s = 0, 0.0 ** 0 == 1 gives the vacuum with a zero tail
    probs = (1.0 - s) * s ** np.arange(cutoff + 1)
    return DiagonalFockState(probs, s ** (cutoff + 1))


def vacuum_state(cutoff: int = 0) -> DiagonalFockState:
    """Vacuum as a DiagonalFockState (tail is exactly zero)."""
    return thermal_state(0.0, cutoff)


def number_state(n: int, cutoff: int | None = None) -> DiagonalFockState:
    """Fock state |n><n| as a distribution; cutoff defaults to n."""
    n = check_count("n", n)
    cutoff = n if cutoff is None else check_count("cutoff", cutoff)
    if cutoff < n:
        raise ValueError("cutoff must retain the occupied level")
    probs = np.zeros(cutoff + 1)
    probs[n] = 1.0
    return DiagonalFockState(probs)


def mean_photon(state: DiagonalFockState) -> float:
    """Mean photon number of the retained support."""
    n = np.arange(state.cutoff + 1)
    return float(np.dot(n, state.probs))


def l1_distance(p: DiagonalFockState, q: DiagonalFockState) -> L1Distance:
    """L1 distance between two photon-number distributions.

    For number-diagonal states this equals the trace-norm distance of
    the density operators.  Entries beyond either cutoff count as zero;
    the certified truncation width is the sum of the two tail bounds.

    Both inputs must be normalized within tolerance (sum + tail ~ 1).
    """
    for name, state in (("p", p), ("q", q)):
        if abs(state.norm + state.tail_bound - 1.0) > 1e-8:
            raise ValueError(f"{name} is not normalized within tolerance")
    cut = max(p.cutoff, q.cutoff)
    value = float(np.abs(p.padded(cut) - q.padded(cut)).sum())
    return L1Distance(value, p.tail_bound + q.tail_bound)


def _displacement_entries(m, n, alpha: complex) -> np.ndarray:
    """Entries <m|W_alpha|n> for broadcast integer arrays m, n and alpha != 0.

    Associated-Laguerre closed form with the factorials and the power of
    |alpha| kept in the log domain, so high orders neither overflow nor
    lose the phase: |<m|W|n>| = exp(log_scale) |L_lo^(d)(|alpha|^2)| with
    lo = min(m, n), d = |m - n|.  The Laguerre value itself stays within
    double range for the orders used here (lo, d <= 500, |alpha|^2 <= ~10).
    """
    from scipy.special import eval_genlaguerre, gammaln

    absa = abs(alpha)
    x = absa * absa
    lo = np.minimum(m, n)
    d = np.abs(m - n)
    lag = eval_genlaguerre(lo, d, x)
    log_scale = 0.5 * (gammaln(lo + 1) - gammaln(lo + d + 1)) + d * np.log(absa) - x / 2.0
    with np.errstate(divide="ignore"):  # log(0) where the Laguerre vanishes
        mag = np.sign(lag) * np.exp(log_scale + np.log(np.abs(lag)))
    mag = np.where(lag == 0.0, 0.0, mag)
    ang = np.angle(alpha)
    # Phase differs between the raising (m >= n) and lowering triangles:
    # alpha^(m-n) against (-conj(alpha))^(n-m).
    signed_d = np.where(m >= n, d, 0) * ang + np.where(m < n, d, 0) * np.angle(
        -np.conj(alpha)
    )
    return mag * np.exp(1j * signed_d)


def displacement_matrix_element(m: int, n: int, alpha: complex) -> complex:
    """Matrix element <m| exp(alpha a^dag - conj(alpha) a) |n>.

    The single entry of `displacement_matrix` at (m, n), computed alone;
    overflow-safe at least up to m, n = 500 for moderate displacements.
    The magnitude of the result never exceeds 1.

    Parameters
    ----------
    m, n : int
        Output and input photon numbers (both >= 0).
    alpha : complex
        Displacement amplitude.

    Returns
    -------
    complex
    """
    m = check_count("m", m)
    n = check_count("n", n)
    alpha = check_alpha(alpha)
    if alpha == 0:
        return 1.0 + 0.0j if m == n else 0.0 + 0.0j
    return complex(_displacement_entries(np.asarray(m), np.asarray(n), alpha))


def displacement_matrix(alpha: complex, dim: int) -> np.ndarray:
    """Truncated displacement operator, entries <m|W_alpha|n> for m, n < dim.

    Columns are unit vectors of the untruncated operator, so the column
    norms measure the truncation directly: 1 - sum_m |W[m, n]|^2 is the
    mass pushed past the cutoff.
    """
    dim = check_count("dim", dim, least=1)
    alpha = check_alpha(alpha)
    if alpha == 0:
        return np.eye(dim, dtype=complex)
    idx = np.arange(dim)
    return _displacement_entries(idx[:, None], idx[None, :], alpha)
