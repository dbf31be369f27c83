"""Channel actions on photon-number distributions and classical Gaussians.

Phase-invariant Gaussian channels act on number-diagonal states through
classical kernels: a beamsplitter of transmitted amplitude k < 1 thins
each photon independently with retention k**2, and a parametric
amplifier of amplitude k > 1 maps |n> to a negative-binomial
distribution with gain k**2.  Both kernels send thermal states to
thermal states with a rescaled parameter, which is the closed form the
rest of the package leans on.

The module also carries the channel outputs for Fock ancillas (the
building block of the ordering argument that proves the vacuum ancilla
optimal), composed from the same two kernels; the Gaussian-noise top-up
that fills the gap below threshold; and the classical affine channel
x -> k x + Z.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fock import DiagonalFockState, _log_factorials
from .params import (
    AMPLIFY,
    ATTENUATE,
    channel_s_tilde,
    check_count,
    check_k,
    check_nonnegative,
    check_positive,
    check_thermal,
    normalize_kind,
)
from .risk import classical_threshold

__all__ = [
    "ATTENUATE",
    "AMPLIFY",
    "normalize_kind",
    "ClassicalGaussian",
    "thinning_matrix",
    "gain_matrix",
    "attenuate_kernel",
    "amplify_kernel",
    "channel_s_tilde",
    "fock_ancilla_outputs",
    "gaussian_noise_topup",
    "classical_channel",
]

# Largest omitted mass an auto-sized amplifier output cutoff may add.
_TAIL_TARGET = 1e-14

# Most entries, (out cutoff + 1) x (in cutoff + 1), of an auto-sized
# amplifier block: 128 MB of float64, ten times the largest the tests build.
_MAX_BLOCK = 1 << 24


@dataclass(frozen=True)
class ClassicalGaussian:
    """Normal distribution N(mean, variance); variance 0 is a point mass."""

    mean: float
    variance: float

    def __post_init__(self):
        if not math.isfinite(self.mean):
            raise ValueError(f"mean must be finite, got {self.mean}")
        check_nonnegative("variance", self.variance)


def _binomial(n, m, p: float) -> np.ndarray:
    """C(n, m) p^m (1-p)^(n-m) over broadcast integer arrays, 0 where m > n.

    The loss law is ``_binomial(n, m, k^2)``; the gain law is the same
    law read along the other index, ``_binomial(m, n, 1/k^2) / k^2``.
    Requires 0 < p < 1.  Each entry is exp of a sum of three entries of a
    `math.lgamma` log-factorial table, built up to n.max(), and the two
    log-powers.  The log-factorials cancel, so the relative error grows
    as eps * lgamma(n + 1): up to about 1e-12 at n = 500 and 1e-11 at
    n = 3000.
    """
    n, m = np.broadcast_arrays(n, m)
    valid = m <= n
    m = np.where(valid, m, 0)
    d = n - m
    logf = _log_factorials(int(n.max()))
    logp = logf[n] - logf[m] - logf[d] + m * math.log(p) + d * math.log1p(-p)
    return np.where(valid, np.exp(logp), 0.0)


def thinning_matrix(k: float, cutoff: int) -> np.ndarray:
    """Dense beamsplitter kernel on support 0..cutoff; columns sum to 1."""
    k = check_k(ATTENUATE, k)
    cutoff = check_count("cutoff", cutoff)
    levels = np.arange(cutoff + 1)
    return _binomial(levels, levels[:, None], k * k)


def gain_matrix(k: float, in_cutoff: int, out_cutoff: int) -> np.ndarray:
    """Dense amplifier kernel; columns sum to 1 minus the out_cutoff tail."""
    k = check_k(AMPLIFY, k)
    in_cutoff = check_count("in_cutoff", in_cutoff)
    out_cutoff = check_count("out_cutoff", out_cutoff)
    G = k * k
    return _binomial(np.arange(out_cutoff + 1)[:, None], np.arange(in_cutoff + 1), 1.0 / G) / G


def attenuate_kernel(k: float, state: DiagonalFockState) -> DiagonalFockState:
    """Apply the vacuum-ancilla beamsplitter channel to a diagonal state.

    The output cutoff equals the input cutoff (loss never raises the
    photon number); the input's omitted mass carries over unchanged.
    """
    return DiagonalFockState(thinning_matrix(k, state.cutoff) @ state.probs, state.tail_bound)


def _nb_tail_start(n: int, log_q: float, log_1q: float, log_scale: float, log_mass: float) -> int:
    """First t where exp(log_scale) NB_n(t) / (1 - rho_t) < exp(log_mass) and rho_t < 1.

    NB_n(t) = C(n+t, t) q^t (1-q)^(n+1) is the law of an amplifier column
    and of a squeezer ladder's spread; rho_t = q (n+t+1) / (t+1) is its
    pmf ratio.  Past the mode (rho_t < 1) NB_n(t) / (1 - rho_t) bounds the
    tail from t and falls with t, so doubling, then bisection, finds the
    first such t.  When q rounds to 1 none exists: past 2^40 the search
    stops and returns its last t.
    """
    q, lgamma = math.exp(log_q), math.lgamma

    def below(t: int) -> bool:
        ratio = q * (n + t + 1.0) / (t + 1.0)
        if ratio >= 1.0:
            return False
        log_nb = lgamma(n + t + 1.0) - lgamma(t + 1.0) - lgamma(n + 1.0)
        return log_scale + log_nb + t * log_q + (n + 1) * log_1q - math.log1p(-ratio) < log_mass

    lo, hi = -1, 0
    while not below(hi):
        if hi > 1 << 40:
            return hi
        lo, hi = hi, 2 * hi + 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if below(mid) else (mid, hi)
    return hi


def _auto_out_cutoff(G: float, in_cutoff: int, **inputs: float) -> int:
    """Output cutoff leaving each amplifier column, n + NB_n at rate 1/G, under _TAIL_TARGET.

    ValueError naming `inputs` when the block would pass _MAX_BLOCK entries.
    """
    out_cutoff = in_cutoff + _nb_tail_start(
        in_cutoff, math.log1p(-1.0 / G), -math.log(G), 0.0, math.log(_TAIL_TARGET)
    )
    if (out_cutoff + 1) * (in_cutoff + 1) > _MAX_BLOCK:
        named = ", ".join(f"{name} = {value!r}" for name, value in inputs.items())
        size = f"{out_cutoff + 1} x {in_cutoff + 1}"
        raise ValueError(f"{named}: the amplifier block needs {size} entries, over {_MAX_BLOCK}")
    return out_cutoff


def amplify_kernel(
    k: float, state: DiagonalFockState, out_cutoff: int | None = None
) -> DiagonalFockState:
    """Apply the vacuum-ancilla parametric-amplifier channel.

    By default the output cutoff is certified by `_nb_tail_start`: every
    kernel column omits at most _TAIL_TARGET, and ValueError names k when
    the kernel would pass _MAX_BLOCK = 2^24 entries.  Pass ``out_cutoff``
    to pin the support instead.  Either way the output's tail bound adds
    the measured truncation, the input's norm minus the output's, to the
    input's own tail bound.
    """
    k = check_k(AMPLIFY, k)
    if out_cutoff is None:
        out_cutoff = _auto_out_cutoff(k * k, state.cutoff, k=k)
    out = gain_matrix(k, state.cutoff, out_cutoff) @ state.probs
    # Exact arithmetic would give sum(out) = norm(input); the deficit is
    # the measured kernel truncation.
    kernel_loss = max(state.norm - float(out.sum()), 0.0)
    return DiagonalFockState(out, state.tail_bound + kernel_loss)


def fock_ancilla_outputs(kind: str, k: float, s1: float, max_level: int) -> np.ndarray:
    """Output laws for thermal(s1) input and Fock ancillas |0>, ..., |max_level>.

    Column kappa of the returned (cutoff+1, max_level+1) array is the
    output photon-number law for ancilla |kappa>; a mixed ancilla with
    level weights w gives ``outputs @ w``.  Seen from the ancilla, the
    channel is phase-insensitive and Gaussian with the thermal input as
    its environment, so it is pure loss eta followed by a quantum-limited
    amplifier of gain G (Caruso, Giovannetti & Holevo, New J. Phys. 8,
    310, 2006).  With N = s1 / (1 - s1):

    - attenuation: G = 1 + k^2 N, eta = (1 - k^2) / G;
    - amplification: G = k^2 (1 + N), eta = (k^2 - 1) / (G - 1), and the
      ancilla comes out phase-conjugated, so the amplifier column of
      level j is shifted down by j: P(m | j) = C(m+j, j) G^-(j+1) (1-1/G)^m.

    Column 0 is thermal(s~).  The cutoff is certified by `_nb_tail_start`:
    every amplifier column omits at most _TAIL_TARGET.  ValueError names k
    and s1 when the amplifier block would pass _MAX_BLOCK = 2^24 entries.
    """
    kind = normalize_kind(kind)
    k = check_k(kind, k)
    s1 = check_thermal("s1", s1)
    max_level = check_count("max_level", max_level)
    N = s1 / (1.0 - s1)
    if kind == ATTENUATE:
        G = 1.0 + k * k * N
        eta = (1.0 - k * k) / G
    else:
        G = k * k * (1.0 + N)
        eta = (k * k - 1.0) / (G - 1.0)
    levels = np.arange(max_level + 1)
    # at s1 = 0 the gain (attenuation) or the loss (amplification) is the identity
    loss = np.eye(max_level + 1) if eta == 1.0 else _binomial(levels, levels[:, None], eta)
    if G == 1.0:
        return loss
    rows = np.arange(_auto_out_cutoff(G, max_level, k=k, s1=s1) + 1)[:, None]
    if kind == AMPLIFY:
        rows = rows + levels
    return (_binomial(rows, levels, 1.0 / G) / G) @ loss


def gaussian_noise_topup(s_tilde: float, s2: float) -> float:
    """Displacement-noise variance v turning thermal(s~) into thermal(s2).

    v is the mean-photon deficit s2/(1-s2) - s~/(1-s~); random complex
    Gaussian displacements with E|alpha|^2 = v convolve the P-function
    of thermal(s~) up to that of thermal(s2).  Requires s~ <= s2.
    """
    check_thermal("s_tilde", s_tilde)
    check_thermal("s2", s2)
    if s_tilde > s2:
        raise ValueError("no noise top-up exists for s_tilde > s2")
    return s2 / (1.0 - s2) - s_tilde / (1.0 - s_tilde)


def classical_channel(
    k: float, V1: float, V2: float, x: ClassicalGaussian
) -> ClassicalGaussian:
    """Affine classical channel X -> k X + Z tuned for N(u, V1) -> N(k u, V2).

    Below the classical threshold k0c = sqrt(V2 / V1) the additive noise
    Z ~ N(0, V2 - k^2 V1) reaches the target variance exactly; above it
    the optimal choice is Z = 0 and the variance stays k^2 Var(X).
    """
    k0c = classical_threshold(V1, V2)
    check_positive("k", k)
    if k <= k0c:
        return ClassicalGaussian(k * x.mean, k * k * x.variance + (V2 - k * k * V1))
    return ClassicalGaussian(k * x.mean, k * k * x.variance)
