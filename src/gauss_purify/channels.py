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

from .fock import DiagonalFockState
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

# Kernels are applied in column chunks of this many input levels, keeping
# memory bounded at large cutoffs.
_STREAM_CHUNK = 256

# Largest omitted mass an auto-sized amplifier output cutoff may add.
_TAIL_TARGET = 1e-14


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
    Requires 0 < p < 1.  The log-gamma terms cancel, so the relative
    error grows as eps * lgamma(n + 1): up to about 1e-12 at n = 500 and
    1e-11 at n = 3000.
    """
    from scipy.special import gammaln

    n, m = np.broadcast_arrays(n, m)
    valid = m <= n
    d = np.where(valid, n - m, 0)
    logp = gammaln(n + 1) - gammaln(m + 1) - gammaln(d + 1) + m * math.log(p) + d * math.log1p(-p)
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


def _stream_apply(law, probs: np.ndarray, out_cutoff: int) -> np.ndarray:
    """Accumulate law(m, n) @ probs[n] over m = 0..out_cutoff in column
    chunks of n to bound memory."""
    m = np.arange(out_cutoff + 1)[:, None]
    out = np.zeros(out_cutoff + 1)
    for start in range(0, probs.size, _STREAM_CHUNK):
        n = np.arange(start, min(start + _STREAM_CHUNK, probs.size))
        out += law(m, n) @ probs[n]
    return out


def attenuate_kernel(k: float, state: DiagonalFockState) -> DiagonalFockState:
    """Apply the vacuum-ancilla beamsplitter channel to a diagonal state.

    The output cutoff equals the input cutoff (loss never raises the
    photon number); the input's omitted mass carries over unchanged.
    """
    k = check_k(ATTENUATE, k)
    eta = k * k
    out = _stream_apply(lambda m, n: _binomial(n, m, eta), state.probs, state.cutoff)
    return DiagonalFockState(out, state.cutoff, state.tail_bound)


def _auto_out_cutoff(G: float, in_cutoff: int) -> int:
    """Output cutoff keeping every amplifier column tail below _TAIL_TARGET.

    The column for input n is negative binomial with n + 1 successes at
    rate 1/G: mean (n + 1)(G - 1), geometric decay ratio 1 - 1/G past
    the bulk.  The enlargement below is a safe analytic overestimate;
    the applied truncation is still measured afterwards.
    """
    mean = (in_cutoff + 1) * (G - 1.0)
    decay = -math.log(_TAIL_TARGET) / -math.log1p(-1.0 / G)
    return int(in_cutoff + mean + 10.0 * math.sqrt(mean + 1.0) + decay + 64)


def amplify_kernel(
    k: float, state: DiagonalFockState, out_cutoff: int | None = None
) -> DiagonalFockState:
    """Apply the vacuum-ancilla parametric-amplifier channel.

    The output cutoff is auto-enlarged until the kernel truncation adds
    at most _TAIL_TARGET of omitted mass on top of the input's own tail
    bound; pass ``out_cutoff`` to pin the support instead (the omitted
    mass is then whatever the truncation measures).
    """
    k = check_k(AMPLIFY, k)
    G = k * k
    fixed_cutoff = out_cutoff is not None
    if fixed_cutoff:
        out_cutoff = check_count("out_cutoff", out_cutoff)
    else:
        out_cutoff = _auto_out_cutoff(G, state.cutoff)
    out = _stream_apply(lambda m, n: _binomial(m, n, 1.0 / G) / G, state.probs, out_cutoff)
    # Exact arithmetic would give sum(out) = norm(input); the deficit is
    # the measured kernel truncation.
    kernel_loss = max(state.norm - float(out.sum()), 0.0)
    if not fixed_cutoff and kernel_loss > 10.0 * _TAIL_TARGET:
        raise RuntimeError(
            f"amplifier cutoff enlargement insufficient: residual {kernel_loss:.3e}"
        )
    return DiagonalFockState(out, out_cutoff, state.tail_bound + kernel_loss)


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

    Column 0 is thermal(s~).  The cutoff keeps every amplifier column's
    tail below _TAIL_TARGET.
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
    rows = np.arange(_auto_out_cutoff(G, max_level) + 1)[:, None]
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
    check_positive("V1", V1)
    check_positive("V2", V2)
    check_positive("k", k)
    k0c = math.sqrt(V2 / V1)
    if k <= k0c:
        return ClassicalGaussian(k * x.mean, k * k * x.variance + (V2 - k * k * V1))
    return ClassicalGaussian(k * x.mean, k * k * x.variance)
