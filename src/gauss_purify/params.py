"""Parameter checks and channel-kind rules, on the standard library alone.

Every layer validates s1, s2, V1, V2, k, counts and the channel kind
here: k < 1 is attenuation (a beamsplitter), k > 1 amplification (a
parametric amplifier).  Each check raises ValueError naming the
parameter, and is written so that NaN fails too.
"""

import cmath
import math

__all__ = [
    "ATTENUATE",
    "AMPLIFY",
    "normalize_kind",
    "kind_for_k",
    "ordered",
    "check_k",
    "channel_s_tilde",
    "check_thermal",
    "check_positive",
    "check_nonnegative",
    "check_open_unit",
    "check_count",
    "check_alpha",
    "DEFAULT_SEED",
]

ATTENUATE = "att"
AMPLIFY = "amp"

# seed of `verify` and of the sampling oracles, here so that `cli` can
# offer it without loading the oracle layer
DEFAULT_SEED = 42


def check_thermal(name: str, s: float) -> float:
    if not 0.0 <= s < 1.0:
        raise ValueError(f"{name} must lie in [0, 1), got {s}")
    return float(s)


def check_open_unit(name: str, x: float) -> None:
    if not 0.0 < x < 1.0:
        raise ValueError(f"{name} must lie in (0, 1), got {x}")


def check_positive(name: str, x: float) -> None:
    if not (math.isfinite(x) and x > 0.0):
        raise ValueError(f"{name} must be finite and positive, got {x}")


def check_nonnegative(name: str, x: float) -> None:
    if not (math.isfinite(x) and x >= 0.0):
        raise ValueError(f"{name} must be finite and nonnegative, got {x}")


def check_count(name: str, n, least: int = 0) -> int:
    # NaN, inf and fractions fail is_integer, and non-numbers float or >=
    try:
        ok = float(n).is_integer() and n >= least
    except (TypeError, ValueError):
        ok = False
    if not ok:
        raise ValueError(f"{name} must be an integer >= {least}, got {n}")
    return int(n)


def check_alpha(alpha) -> complex:
    alpha = complex(alpha)
    if not cmath.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha}")
    return alpha


def normalize_kind(kind: str) -> str:
    k = str(kind).strip().lower()
    if k in ("att", "attenuate", "attenuation"):
        return ATTENUATE
    if k in ("amp", "amplify", "amplification"):
        return AMPLIFY
    raise ValueError(f"unknown channel kind: {kind!r}")


def kind_for_k(k: float) -> str:
    """The physical channel family: beamsplitter up to k = 1, amplifier beyond."""
    return ATTENUATE if k <= 1.0 else AMPLIFY


def ordered(kind: str, s1: float, s2: float) -> bool:
    """Whether attenuation cools (s1 >= s2) or amplification heats (s1 <= s2)."""
    return s1 >= s2 if kind == ATTENUATE else s1 <= s2


def check_k(kind: str, k: float, closed: bool = False) -> float:
    """k inside the channel's own regime; NaN and inf fail too.

    Attenuation needs 0 < k < 1 and amplification 1 < k < inf; closed
    also admits k = 1, where either channel is the identity.
    """
    k = float(k)
    if closed and k == 1.0:
        return k
    if kind == ATTENUATE and not 0.0 < k < 1.0:
        raise ValueError(f"k must lie in (0, 1{']' if closed else ')'} for attenuation, got {k}")
    if kind == AMPLIFY and not 1.0 < k < math.inf:
        raise ValueError(f"k must lie in {'[' if closed else '('}1, inf) for amplification, got {k}")
    return k


def channel_s_tilde(kind: str, s1: float, k: float) -> float:
    """Thermal parameter after the channel: thermal(s1) -> thermal(s~).

    s~_att = s1 k^2 / (1 - s1 + s1 k^2) and s~_amp = 1 - (1 - s1) / k^2.
    k must lie in the kind's closed regime, 0 < k <= 1 for attenuation
    and 1 <= k < inf for amplification, so s~ stays in [0, 1);
    ValueError naming k otherwise.
    """
    kind = normalize_kind(kind)
    check_thermal("s1", s1)
    k = check_k(kind, k, closed=True)
    if kind == ATTENUATE:
        return s1 * k * k / (1.0 - s1 + s1 * k * k)
    return 1.0 - (1.0 - s1) / (k * k)
