"""Parameter sweeps writing figure-ready CSV files.

Each named target fixes the parameters of one published curve or
surface and sweeps the remaining axis; `custom` sweeps k over a
user-supplied qubit or Gaussian problem.  Output is plain CSV with
`#`-prefixed metadata lines (tool version, fixed parameters, threshold
markers, warning count) so files are diff-friendly and plot-agnostic.

Grid points are dispatched to a thread pool (size capped by the
GAUSS_PURIFY_THREADS environment variable) and written in grid order,
so outputs are byte-identical run to run.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import __version__
from .params import AMPLIFY, ATTENUATE, channel_s_tilde, check_count
from .risk import (
    GaussianProblem,
    QubitScenario,
    classical_threshold,
    combined_risk,
    gaussian_risk,
    optimal_rate,
    quantum_minimax_risk,
    quantum_threshold,
    qubit_thresholds,
    rate_branch,
)

__all__ = ["SweepConfig", "FIGURE_TARGETS", "run_sweep", "worker_count"]

_NUM = "%.12g"


def _fmt(value) -> str:
    """One output value as text: 12 significant digits for numbers,
    `none` for None and `true`/`false` for bools (the CLI's spellings)."""
    if value is None:
        return "none"
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value)).lower()
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return _NUM % float(value)


def worker_count(explicit: Optional[int] = None) -> int:
    """Thread-pool size: explicit arg, else GAUSS_PURIFY_THREADS, else cores."""
    if explicit is not None:
        return max(1, int(explicit))
    env = os.environ.get("GAUSS_PURIFY_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ValueError(f"GAUSS_PURIFY_THREADS must be an integer, got {env!r}") from None
    return min(8, os.cpu_count() or 1)


@dataclass(frozen=True)
class SweepConfig:
    """One sweep request: a target, optional overrides, and an output path."""

    target: str
    output: str
    ranges: dict = field(default_factory=dict)
    fixed: dict = field(default_factory=dict)
    mode: str = "qubit"
    threads: Optional[int] = None
    # ("fixed" | "range", name) pairs the target's plan has read
    _read: set = field(default_factory=set, init=False, repr=False, compare=False)


@dataclass(frozen=True)
class _Plan:
    header: list
    meta: list
    points: list
    row_fn: Callable


def _grid(config: SweepConfig, name: str, default: tuple[float, float, int]) -> np.ndarray:
    config._read.add(("range", name))
    spec = config.ranges.get(name, default)
    try:
        start, stop, steps = map(float, spec)
    except (TypeError, ValueError):
        raise ValueError(f"range {name!r} must be [START, STOP, STEPS], got {spec!r}") from None
    steps = check_count(f"range {name!r} steps", steps, least=2)
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ValueError(f"range {name!r} needs finite endpoints, got {start}:{stop}")
    if not stop > start:
        raise ValueError(f"range {name!r} needs stop > start")
    return np.linspace(start, stop, steps)


def _fixed(config: SweepConfig, name: str, default: Optional[float]) -> float:
    config._read.add(("fixed", name))
    if name in config.fixed:
        return float(config.fixed[name])
    if default is None:
        raise ValueError(f"target {config.target!r} requires fixed parameter {name!r}")
    return default


def _plan_fig2(config: SweepConfig, kind: str) -> _Plan:
    if kind == ATTENUATE:
        s1 = _fixed(config, "s1", 0.8)
        s2 = _fixed(config, "s2", 0.4)
        ks = _grid(config, "k", (0.02, 1.0, 120))
    else:
        s1 = _fixed(config, "s1", 0.4)
        s2 = _fixed(config, "s2", 0.8)
        ks = _grid(config, "k", (1.0, 3.0, 120))
    k0 = quantum_threshold(kind, s1, s2)

    def row(k: float) -> list:
        return [k, channel_s_tilde(kind, s1, k), quantum_minimax_risk(s1, s2, k, kind)]

    meta = [
        ("kind", kind),
        ("fixed", f"s1={_NUM % s1},s2={_NUM % s2}"),
        # thresholds print at full precision so readers recover them exactly
        ("k0_quantum", repr(k0)),
    ]
    return _Plan(["k", "s_tilde", "risk"], meta, [float(k) for k in ks], row)


def _plan_fig3(config: SweepConfig, kind: str) -> _Plan:
    s1s = _grid(config, "s1", (0.02, 0.98, 49))
    s2s = _grid(config, "s2", (0.02, 0.98, 49))
    points = [(float(a), float(b)) for a in s1s for b in s2s]

    # outside the threshold's domain quantum_threshold raises, and
    # run_sweep writes the point as a nan row
    if kind == ATTENUATE:
        header = ["s1", "s2", "k0"]

        def row(point: tuple) -> list:
            return [*point, quantum_threshold(ATTENUATE, *point)]

    else:
        header = ["s1", "s2", "k0_inv"]

        def row(point: tuple) -> list:
            return [*point, 1.0 / quantum_threshold(AMPLIFY, *point)]

    return _Plan(header, [("kind", kind)], points, row)


def _plan_fig4(config: SweepConfig) -> _Plan:
    r0s = _grid(config, "r0", (0.02, 0.98, 49))
    lams = _grid(config, "lam", (0.02, 0.98, 49))
    points = [(float(r), float(lam)) for r in r0s for lam in lams]

    def row(point: tuple) -> list:
        r, lam = point
        lt = QubitScenario(r, lam).lambda_tilde
        return [r, lam, lt, int(lam < lt)]

    return _Plan(["r0", "lam", "lambda_tilde", "classical_first"], [], points, row)


def _plan_fig5(config: SweepConfig) -> _Plan:
    r0s = _grid(config, "r0", (0.05, 0.95, 46))
    routs = _grid(config, "r_out", (0.05, 0.95, 46))
    points = [(float(r), float(ro)) for r in r0s for ro in routs]

    def row(point: tuple) -> list:
        r, ro = point
        lam = ro / r
        sc = QubitScenario(r, lam)
        return [r, ro, lam, rate_branch(sc), optimal_rate(sc)]

    return _Plan(["r0", "r_out", "lam", "branch", "rate"], [], points, row)


_RISK_HEADER = ["k", "case", "s_tilde", "classical_risk", "quantum_risk", "total_risk"]


def _risk_plan(meta: list, ks: np.ndarray, report: Callable) -> _Plan:
    """k sweep writing the RiskReport `report(k)` of every grid point."""

    def row(k: float) -> list:
        rep = report(k)
        return [k, *(getattr(rep, name) for name in _RISK_HEADER[1:])]

    return _Plan(_RISK_HEADER, meta, [float(k) for k in ks], row)


def _qubit_risk_plan(meta: list, r0: float, lam: float, ks: np.ndarray) -> _Plan:
    kq, kc, lt = qubit_thresholds(QubitScenario(r0, lam))
    meta = meta + [
        ("fixed", f"r0={_NUM % r0},lam={_NUM % lam}"),
        ("k0_quantum", repr(kq)),
        ("k0_classical", repr(kc)),
        ("lambda_tilde", repr(lt)),
    ]
    return _risk_plan(meta, ks, lambda k: combined_risk(QubitScenario(r0, lam, k=k)))


def _plan_fig6(config: SweepConfig, r0: float, lam: float, k_range) -> _Plan:
    r0 = _fixed(config, "r0", r0)
    lam = _fixed(config, "lam", lam)
    return _qubit_risk_plan([], r0, lam, _grid(config, "k", k_range))


def _plan_custom(config: SweepConfig) -> _Plan:
    if config.mode == "qubit":
        r0 = _fixed(config, "r0", None)
        lam = _fixed(config, "lam", None)
        _, kc, _ = qubit_thresholds(QubitScenario(r0, lam))
        ks = _grid(config, "k", (0.02, max(2.0, kc * 1.5), 100))
        return _qubit_risk_plan([("mode", "qubit")], r0, lam, ks)
    if config.mode == "gaussian":
        s1 = _fixed(config, "s1", None)
        s2 = _fixed(config, "s2", None)
        V1 = _fixed(config, "V1", None)
        V2 = _fixed(config, "V2", None)
        kc = classical_threshold(V1, V2)
        ks = _grid(config, "k", (0.02, max(2.0, kc * 1.5), 100))
        meta = [
            ("mode", "gaussian"),
            ("fixed", f"s1={_NUM % s1},s2={_NUM % s2},V1={_NUM % V1},V2={_NUM % V2}"),
            ("k0_classical", repr(kc)),
        ]
        return _risk_plan(meta, ks, lambda k: gaussian_risk(GaussianProblem(s1, s2, V1, V2, k)))
    raise ValueError(f"unknown custom mode {config.mode!r}")


FIGURE_TARGETS = {
    "fig2a": lambda cfg: _plan_fig2(cfg, ATTENUATE),
    "fig2b": lambda cfg: _plan_fig2(cfg, AMPLIFY),
    "fig3a": lambda cfg: _plan_fig3(cfg, ATTENUATE),
    "fig3b": lambda cfg: _plan_fig3(cfg, AMPLIFY),
    "fig4": _plan_fig4,
    "fig5": _plan_fig5,
    "fig6a": lambda cfg: _plan_fig6(cfg, 1.0 / 3.0, 2.4, (0.02, 1.0, 99)),
    "fig6b": lambda cfg: _plan_fig6(cfg, 0.8, 5.0 / 12.0, (1.0, 2.2, 97)),
    "fig6c": lambda cfg: _plan_fig6(cfg, 0.5, 0.25, (1.0, 2.5, 97)),
    "custom": _plan_custom,
}


def run_sweep(config: SweepConfig) -> str:
    """Execute a sweep and write its CSV; returns the output path.

    Rows with a domain violation (ValueError) or a non-converged risk
    (RuntimeError, such as the case-4 term cap) are emitted as nan and
    counted in the `# warnings:` metadata line rather than aborting the
    sweep.  A fixed or range name the target never reads raises
    ValueError before anything is written.
    """
    if config.target not in FIGURE_TARGETS:
        raise ValueError(f"unknown sweep target {config.target!r}")
    plan = FIGURE_TARGETS[config.target](config)
    for what, given in (("fixed", config.fixed), ("range", config.ranges)):
        unread = [name for name in given if (what, name) not in config._read]
        if unread:
            raise ValueError(f"target {config.target!r} reads no {what} parameter {unread[0]!r}")

    def safe_row(point) -> list:
        try:
            return plan.row_fn(point)
        except (ValueError, RuntimeError):
            vals = point if isinstance(point, tuple) else (point,)
            pad = len(plan.header) - len(vals)
            return list(vals) + [float("nan")] * pad

    with ThreadPoolExecutor(max_workers=worker_count(config.threads)) as pool:
        rows = list(pool.map(safe_row, plan.points))

    warnings = sum(
        1 for r in rows if any(isinstance(v, float) and math.isnan(v) for v in r)
    )
    with open(config.output, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# tool: gauss-purify {__version__}\n")
        fh.write(f"# target: {config.target}\n")
        for key, val in plan.meta:
            fh.write(f"# {key}: {val}\n")
        fh.write(f"# warnings: {warnings}\n")
        fh.write(",".join(plan.header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")
    return config.output
