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
from dataclasses import dataclass, field, fields
from functools import partial
from typing import Callable, Optional

from . import __version__
from .params import AMPLIFY, ATTENUATE, channel_s_tilde, check_count
from .risk import (
    FIG6_SCENARIOS,
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
    _fmt,
    _NUM,
)

__all__ = ["SweepConfig", "FIGURE_TARGETS", "read_config", "run_sweep", "worker_count"]

def worker_count(explicit: int | str | None = None) -> int:
    """Thread-pool size: explicit arg, else GAUSS_PURIFY_THREADS, else cores.

    A given size, a number or its text, must be an integer >= 1;
    ValueError names its source.
    """
    name, value = "threads", explicit
    if value is None:
        name, value = "GAUSS_PURIFY_THREADS", os.environ.get("GAUSS_PURIFY_THREADS")
        if not value:
            return min(8, os.cpu_count() or 1)
    if isinstance(value, str):
        try:
            value = int(value)
        except ValueError:
            raise ValueError(f"{name} must be an integer, got {value!r}") from None
    return check_count(name, value, least=1)


# the type each SweepConfig field must have; threads is worker_count's to check
_SHAPES = {"target": str, "output": str, "ranges": dict, "fixed": dict, "mode": (str, type(None))}


def _check_field(key: str, value) -> None:
    """ValueError naming a SweepConfig field, or a config key, of the wrong shape."""
    if key == "threads":
        if value is not None:
            worker_count(value)
    elif not isinstance(value, _SHAPES[key]):
        what = "an object" if _SHAPES[key] is dict else "a string"
        raise ValueError(f"config key {key!r} must be {what}, got {value!r}")


@dataclass(frozen=True)
class SweepConfig:
    """One sweep request: a target, optional overrides, and an output path.

    Construction checks every field's type (see `_check_field`).
    """

    target: str
    output: str
    ranges: dict = field(default_factory=dict)
    fixed: dict = field(default_factory=dict)
    mode: Optional[str] = None  # read by `custom` alone, as qubit when None
    threads: Optional[int] = None
    # (what, name) pairs the target's plan has read, as run_sweep names them
    _read: set = field(default_factory=set, init=False, repr=False, compare=False)

    def __post_init__(self):
        for key in _INIT_FIELDS:
            _check_field(key, getattr(self, key))


_INIT_FIELDS = [f.name for f in fields(SweepConfig) if f.init]


def read_config(settings: dict, **flags) -> SweepConfig:
    """The SweepConfig of a config-file object, whose keys are SweepConfig's
    fields, with flags laid over it: None flags are unset, and `ranges` and
    `fixed` flags replace entries by name.  ValueError names an unknown key
    or one of the wrong shape, and a missing target or output.
    """
    for key, value in settings.items():
        if key not in _INIT_FIELDS:
            raise ValueError(f"unknown config key {key!r}; keys are {', '.join(_INIT_FIELDS)}")
        _check_field(key, value)  # also where a flag overrides it
    merged = {"target": None, "output": None, **settings}
    merged.update((key, value) for key, value in flags.items() if value is not None)
    for key in ("ranges", "fixed"):
        merged[key] = {**settings.get(key, {}), **flags.get(key, {})}
    return SweepConfig(**merged)


@dataclass(frozen=True)
class _Plan:
    header: list
    meta: list
    points: list
    row_fn: Callable


def _grid(config: SweepConfig, name: str, default: tuple[float, float, int]) -> list:
    """The range `name` as numpy.linspace(start, stop, steps) would give it,
    bit for bit: i * step + start, the last point stop, and numpy's
    (i / (steps - 1)) * delta + start where the step rounds to 0."""
    config._read.add(("range parameter", name))
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
    div, delta = steps - 1, stop - start
    step = delta / div
    if step == 0.0:
        points = [i / div * delta + start for i in range(div)]
    else:
        points = [i * step + start for i in range(div)]
    return points + [stop]


def _fixed(config: SweepConfig, name: str, default: Optional[float]) -> float:
    config._read.add(("fixed parameter", name))
    if name in config.fixed:
        value = config.fixed[name]
        try:
            return float(value)
        except (TypeError, ValueError):
            raise ValueError(f"fixed parameter {name!r} must be a number, got {value!r}") from None
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
    return _Plan(["k", "s_tilde", "risk"], meta, ks, row)


def _plan_fig3(config: SweepConfig, kind: str) -> _Plan:
    s1s = _grid(config, "s1", (0.02, 0.98, 49))
    s2s = _grid(config, "s2", (0.02, 0.98, 49))
    points = [(a, b) for a in s1s for b in s2s]

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
    points = [(r, lam) for r in r0s for lam in lams]

    def row(point: tuple) -> list:
        r, lam = point
        lt = QubitScenario(r, lam).lambda_tilde
        return [r, lam, lt, int(lam < lt)]

    return _Plan(["r0", "lam", "lambda_tilde", "classical_first"], [], points, row)


def _plan_fig5(config: SweepConfig) -> _Plan:
    r0s = _grid(config, "r0", (0.05, 0.95, 46))
    routs = _grid(config, "r_out", (0.05, 0.95, 46))
    points = [(r, ro) for r in r0s for ro in routs]

    def row(point: tuple) -> list:
        r, ro = point
        lam = ro / r
        sc = QubitScenario(r, lam)
        return [r, ro, lam, rate_branch(sc), optimal_rate(sc)]

    return _Plan(["r0", "r_out", "lam", "branch", "rate"], [], points, row)


_RISK_HEADER = ["k", "case", "s_tilde", "classical_risk", "quantum_risk", "total_risk"]


def _risk_plan(meta: list, ks: list, report: Callable) -> _Plan:
    """k sweep writing the RiskReport `report(k)` of every grid point."""

    def row(k: float) -> list:
        rep = report(k)
        return [k, *(getattr(rep, name) for name in _RISK_HEADER[1:])]

    return _Plan(_RISK_HEADER, meta, ks, row)


def _qubit_risk_plan(meta: list, r0: float, lam: float, ks: list) -> _Plan:
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
    config._read.add(("mode", config.mode))
    mode = "qubit" if config.mode is None else config.mode
    if mode == "qubit":
        r0 = _fixed(config, "r0", None)
        lam = _fixed(config, "lam", None)
        _, kc, _ = qubit_thresholds(QubitScenario(r0, lam))
        ks = _grid(config, "k", (0.02, max(2.0, kc * 1.5), 100))
        return _qubit_risk_plan([("mode", "qubit")], r0, lam, ks)
    if mode == "gaussian":
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
    raise ValueError(f"unknown custom mode {mode!r}")


FIGURE_TARGETS = {
    "fig2a": lambda cfg: _plan_fig2(cfg, ATTENUATE),
    "fig2b": lambda cfg: _plan_fig2(cfg, AMPLIFY),
    "fig3a": lambda cfg: _plan_fig3(cfg, ATTENUATE),
    "fig3b": lambda cfg: _plan_fig3(cfg, AMPLIFY),
    "fig4": _plan_fig4,
    "fig5": _plan_fig5,
    **{
        name: partial(_plan_fig6, r0=r0, lam=lam, k_range=k_range)
        for name, r0, lam, k_range in FIG6_SCENARIOS
    },
    "custom": _plan_custom,
}


def run_sweep(config: SweepConfig) -> str:
    """Execute a sweep and write its CSV; returns the output path.

    Rows whose evaluation raises ValueError (a point outside the domain,
    such as a fig3 threshold across its ordering) or RuntimeError are
    emitted as nan and counted in the `# warnings:` metadata line rather
    than aborting the sweep.  An unknown target, or a fixed name, range
    name or mode the target never reads, raises ValueError before anything
    is written; the output is opened before the first row is computed.
    """
    if config.target not in FIGURE_TARGETS:
        raise ValueError(
            f"unknown sweep target {config.target!r}; targets are {', '.join(FIGURE_TARGETS)}"
        )
    plan = FIGURE_TARGETS[config.target](config)
    given = [("fixed parameter", name) for name in config.fixed]
    given += [("range parameter", name) for name in config.ranges]
    given += [("mode", config.mode)] if config.mode is not None else []
    unread = [item for item in given if item not in config._read]
    if unread:
        raise ValueError("target {!r} reads no {} {!r}".format(config.target, *unread[0]))

    def safe_row(point) -> list:
        try:
            return plan.row_fn(point)
        except (ValueError, RuntimeError):
            vals = point if isinstance(point, tuple) else (point,)
            pad = len(plan.header) - len(vals)
            return list(vals) + [float("nan")] * pad

    pool = ThreadPoolExecutor(max_workers=worker_count(config.threads))
    # opened before the first row, so an unwritable path fails before the work
    with pool, open(config.output, "w", encoding="utf-8", newline="") as fh:
        rows = list(pool.map(safe_row, plan.points))
        warnings = sum(any(isinstance(v, float) and math.isnan(v) for v in r) for r in rows)
        meta = [("tool", f"gauss-purify {__version__}"), ("target", config.target), *plan.meta]
        fh.writelines(f"# {key}: {val}\n" for key, val in meta + [("warnings", warnings)])
        fh.write(",".join(plan.header) + "\n")
        fh.writelines(",".join(_fmt(v) for v in row) + "\n" for row in rows)
    return config.output
