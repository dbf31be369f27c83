"""Spans around the program's public functions, installed from outside.

Tracer.install wraps every public function of fock, channels, risk,
sweeps, oracles and cli, and patches the wrapper into every module
namespace of the package that holds the original, so calls made through
`from .risk import gaussian_risk` are caught too.  Each span records its
name, layer, start, end and parent; the parent travels in a context
variable, and the sweep's thread pool copies the submitting context, so
rows computed on the pool's worker thread still hang below their
run_sweep span.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import json
import sys
import time
from concurrent.futures import ThreadPoolExecutor

LAYERS = ["fock", "channels", "risk", "sweeps", "oracles", "cli"]

# Closed forms of the risk layer (case 4 and the classifier excluded).
CLOSED_FORMS = {
    "geometric_l1", "gaussian_l1", "quantum_threshold", "classical_threshold", "s_tilde",
    "quantum_minimax_risk", "classical_minimax_risk", "optimal_rate", "qubit_thresholds",
}
CLASSIFIERS = {"gaussian_risk", "combined_risk"}
KIND_SPANS = {"simulate_channel", "kraus_operators", "assemble_two_mode_unitary"}

_current: contextvars.ContextVar = contextvars.ContextVar("perfbench_span", default=None)


class _ContextPool(ThreadPoolExecutor):
    """Thread pool whose tasks run in a copy of the submitter's context."""

    def submit(self, fn, /, *args, **kwargs):
        return super().submit(contextvars.copy_context().run, fn, *args, **kwargs)


class Span:
    __slots__ = ("id", "parent", "layer", "name", "start", "end", "error", "attrs")

    def __init__(self, sid, parent, layer, name):
        self.id, self.parent, self.layer, self.name = sid, parent, layer, name
        self.start = self.end = 0.0
        self.error = False
        self.attrs = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_list(self) -> list:
        return [self.id, self.parent, self.layer, self.name, self.start, self.end, self.error, self.attrs]


def _sweep_output(path) -> dict:
    """Rows, nan rows and bytes of a sweep CSV, read after the call."""
    rows = nan_rows = 0
    with open(path, "rb") as fh:
        data = fh.read()
    for line in data.decode("utf-8").splitlines():
        if line.startswith("#"):
            continue
        rows += 1
        if "nan" in line.split(","):
            nan_rows += 1
    return {"rows": rows - 1, "nan_rows": nan_rows, "bytes": len(data)}  # less the header


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.active = False  # spans are recorded only while this is set
        self._ids = itertools.count()
        self._patched: list = []  # (module, attribute, original)

    def wrap(self, layer: str, name: str, fn):
        spans, ids, clock, tracer = self.spans, self._ids, time.perf_counter, self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span = Span(next(ids), _current.get(), layer, name)
            token = _current.set(span.id)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = clock()
                _current.reset(token)
                spans.append(span)
            if name in KIND_SPANS:
                kind = args[0] if args else kwargs.get("kind")
                span.attrs = {"kind": "amp" if str(kind).lower().startswith("amp") else "att"}
            elif name == "ancilla_optimality_search":
                span.attrs = {"candidates": result.samples + result.max_level + 1}
            elif name == "run_sweep":
                span.attrs = _sweep_output(result)
            return result

        return traced

    def install(self) -> None:
        """Wrap the public functions of every layer, wherever they are bound."""
        import importlib

        modules = {layer: importlib.import_module(f"gauss_purify.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for name, obj in vars(mod).items():
                if name.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                wrappers[id(obj)] = (obj, self.wrap(layer, name, obj))
        for modname, mod in list(sys.modules.items()):
            if modname != "gauss_purify" and not modname.startswith("gauss_purify."):
                continue
            for attr, val in list(vars(mod).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    self._patched.append((mod, attr, val))
                    setattr(mod, attr, hit[1])
        self._patched.append((modules["sweeps"], "ThreadPoolExecutor", modules["sweeps"].ThreadPoolExecutor))
        modules["sweeps"].ThreadPoolExecutor = _ContextPool

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([s.as_list() for s in self.spans], fh)


def load(path: str) -> list[Span]:
    with open(path, "r", encoding="utf-8") as fh:
        rows = json.load(fh)
    spans = []
    for sid, parent, layer, name, start, end, error, attrs in rows:
        span = Span(sid, parent, layer, name)
        span.start, span.end, span.error, span.attrs = start, end, error, attrs
        spans.append(span)
    return spans


def self_times(spans: list[Span]) -> dict:
    """Self time of each span: its duration less the union of its children's intervals."""
    children: dict = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        edge = s.start
        for a, b in sorted(children.get(s.id, ())):
            a, b = max(a, edge), min(b, s.end)
            if b > a:
                covered += b - a
                edge = b
        out[s.id] = s.duration - covered
    return out


def layer_totals(spans: list[Span]) -> dict:
    """Per-layer sums of one traced workload (see the README for each name)."""
    by_id = {s.id: s for s in spans}
    own = self_times(spans)

    def outermost(span, group) -> bool:
        """True if no ancestor of the span belongs to the group."""
        p = span.parent
        while p is not None:
            anc = by_id.get(p)
            if anc is None:
                return True
            if group(anc):
                return False
            p = anc.parent
        return True

    t = {name: 0.0 for name in (
        "fock.calls", "fock.busy_s", "channels.calls", "channels.busy_s", "risk.closed_busy_s",
        "risk.case4_calls", "risk.case4_busy_s", "risk.case4_errors", "risk.self_s", "sweeps.rows",
        "sweeps.nan_rows", "sweeps.csv_bytes", "sweeps.self_s", "oracles.amp_busy_s", "oracles.att_busy_s",
        "oracles.search_candidates", "oracles.search_busy_s", "oracles.self_s",
    )}
    case4 = []
    for s in spans:
        if s.layer in ("fock", "channels") and outermost(s, lambda a, layer=s.layer: a.layer == layer):
            t[f"{s.layer}.calls"] += 1
            t[f"{s.layer}.busy_s"] += s.duration
        if s.layer == "risk":
            if s.name in CLOSED_FORMS and outermost(s, lambda a: a.name in CLOSED_FORMS):
                t["risk.closed_busy_s"] += s.duration
            elif s.name == "case4_risk":
                t["risk.case4_calls"] += 1
                t["risk.case4_busy_s"] += s.duration
                t["risk.case4_errors"] += s.error
                case4.append(s.duration)
            elif s.name in CLASSIFIERS:
                t["risk.self_s"] += own[s.id]
        elif s.layer == "sweeps" and s.name == "run_sweep":
            t["sweeps.self_s"] += own[s.id]
            if s.attrs:
                t["sweeps.rows"] += s.attrs["rows"]
                t["sweeps.nan_rows"] += s.attrs["nan_rows"]
                t["sweeps.csv_bytes"] += s.attrs["bytes"]
        elif s.layer == "oracles":
            t["oracles.self_s"] += own[s.id]
            if s.name in KIND_SPANS and s.attrs and outermost(s, lambda a: a.name in KIND_SPANS):
                t[f"oracles.{s.attrs['kind']}_busy_s"] += s.duration
            elif s.name == "ancilla_optimality_search":
                t["oracles.search_candidates"] += s.attrs["candidates"] if s.attrs else 0
                t["oracles.search_busy_s"] += s.duration
    return {"totals": t, "case4_durations": case4}
