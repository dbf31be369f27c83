"""Shared pieces of the benchmark: paths, environment, percentiles, the loop.

Every workload is a closed loop with a single caller: the next operation
starts only after the previous one returned.  A run is made of whole
rounds.  A round is a fixed multiset of operation kinds whose inputs are
drawn from the seed and the round index, in a seeded order, so every
run attempts the same mix whatever its seed or length.
"""

from __future__ import annotations

import json
import math
import os
import random
import resource
import sys
import time
import traceback
from array import array

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH_DIR, "out")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")

# All four run under `run.py --workload all` and in the traced run;
# BENCHMARK.json gates oracle_checks and cli_calls, whose runs repeated
# within their bounds on the host measured (see the README).
WORKLOADS = ["risk_queries", "figure_sweeps", "oracle_checks", "cli_calls"]

# Pools of native threads are held to one, so every workload runs on a
# single core and a second core stays free for the rest of the machine.
SINGLE_THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "GAUSS_PURIFY_THREADS": "1",
}

READY = "READY"
# peak RSS is read after this many rounds (or at the end of a shorter
# run), so it measures the footprint of a fixed amount of work and not
# the number of rounds a run's speed allows
RSS_ROUNDS = 2


def load_spec() -> dict:
    with open(SPEC_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


def program_present() -> bool:
    return os.path.isfile(os.path.join(SRC, "gauss_purify", "__init__.py"))


def child_env() -> dict:
    """Environment of every interpreter the benchmark starts."""
    env = dict(os.environ)
    env.update(SINGLE_THREAD_ENV)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = SRC + (os.pathsep + old if old else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def use_program_source() -> None:
    """Import the package from this checkout's src, never from elsewhere."""
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    import gauss_purify

    here = os.path.realpath(os.path.dirname(gauss_purify.__file__))
    if here != os.path.realpath(os.path.join(SRC, "gauss_purify")):
        raise RuntimeError(f"gauss_purify imported from {here}, not from {SRC}")


def round_rng(workload: str, seed: int, round_index: int) -> random.Random:
    # string seeds hash through sha512, so draws do not depend on PYTHONHASHSEED
    return random.Random(f"{workload}/{seed}/{round_index}")


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def spread_offset(workload: str, seed: int, slot: str, index: int) -> float:
    """Position in [0, 1) of slot `slot` in round `index`.

    The seed fixes a start; each round moves it by the golden ratio, so
    over any number of rounds the positions fill [0, 1) evenly.  Inputs
    placed by it give the same cost distribution on every seed.
    """
    start = random.Random(f"{workload}/{seed}/{slot}").random()
    return (start + index * _GOLDEN) % 1.0


def percentile(values, pct: float) -> float:
    """Linear-interpolation percentile of unsorted values (pct in [0, 100])."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of no values")
    pos = (len(data) - 1) * pct / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def median(values) -> float:
    return percentile(values, 50.0)


def peak_rss_mb(children: bool = False) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # KiB on Linux


def ref_loop_ms(reps: int = 5) -> float:
    """Median time of a fixed pure-Python loop: moves only if the machine does."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        acc = 0
        for i in range(300_000):
            acc += i * i % 7
        times.append((time.perf_counter() - t0) * 1e3)
    return median(times)


class Workload:
    """One workload: its round, how to run an operation, how to check it.

    Subclasses set NAME and TAIL_PCT and implement setup, make_round, run
    and check_op.  make_round returns a list of operations; run performs
    one and returns its output; check_op returns the failure messages for
    one operation and its output.  Outputs are checked as they come and
    then dropped, so memory does not grow with the number of operations.
    """

    NAME = ""
    TAIL_PCT = 50.0
    RSS_OF_CHILDREN = False

    def __init__(self, seed: int, smoke: bool = False):
        self.seed = seed
        self.smoke = smoke

    def setup(self) -> None:
        raise NotImplementedError

    def make_round(self, index: int) -> list:
        raise NotImplementedError

    def run(self, op):
        raise NotImplementedError

    def check_op(self, op, out) -> list:
        raise NotImplementedError

    def close(self) -> None:
        pass

    def traced_totals(self, tracer) -> dict:
        """Per-layer sums of the timed loop, from the tracer's spans."""
        from .tracer import layer_totals

        return layer_totals(tracer.spans)


def timed_loop(wl: Workload, seconds: float, max_rounds: int | None = None, tracer=None) -> dict:
    """Run whole rounds until the operations have taken `seconds` (or max_rounds ran).

    Only the operations are timed: their summed time is the run's timed
    wall time.  Generating a round and checking outputs happen between
    operations, untimed and, when a tracer is given, untraced.  An
    operation that raises is counted as failed and its traceback goes to
    stderr.  Peak RSS is read once RSS_ROUNDS rounds have run.
    """
    latencies = array("d")
    failures: list = []
    failed = attempted = rounds = 0
    busy = 0.0
    rss = None
    clock = time.perf_counter
    while True:
        for op in wl.make_round(rounds):
            attempted += 1
            error = None
            if tracer is not None:
                tracer.active = True
            t0 = clock()
            try:
                out = wl.run(op)
            except Exception:
                error = traceback.format_exc()
            dt = clock() - t0
            if tracer is not None:
                tracer.active = False
            busy += dt
            if error is not None:
                failed += 1
                print(f"[{wl.NAME}] operation failed: {op!r}\n{error}", file=sys.stderr)
                continue
            latencies.append(dt)
            failures += wl.check_op(op, out)
        rounds += 1
        if rounds == RSS_ROUNDS:
            rss = peak_rss_mb(children=wl.RSS_OF_CHILDREN)
        if max_rounds is not None and rounds >= max_rounds:
            break
        if max_rounds is None and busy >= seconds:
            break
    return {
        "latencies": latencies,
        "failures": failures,
        "wall": busy,
        "rounds": rounds,
        "attempted": attempted,
        "failed": failed,
        "peak_rss_mb": rss if rss is not None else peak_rss_mb(children=wl.RSS_OF_CHILDREN),
    }
