"""One workload in a fresh interpreter; started by run.py, not by hand.

    python3 perfbench/worker.py WORKLOAD SEED SECONDS MODE

MODE is `setup` (set up, print READY, exit), `run` (set up, print READY,
run the timed loop, check, print one JSON line), `trace` (the same with
the tracer installed before set-up) or `smoke` (one small round).  A
`run` also times the host's reference loop just before and just after
its timed loop, as a control.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from bench import common  # noqa: E402
from bench.workloads import make  # noqa: E402


def main(argv: list) -> int:
    name, seed, seconds, mode = argv[0], int(argv[1]), float(argv[2]), argv[3]
    common.use_program_source()
    wl = make(name, seed, smoke=mode == "smoke")
    tracer = None
    if mode == "trace" and name == "cli_calls":
        wl.trace_children()  # the work happens in the children
    elif mode == "trace":
        from bench.tracer import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        wl.setup()  # untraced: the tracer records only inside timed operations
        print(common.READY, flush=True)
        if mode == "setup":
            return 0
        ref_before = common.ref_loop_ms() if mode == "run" else None
        res = common.timed_loop(wl, seconds, max_rounds=1 if mode == "smoke" else None, tracer=tracer)
        ref_after = common.ref_loop_ms() if mode == "run" else None
        failures = res["failures"] if res["latencies"] else ["no operation completed"]
        out = {
            "workload": name,
            "attempted": res["attempted"],
            "failed": res["failed"],
            "rounds": res["rounds"],
            "wall_s": res["wall"],
            "latencies_ms": [x * 1e3 for x in res["latencies"]],
            "tail_pct": wl.TAIL_PCT,
            "peak_rss_mb": res["peak_rss_mb"],
            "ref_loop_ms": [ref_before, ref_after],
            "failures": failures[:20],
            "failure_count": len(failures),
        }
        if mode == "trace":
            out["trace"] = wl.traced_totals(tracer)
        print(json.dumps(out), flush=True)
        return 0
    finally:
        wl.close()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
