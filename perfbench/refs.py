"""Reference figures measured once, outside the timed workloads.

    python3 perfbench/refs.py [--tier1]

Times `verify --suite fast` and `--suite full` in-process, with each
check's own wall time (each registered check is wrapped in a timer from
outside the program), and with --tier1 the wall time of the package's
test suite (run first, in its usual environment; the verify suites
then run with native thread pools held to one, like the workloads).
Results are printed and saved to perfbench/out/refs.json.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from bench import common  # noqa: E402


def time_suite(suite: str) -> dict:
    from gauss_purify import oracles

    split: dict = {}
    checks = oracles._SUITE_CHECKS
    original = list(checks)

    def timed(fn):
        def call(rng, fast):
            t0 = time.perf_counter()
            try:
                return fn(rng, fast)
            finally:
                split[fn.__name__.removeprefix("_check_")] = time.perf_counter() - t0
        return call

    checks[:] = [timed(fn) for fn in original]
    try:
        t0 = time.perf_counter()
        report = oracles.run_verification_suite(suite=suite)
        total = time.perf_counter() - t0
    finally:
        checks[:] = original
    return {"suite": suite, "wall_s": total, "all_passed": report["all_passed"], "checks_s": split}


def time_tier1() -> dict:
    t0 = time.perf_counter()
    env = dict(os.environ, PYTHONPATH=common.SRC)
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"],
                          cwd=common.ROOT, env=env, capture_output=True, text=True)
    return {"wall_s": time.perf_counter() - t0, "exit": proc.returncode,
            "summary": proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--tier1", action="store_true", help="also time the package's test suite")
    args = ap.parse_args(argv)
    out: dict = {}
    if args.tier1:  # first, in the environment it normally runs in
        out["tier1"] = time_tier1()
        print(f"tier-1: {out['tier1']['wall_s']:.0f} s, {out['tier1']['summary']}")
    os.environ.update(common.SINGLE_THREAD_ENV)  # before numpy is imported
    common.use_program_source()
    for suite in ("fast", "full"):
        res = time_suite(suite)
        out[f"verify_{suite}"] = res
        print(f"verify --suite {suite}: {res['wall_s']:.1f} s, all passed: {res['all_passed']}")
        for name, secs in sorted(res["checks_s"].items(), key=lambda kv: -kv[1]):
            print(f"  {name:28s} {secs:8.2f} s")
    os.makedirs(common.OUT, exist_ok=True)
    with open(os.path.join(common.OUT, "refs.json"), "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
