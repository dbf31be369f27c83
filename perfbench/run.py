"""The benchmark's command.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1] [--smoke]

Untraced (`--trace 0`), a workload is set up seven times, each in a
fresh interpreter: three set-ups only, then one that runs the timed
loop for S seconds in whole rounds and checks its outputs, then three
set-ups only.  setup_s is the median of the seven.  The end-to-end
metrics of BENCHMARK.json are printed one per line, then a `control`
line with the host's reference loop timed around the timed loop, and
the last line is one JSON object with correct, attempted, failed and
metrics.  Without --workload it runs the workloads BENCHMARK.json names;
`all` runs all four.

Traced (`--trace 1`), all four workloads run once with the tracer, each
for a quarter of S, starting with the one named; the per-layer metrics
of BENCHMARK.json are given per suite round (one round of each
workload), beside the control measurements of the CLI's cold start and
of the host.

`--smoke` runs one small round of each of the four workloads (or of the
one named) with its checks.  The exit code is 0 only if every check
passed; it is 2 when the program is missing from this checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from bench import common  # noqa: E402

# fresh interpreters set up only, before and after the one that runs; with
# it they make the seven set-ups whose median is setup_s
SETUPS_AROUND = 3
WORKER = os.path.join(common.BENCH_DIR, "worker.py")
TIMEOUT_S = 170
# ~3,000-4,500 case-4 spans in a traced risk_queries quarter of a 40 s
# run: p99 keeps 30-45 beyond it, inside the s~ >= 0.95 mode (6% of
# case-4 queries)
CASE4_TAIL_PCT = 99.0


class BenchError(Exception):
    pass


def launch(workload: str, seed: int, seconds: float, mode: str) -> tuple[float, dict | None]:
    """Start a worker; return its set-up time and, unless mode is setup, its result."""
    cmd = [sys.executable, WORKER, workload, str(seed), repr(seconds), mode]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=common.child_env(), cwd=common.ROOT)
    try:
        if not select.select([proc.stdout], [], [], TIMEOUT_S)[0]:
            raise subprocess.TimeoutExpired(cmd, TIMEOUT_S)
        first = proc.stdout.readline()
        setup = time.perf_counter() - t0
        rest, _ = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{workload}: worker did not finish within {TIMEOUT_S} s")
    if first.strip() != common.READY or proc.returncode != 0:
        raise BenchError(f"{workload} ({mode}): worker exited {proc.returncode} before a result")
    if mode == "setup":
        return setup, None
    return setup, json.loads(rest.strip().splitlines()[-1])


def e2e_metrics(setups: list, res: dict) -> dict:
    lat = res["latencies_ms"]
    completed = res["attempted"] - res["failed"]
    return {
        "setup_s": common.median(setups),
        "ops_per_s": completed / res["wall_s"],
        "op_p50_ms": common.median(lat),
        "op_tail_ms": common.percentile(lat, res["tail_pct"]),
        "peak_rss_mb": res["peak_rss_mb"],
    }


def report_failures(res: dict) -> None:
    for msg in res["failures"]:
        print(f"[{res['workload']}] check failed: {msg}", file=sys.stderr)
    if res["failure_count"] > len(res["failures"]):
        print(f"[{res['workload']}] ... {res['failure_count']} failures in all", file=sys.stderr)


def run_untraced(workload: str, seed: int, seconds: float, smoke: bool) -> tuple[dict, dict]:
    around = 0 if smoke else SETUPS_AROUND
    setups = [launch(workload, seed, seconds, "setup")[0] for _ in range(around)]
    setup, res = launch(workload, seed, seconds, "smoke" if smoke else "run")
    setups.append(setup)
    setups += [launch(workload, seed, seconds, "setup")[0] for _ in range(around)]
    report_failures(res)
    return e2e_metrics(setups, res), res


# --------------------------------------------------------------------------
# traced run


def _timed_child(args: list) -> tuple[float, subprocess.CompletedProcess]:
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable] + args, env=common.child_env(), cwd=common.ROOT,
                          capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise BenchError(f"control command {args!r} exited {proc.returncode}: {proc.stderr[-400:]}")
    return time.perf_counter() - t0, proc


def parse_importtime(stderr: str) -> tuple[float, float]:
    """(deps, own) seconds of `import gauss_purify.cli` from -X importtime output."""
    own = total = 0.0
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, self_us, cum_us, name = (part for part in line.replace("import time:", "|", 1).split("|"))
        if not self_us.strip().isdigit():
            continue  # the column header
        mod = name.strip()
        if mod == "gauss_purify" or mod.startswith("gauss_purify."):
            own += int(self_us) / 1e6
            if not name[1:].startswith(" "):  # top level: not nested in another import
                total += int(cum_us) / 1e6
    return total - own, own


def controls() -> dict:
    reps = 5
    interp = [_timed_child(["-c", "pass"])[0] for _ in range(reps)]
    probe = "import time; t = time.perf_counter(); import gauss_purify.cli; print(time.perf_counter() - t)"
    imports = [float(_timed_child(["-c", probe])[1].stdout) for _ in range(reps)]
    split = [parse_importtime(_timed_child(["-X", "importtime", "-c", "import gauss_purify.cli"])[1].stderr)
             for _ in range(reps)]
    return {
        "cli.interp_s": common.median(interp),
        "cli.import_s": common.median(imports),
        "cli.import_deps_s": common.median([d for d, _ in split]),
        "cli.import_own_s": common.median([o for _, o in split]),
        "host.ref_loop_ms": common.ref_loop_ms(reps),
    }


def run_traced(first: str, seed: int, seconds: float) -> tuple[dict, list]:
    i = common.WORKLOADS.index(first)
    order = common.WORKLOADS[i:] + common.WORKLOADS[:i]
    metrics: dict = {}
    case4: list = []
    results = []
    for workload in order:
        _, res = launch(workload, seed, seconds / len(order), "trace")
        report_failures(res)
        results.append(res)
        tr = res["trace"]
        for key, val in tr["totals"].items():
            metrics[key] = metrics.get(key, 0.0) + val / res["rounds"]
        if workload == "risk_queries":  # the latency of independent case-4 queries
            case4 = tr["case4_durations"]
        if "main_ms" in tr:
            metrics["cli.main_ms"] = tr["main_ms"]
        print(f"{workload:14s} traced ops_per_s {(res['attempted'] - res['failed']) / res['wall_s']:.6g} 1/s"
              f" ({res['rounds']} rounds)")
    metrics["risk.case4_p50_ms"] = common.median(case4) * 1e3
    metrics["risk.case4_tail_ms"] = common.percentile(case4, CASE4_TAIL_PCT) * 1e3
    metrics.update(controls())
    return metrics, results


# --------------------------------------------------------------------------


def finish(spec_metrics: list, values: dict, prefix: str = "") -> dict:
    out = {}
    for m in spec_metrics:
        name = prefix + m["name"]
        if name not in values:
            raise BenchError(f"metric {name} was not measured")
        out[name] = {"value": values[name], "unit": m["unit"]}
        print(f"{name:32s} {values[name]:.6g} {m['unit']}")
    return out


def main(argv=None) -> int:
    spec = common.load_spec()
    names = common.WORKLOADS
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=names + ["all"], help="default: the workloads BENCHMARK.json names")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true", help="one small round per workload, with checks")
    args = ap.parse_args(argv)

    if not common.program_present():
        print(f"error: no gauss_purify package under {common.SRC}", file=sys.stderr)
        return 2
    os.makedirs(common.OUT, exist_ok=True)
    try:
        if args.trace:
            first = names[0] if args.workload in (None, "all") else args.workload
            values, results = run_traced(first, args.seed, args.seconds)
            metrics = finish(spec["per_layer"], values)
        else:
            if args.workload == "all" or (args.workload is None and args.smoke):
                workloads = names
            elif args.workload is None:
                workloads = [w["name"] for w in spec["workloads"]]
            else:
                workloads = [args.workload]
            many = len(workloads) > 1
            metrics, results = {}, []
            for workload in workloads:
                values, res = run_untraced(workload, args.seed, args.seconds, args.smoke)
                results.append(res)
                prefix = f"{workload}." if many else ""
                print(f"{workload}: {res['attempted']} attempted, {res['failed']} failed, "
                      f"op_tail_ms is p{res['tail_pct']:g}")
                metrics.update(finish(spec["end_to_end"], {prefix + k: v for k, v in values.items()}, prefix))
                if not args.smoke:
                    control = {"workload": workload, "host.ref_loop_ms": res["ref_loop_ms"]}
                    print("control " + json.dumps(control))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    correct = all(r["failure_count"] == 0 for r in results)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
