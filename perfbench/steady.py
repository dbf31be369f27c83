"""Steadiness of the end-to-end metrics over repeated runs.

    python3 perfbench/steady.py [--runs 10] [--seed 1] [--workloads a,b]
                                [--seconds S] [--save NAME]
    python3 perfbench/steady.py --compare FIRST.json SECOND.json

Runs `run.py --trace 0` on each workload --runs times, rotating the
workload order from one pass to the next; pass i uses seed + i, so the
spreads cover the differences between seeds as well as between runs.
For each workload and metric it prints the median, the quartiles of
statistics.quantiles(n=4), and the spread (q3 - q1) / median beside the
metric's bound in BENCHMARK.json.  A spread above a third of the bound
is flagged `wide`, above the bound `FAIL`.  It also prints the median of
the host's reference loop, timed before and after each run's timed
loop: the control that tells a slower machine from a slower program.
Results go to perfbench/out/steady-NAME.json.

--compare reads two saved sets and flags every metric whose second
median is worse than the first by more than its bound, and any workload
whose share of failed operations differs; it shows the control's
median in both sets beside them.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from bench import common  # noqa: E402

RUN = os.path.join(common.BENCH_DIR, "run.py")


def one_run(workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed), "--seconds", repr(seconds), "--trace", "0"],
        cwd=common.ROOT, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    res = json.loads(lines[-1])
    control = next(json.loads(line[len("control "):]) for line in lines if line.startswith("control "))
    res["ref_loop_ms"] = control["host.ref_loop_ms"]
    return res


def ref_loop_median(results: list) -> float:
    """Median over a set's runs of the reference loop, before and after each timed loop."""
    return statistics.median(t for r in results for t in r["ref_loop_ms"])


def summarize(runs: dict, spec: dict) -> list:
    rows = []
    for workload, results in runs.items():
        shares = {r["failed"] / r["attempted"] for r in results}
        rows.append((workload, "failed_share", len(shares) == 1, sorted(shares)))
        for m in spec["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in results]
            q1, q2, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q3 - q1) / med
            flag = "ok" if spread <= m["bound"] / 3 else "wide" if spread <= m["bound"] else "FAIL"
            rows.append((workload, m["name"], flag, {"median": med, "q1": q1, "q3": q3, "spread": spread,
                                                      "bound": m["bound"], "unit": m["unit"]}))
        rows.append((workload, "host.ref_loop_ms", True, ref_loop_median(results)))
    return rows


def print_rows(rows: list) -> None:
    for workload, name, flag, info in rows:
        if name == "failed_share":
            print(f"{workload:14s} failed share {info} {'same in every run' if flag else 'DIFFERS'}")
            continue
        if name == "host.ref_loop_ms":
            print(f"{workload:14s} control      host.ref_loop_ms median {info:.6g} ms")
            continue
        print(f"{workload:14s} {name:12s} median {info['median']:<12.6g} q1 {info['q1']:<12.6g} "
              f"q3 {info['q3']:<12.6g} spread {info['spread']:7.2%} bound {info['bound']:5.0%} "
              f"{info['unit']:5s} {flag}")


def compare(first: str, second: str, spec: dict) -> int:
    with open(first, encoding="utf-8") as fh:
        a = json.load(fh)["runs"]
    with open(second, encoding="utf-8") as fh:
        b = json.load(fh)["runs"]
    bad = 0
    for workload in a:
        sa = {r["failed"] / r["attempted"] for r in a[workload]}
        sb = {r["failed"] / r["attempted"] for r in b[workload]}
        if sa != sb:
            bad += 1
            print(f"{workload:14s} failed share differs: {sorted(sa)} vs {sorted(sb)}")
        ra, rb = ref_loop_median(a[workload]), ref_loop_median(b[workload])
        print(f"{workload:14s} control      host.ref_loop_ms {ra:<12.6g} -> {rb:<12.6g} {(rb - ra) / ra:+7.2%}")
        for m in spec["end_to_end"]:
            ma = statistics.median(r["metrics"][m["name"]]["value"] for r in a[workload])
            mb = statistics.median(r["metrics"][m["name"]]["value"] for r in b[workload])
            worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            ok = worse <= m["bound"]
            bad += not ok
            print(f"{workload:14s} {m['name']:12s} {ma:<12.6g} -> {mb:<12.6g} worse by {worse:+7.2%} "
                  f"(bound {m['bound']:.0%}) {'ok' if ok else 'FAIL'}")
    return 1 if bad else 0


def main(argv=None) -> int:
    spec = common.load_spec()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    ap.add_argument("--save", default="last", help="name of the results file under perfbench/out")
    ap.add_argument("--compare", nargs=2, metavar="JSON")
    args = ap.parse_args(argv)
    if args.compare:
        return compare(*args.compare, spec)

    workloads = args.workloads.split(",")
    runs: dict = {w: [] for w in workloads}
    for i in range(args.runs):
        seed = args.seed + i
        shift = i % len(workloads)
        for workload in workloads[shift:] + workloads[:shift]:
            res = one_run(workload, seed, args.seconds)
            res["seed"] = seed
            runs[workload].append(res)
            print(f"pass {i + 1}/{args.runs} {workload} seed {seed}: " + ", ".join(
                f"{k} {v['value']:.6g}" for k, v in res["metrics"].items())
                + ", host.ref_loop_ms {:.4g}/{:.4g}".format(*res["ref_loop_ms"]), flush=True)
    rows = summarize(runs, spec)
    print_rows(rows)
    os.makedirs(common.OUT, exist_ok=True)
    path = os.path.join(common.OUT, f"steady-{args.save}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"args": vars(args), "runs": runs, "summary": rows}, fh, indent=1)
    print(f"saved {path}")
    return 0 if all(flag not in ("FAIL", False) for _, _, flag, _ in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
