"""cli_calls: cold `python -m gauss_purify.cli` subprocesses, one at a time.

A round holds 8 calls: `risk --qubit` in cases 1 and 4, `risk
--gaussian` in cases 2, 3 and 4, `thresholds --qubit`, `rates`, and a
20-point `sweep --target custom --mode qubit`.  Parameters are drawn
per round and passed at full precision.  Each call's time runs from the
spawn to the exit of the child, so interpreter start, the numpy/scipy
imports and the package's own imports dominate it.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import time

from . import reference as R
from .common import BENCH_DIR, OUT, ROOT, Workload, child_env, median, round_rng
from .w_risk import draw_problem
from .w_sweeps import check_sweep_csv

SWEEP_STEPS = 20
KINDS = ["risk_q1", "risk_q4", "risk_g2", "risk_g3", "risk_g4", "thresholds", "rates", "sweep"]
SMOKE_KINDS = ["risk_q4", "rates", "sweep"]


class CliCalls(Workload):
    NAME = "cli_calls"
    # 8 calls a round, 48-64 a 40 s run: p75 keeps 12-16 beyond it (p80
    # would keep 9-12)
    TAIL_PCT = 75.0
    RSS_OF_CHILDREN = True

    launcher: list | None = None  # set by trace_children

    def setup(self) -> None:
        self._env = child_env()
        self._dir = os.path.join(OUT, f"csv-{self.NAME}-{os.getpid()}")
        os.makedirs(self._dir, exist_ok=True)
        self._first = self.make_round(0)
        # warm-up: one cold call, so the first timed call finds the files cached
        self.run((0, "rates", {"argv": ["rates", "--r0", "0.5", "--lambda", "0.5", "--json"]}))

    def close(self) -> None:
        shutil.rmtree(getattr(self, "_dir", ""), ignore_errors=True)
        shutil.rmtree(getattr(self, "_trace_dir", ""), ignore_errors=True)

    def trace_children(self) -> None:
        """Start every CLI child under the tracer; each writes its spans to a file."""
        self._trace_dir = os.path.join(OUT, f"trace-{self.NAME}-{os.getpid()}")
        os.makedirs(self._trace_dir, exist_ok=True)
        self.launcher = [sys.executable, os.path.join(BENCH_DIR, "tracechild.py"), self._trace_dir]

    def traced_totals(self, tracer) -> dict:
        """Sums over the children's spans, plus cli.main timed in this process."""
        from .tracer import layer_totals, load

        totals: dict = {}
        case4: list = []
        for name in sorted(os.listdir(self._trace_dir)):
            part = layer_totals(load(os.path.join(self._trace_dir, name)))
            for key, val in part["totals"].items():
                totals[key] = totals.get(key, 0.0) + val
            case4 += part["case4_durations"]
        return {"totals": totals, "case4_durations": case4, "main_ms": self._main_ms()}

    def _main_ms(self) -> float:
        """Median in-process time of cli.main over one round, after a warm pass."""
        from gauss_purify import cli

        times = []
        with contextlib.redirect_stdout(io.StringIO()):
            for timed in (False, True):
                for op in self._first:
                    t0 = time.perf_counter()
                    code = cli.main(list(op[2]["argv"]))
                    if code != 0:
                        raise RuntimeError(f"cli.main exited {code} on {op[2]['argv']}")
                    if timed:
                        times.append((time.perf_counter() - t0) * 1e3)
        return median(times)

    def _op(self, index: int, kind: str, rng) -> tuple:
        if kind.startswith("risk"):
            qubit = kind[5] == "q"
            cls = "c" + kind[6]
            st = rng.uniform(0.3, 0.8) if cls == "c4" else None
            params, extra = draw_problem(rng, qubit, cls, st)
            if qubit:
                argv = ["risk", "--qubit", "--r0", repr(extra[0]), "--lambda", repr(extra[1]), "--k", repr(params[4])]
            else:
                names = ("--s1", "--s2", "--V1", "--V2", "--k")
                argv = ["risk", "--gaussian"] + [x for n, v in zip(names, params) for x in (n, repr(v))]
            return (index, kind, {"argv": argv + ["--json"], "params": params, "case": int(cls[1])})
        r0 = rng.uniform(0.2, 0.8)
        lam = rng.choice([rng.uniform(0.2, 0.9), rng.uniform(1.1, 0.95 / r0)])
        if kind == "thresholds":
            argv = ["thresholds", "--qubit", "--r0", repr(r0), "--lambda", repr(lam), "--json"]
        elif kind == "rates":
            argv = ["rates", "--r0", repr(r0), "--lambda", repr(lam), "--json"]
        else:
            s1 = R.qubit_params(r0, lam)[0]
            k_end = R.k_for_s_tilde(s1, rng.uniform(0.8, 0.9))
            path = os.path.join(self._dir, "custom.csv")
            argv = [
                "sweep", "--target", "custom", "--mode", "qubit", "--fix", f"r0={r0!r}", "--fix", f"lam={lam!r}",
                "--range", f"k=0.05:{k_end!r}:{SWEEP_STEPS}", "--threads", "1", "--output", path,
            ]
            return (index, kind, {"argv": argv, "r0": r0, "lam": lam, "k": (0.05, k_end, SWEEP_STEPS), "path": path})
        return (index, kind, {"argv": argv, "r0": r0, "lam": lam})

    def make_round(self, index: int) -> list:
        if index == 0 and getattr(self, "_first", None) is not None:
            return self._first
        rng = round_rng(self.NAME, self.seed, index)
        ops = [self._op(index, kind, rng) for kind in (SMOKE_KINDS if self.smoke else KINDS)]
        rng.shuffle(ops)
        return ops

    def run(self, op):
        start = self.launcher or [sys.executable, "-m", "gauss_purify.cli"]
        proc = subprocess.run(start + op[2]["argv"], cwd=ROOT, env=self._env, capture_output=True, text=True)
        if proc.returncode != 0:
            raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.strip()[-400:]}")
        if op[1] == "sweep":
            with open(op[2]["path"], "r", encoding="utf-8") as fh:
                return proc.stdout, fh.read()
        return proc.stdout, None

    # ------------------------------------------------------------------
    # checks

    def check_op(self, op, out) -> list:
        _, kind, p = op
        stdout, csv_text = out
        failures: list = []
        label = f"{kind} {' '.join(p['argv'])}"
        if kind.startswith("risk"):
            got = json.loads(stdout)
            R.expect(failures, f"{label}: case {got['case']} != {p['case']}", got["case"] == p["case"])
            R.check_report(failures, label, p["params"], got)
        elif kind == "sweep":
            R.expect(failures, f"{label}: printed {stdout!r}", stdout.strip() == f"wrote {p['path']}")
            custom = {"name": "custom", "mode": "qubit", "fixed": {"r0": p["r0"], "lam": p["lam"]}, "k": p["k"]}
            check_sweep_csv(failures, self.seed, (op[0], "custom", custom), csv_text)
        else:
            got = json.loads(stdout)
            s1, s2, V1, V2 = R.qubit_params(p["r0"], p["lam"])
            kq, kc = R.quantum_threshold(s1, s2), R.classical_threshold(V1, V2)
            R.expect_close(failures, f"{label} k0_quantum", got["k0_quantum"], kq, 1e-12 * kq)
            R.expect_close(failures, f"{label} k0_classical", got["k0_classical"], kc, 1e-12 * kc)
            lt = min(1.0, (1.0 - p["r0"]) / p["r0"])
            R.expect_close(failures, f"{label} lambda_tilde", got["lambda_tilde"], lt, 1e-12)
            if kind == "rates":
                want = R.rate_reference(p["r0"], p["lam"])[0]
                R.expect_close(failures, f"{label} rate", got["rate"], want, 1e-11 * max(1.0, abs(float(want))))
        return failures
