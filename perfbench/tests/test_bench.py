"""The benchmark's own tests.

    python3 -m pytest perfbench/tests -q

They are not part of the package's test suite (pyproject's testpaths
holds only tests/); run them after changing the benchmark.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)

from bench import common, reference as R  # noqa: E402
from bench import tracer as T  # noqa: E402

common.use_program_source()


def _run(*args) -> tuple[int, dict | None, str]:
    proc = subprocess.run([sys.executable, os.path.join(BENCH, "run.py"), *args],
                          cwd=common.ROOT, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, result, proc.stderr


def test_smoke_every_workload_passes_its_checks():
    code, result, err = _run("--smoke", "--seed", "3")
    assert code == 0, err
    assert result["correct"] is True and result["failed"] == 0
    spec = common.load_spec()
    for name in common.WORKLOADS:
        for m in spec["end_to_end"]:
            entry = result["metrics"][f"{name}.{m['name']}"]
            assert entry["unit"] == m["unit"] and entry["value"] > 0


def test_traced_run_reports_every_per_layer_metric():
    code, result, err = _run("--trace", "1", "--seconds", "2", "--workload", "cli_calls")
    assert code == 0, err
    assert set(result["metrics"]) == {m["name"] for m in common.load_spec()["per_layer"]}
    assert result["metrics"]["sweeps.nan_rows"]["value"] >= 2 * 1176  # fig3a and fig3b


def test_spec_is_well_formed():
    spec = common.load_spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert {w["name"] for w in spec["workloads"]} <= set(common.WORKLOADS)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


# --------------------------------------------------------------------------
# the checker


def _report(case, s_tilde, c, q, t):
    return {"case": case, "s_tilde": s_tilde, "classical_risk": c, "quantum_risk": q, "total_risk": t}


@pytest.mark.parametrize("params", [
    (0.5, 0.3, 1.0, 0.6, 1.6),   # case 4
    (0.6, 0.2, 1.0, 2.0, 0.9),   # case 2
    (0.2, 0.5, 1.0, 0.3, 1.3),   # case 4 on the amplifier side
])
def test_checker_accepts_the_program_and_rejects_an_error_of_1e_6(params):
    from gauss_purify.risk import GaussianProblem, gaussian_risk

    rep = gaussian_risk(GaussianProblem(*params)).as_dict()
    failures: list = []
    R.check_report(failures, "exact", params, rep)
    assert failures == []
    for key in ("total_risk", "classical_risk", "quantum_risk"):
        if rep[key] == 0.0:
            continue
        off = dict(rep, **{key: rep[key] + 1e-6})
        failures = []
        R.check_report(failures, "off", params, off)
        assert any(key in f for f in failures), key


def test_checker_flags_nonzero_risk_below_both_thresholds():
    params = (1 / 3, 0.1, 0.9, 0.5, 0.2)
    st = R.s_tilde(params[0], params[4])
    failures: list = []
    R.check_report(failures, "zero", params, _report(1, st, 0.0, 0.0, 0.0))
    assert failures == []
    R.check_report(failures, "zero", params, _report(1, st, 0.0, 0.0, 1e-6))
    assert failures


def test_reference_case4_brackets_and_matches_a_closed_limit():
    # equal variances: the joint distance reduces to the geometric one
    total, tail = R.case4_l1(0.6, 0.3, 1.0, 1.0)
    assert abs(total - R.geometric_l1(0.6, 0.3)[0]) == 0 and tail < R.REF_TAIL
    total, tail = R.case4_l1(0.6, 0.3, 1.5, 1.0)
    c, q = R.gaussian_l1(1.5, 1.0), R.geometric_l1(0.6, 0.3)[0]
    assert max(c, q) <= total <= c + q


# --------------------------------------------------------------------------
# the tracer


def test_tracer_self_times_add_up_on_a_nested_call():
    tracer = T.Tracer()
    tracer.active = True

    def leaf():
        time.sleep(0.02)

    def middle():
        time.sleep(0.01)
        traced_leaf()
        traced_leaf()

    def outer():
        time.sleep(0.01)
        traced_middle()

    traced_leaf = tracer.wrap("risk", "leaf", leaf)
    traced_middle = tracer.wrap("risk", "middle", middle)
    tracer.wrap("sweeps", "outer", outer)()
    spans = {s.name: s for s in tracer.spans}
    own = T.self_times(tracer.spans)
    outer_span = spans["outer"]
    assert sum(own.values()) == pytest.approx(outer_span.duration, abs=1e-9)
    assert own[spans["middle"].id] == pytest.approx(0.01, abs=0.008)
    assert own[outer_span.id] == pytest.approx(0.01, abs=0.008)
    leaves = [s for s in tracer.spans if s.name == "leaf"]
    assert len(leaves) == 2 and all(s.parent == spans["middle"].id for s in leaves)


def test_tracer_attaches_pool_thread_spans_to_their_sweep():
    import gauss_purify.sweeps as sweeps

    original = sweeps.run_sweep
    tracer = T.Tracer()
    os.makedirs(common.OUT, exist_ok=True)
    path = os.path.join(common.OUT, f"test-fig6a-{os.getpid()}.csv")
    try:
        tracer.install()
        tracer.active = True
        sweeps.run_sweep(sweeps.SweepConfig("fig6a", path, threads=2))
    finally:
        tracer.uninstall()
    assert sweeps.run_sweep is original
    sweep = next(s for s in tracer.spans if s.name == "run_sweep")
    rows = [s for s in tracer.spans if s.name == "combined_risk"]
    assert len(rows) == 99 and all(s.parent == sweep.id for s in rows)
    assert sweep.attrs == {"rows": 99, "nan_rows": 0, "bytes": os.path.getsize(path)}
    totals = T.layer_totals(tracer.spans)["totals"]
    assert 0.0 < totals["sweeps.self_s"] < sweep.duration
    os.remove(path)
