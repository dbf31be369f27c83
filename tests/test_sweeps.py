"""Tests for the sweep planner and CSV emitter.

End-to-end CLI behavior (threads, config files, byte determinism) is
covered in test_cli; here the plans themselves are checked against the
closed forms they are supposed to tabulate.
"""

from __future__ import annotations

import dataclasses
import math
from pathlib import Path

import pytest

from gauss_purify.channels import ATTENUATE
from gauss_purify.risk import QubitScenario, optimal_rate, quantum_threshold
from gauss_purify.sweeps import FIGURE_TARGETS, SweepConfig, run_sweep, worker_count


def _load(path):
    meta = {}
    header = None
    rows = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(": ")
            meta[key] = value
        elif header is None:
            header = line.split(",")
        else:
            rows.append(dict(zip(header, line.split(","))))
    return meta, header, rows


def test_fig2a_zero_then_strictly_increasing(tmp_path):
    out = tmp_path / "fig2a.csv"
    run_sweep(SweepConfig("fig2a", str(out)))
    meta, header, rows = _load(out)
    assert header == ["k", "s_tilde", "risk"]
    assert meta["warnings"] == "0"
    # the threshold marker round-trips to the computed value exactly
    k0 = float(meta["k0_quantum"])
    assert k0 == quantum_threshold(ATTENUATE, 0.8, 0.4)

    pairs = [(float(r["k"]), float(r["risk"])) for r in rows]
    below = [risk for k, risk in pairs if k <= k0]
    beyond = [risk for k, risk in pairs if k > k0]
    assert below and beyond
    assert all(risk == 0.0 for risk in below)
    assert all(b > a for a, b in zip(beyond, beyond[1:]))
    # at k = 1 the output is thermal(0.8) itself: m0 = 1, risk = 0.96
    assert beyond[-1] == pytest.approx(2 * (0.8**2 - 0.4**2), abs=1e-9)

    tilde = [float(r["s_tilde"]) for r in rows]
    assert all(b > a for a, b in zip(tilde, tilde[1:]))


def test_fig4_region_flag_matches_threshold_rule(tmp_path):
    out = tmp_path / "fig4.csv"
    run_sweep(
        SweepConfig("fig4", str(out), ranges={"r0": (0.05, 0.95, 19), "lam": (0.05, 0.95, 19)})
    )
    meta, header, rows = _load(out)
    assert header == ["r0", "lam", "lambda_tilde", "classical_first"]
    checked = 0
    for row in rows:
        r = float(row["r0"])
        lam = float(row["lam"])
        lt = min(1.0, (1.0 - r) / r)
        assert float(row["lambda_tilde"]) == pytest.approx(lt, abs=1e-11)
        if abs(lam - lt) > 1e-9:
            assert row["classical_first"] == str(int(lam < lt))
            checked += 1
    assert checked >= len(rows) - 2
    assert {row["classical_first"] for row in rows} == {"0", "1"}


def test_fig5_branches_and_rates(tmp_path):
    out = tmp_path / "fig5.csv"
    run_sweep(
        SweepConfig("fig5", str(out), ranges={"r0": (0.05, 0.95, 16), "r_out": (0.05, 0.95, 16)})
    )
    meta, header, rows = _load(out)
    assert header == ["r0", "r_out", "lam", "branch", "rate"]
    seen = set()
    for row in rows:
        r = float(row["r0"])
        lam = float(row["lam"])
        seen.add(row["branch"])
        if row["r0"] == row["r_out"]:
            assert row["branch"] == "identity"
            assert float(row["rate"]) == 1.0
            continue
        lt = min(1.0, (1.0 - r) / r)
        # skip rows within parse rounding of a branch boundary
        if abs(lam - 1.0) <= 1e-9 or abs(lam - lt) <= 1e-9:
            continue
        if lam > 1.0:
            assert row["branch"] == "purification"
        elif lam < lt:
            assert row["branch"] == "dilution_classical"
        else:
            assert row["branch"] == "dilution_amp"
        want = optimal_rate(QubitScenario(r, lam))
        assert float(row["rate"]) == pytest.approx(want, rel=2e-9)
    assert seen == {"purification", "identity", "dilution_classical", "dilution_amp"}


def test_unknown_target_rejected(tmp_path):
    with pytest.raises(ValueError):
        run_sweep(SweepConfig("fig9", str(tmp_path / "x.csv")))
    assert "fig9" not in FIGURE_TARGETS


@pytest.mark.parametrize(
    "k_range, message",
    [
        ((0.1, math.inf, 3), "range 'k' needs finite endpoints"),
        ((0.1, 1.0, 2.5), "range 'k' steps must be an integer >= 2"),
        ((0.1, 1.0, math.nan), "range 'k' steps must be an integer >= 2"),
    ],
)
def test_bad_range_rejected_naming_it(tmp_path, k_range, message):
    out = tmp_path / "custom.csv"
    config = SweepConfig(
        "custom", str(out), ranges={"k": k_range}, fixed={"r0": 0.5, "lam": 0.5}
    )
    with pytest.raises(ValueError, match=f"^{message}"):
        run_sweep(config)
    assert not out.exists()


@pytest.mark.parametrize("k_range", [[0.1, 1.0], 0.5, [0.1, 1.0, 3, 4], "0.1:1:3"])
def test_misshapen_range_rejected_naming_it(tmp_path, k_range):
    out = tmp_path / "fig2a.csv"
    with pytest.raises(ValueError, match=r"^range 'k' must be \[START, STOP, STEPS\], got "):
        run_sweep(SweepConfig("fig2a", str(out), ranges={"k": k_range}))
    assert not out.exists()


@pytest.mark.parametrize(
    "target, extra, message",
    [
        ("custom", dict(fixed={"r0": 0.5, "lam": 0.5, "bogus": 1.0}), "reads no fixed parameter 'bogus'"),
        ("fig4", dict(ranges={"bogus": (0.1, 1.0, 3)}), "reads no range parameter 'bogus'"),
        # k is swept by fig2a, not fixed
        ("fig2a", dict(fixed={"k": 0.5}), "reads no fixed parameter 'k'"),
        # fig6a reads r0 and lam; s1 belongs to other targets
        ("fig6a", dict(fixed={"s1": 0.5}), "reads no fixed parameter 's1'"),
    ],
)
def test_unread_sweep_names_rejected(tmp_path, target, extra, message):
    out = tmp_path / "out.csv"
    with pytest.raises(ValueError, match=f"^target {target!r} {message}$"):
        run_sweep(SweepConfig(target, str(out), **extra))
    assert not out.exists()


def test_custom_gaussian_mode_reads_its_own_names(tmp_path):
    fixed = {"s1": 0.8, "s2": 0.4, "V1": 1.0, "V2": 1.0}
    out = tmp_path / "g.csv"
    run_sweep(SweepConfig("custom", str(out), {"k": (0.2, 1.6, 3)}, fixed, mode="gaussian"))
    assert len(_load(out)[2]) == 3
    with pytest.raises(ValueError, match="reads no fixed parameter 'r0'"):
        run_sweep(SweepConfig("custom", str(out), {}, dict(fixed, r0=0.5), mode="gaussian"))


def test_worker_count_names_a_bad_environment_value(monkeypatch):
    monkeypatch.setenv("GAUSS_PURIFY_THREADS", "abc")
    with pytest.raises(ValueError, match="^GAUSS_PURIFY_THREADS must be an integer, got 'abc'$"):
        worker_count()
    assert worker_count(2) == 2
    for env, want in (("3", 3), ("0", 1), ("-2", 1)):
        monkeypatch.setenv("GAUSS_PURIFY_THREADS", env)
        assert worker_count() == want


def test_runtime_error_row_becomes_counted_nan(tmp_path, monkeypatch):
    # a non-converged risk (e.g. the case-4 term cap) must not abort the sweep
    plan_fig2a = FIGURE_TARGETS["fig2a"]

    def failing_plan(cfg):
        plan = plan_fig2a(cfg)

        def row(k):
            if k > 0.7:
                raise RuntimeError("term cap reached")
            return plan.row_fn(k)

        return dataclasses.replace(plan, row_fn=row)

    monkeypatch.setitem(FIGURE_TARGETS, "fig2a", failing_plan)
    out = tmp_path / "fig2a.csv"
    run_sweep(SweepConfig("fig2a", str(out), ranges={"k": (0.2, 1.0, 5)}))
    meta, header, rows = _load(out)
    assert meta["warnings"] == "2"
    assert [r["k"] for r in rows] == ["0.2", "0.4", "0.6", "0.8", "1"]
    assert [r["risk"] == "nan" for r in rows] == [False, False, False, True, True]
    assert [r["s_tilde"] == "nan" for r in rows] == [False, False, False, True, True]
