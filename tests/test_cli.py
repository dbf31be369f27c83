"""End-to-end tests of the command line interface.

Each test shells out through the console entry point the way a user
would; parsing of stdout stays deliberately loose (key : value lines or
JSON) so cosmetic changes don't break them.
"""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

CLI = [sys.executable, "-m", "gauss_purify.cli"]


def run_cli(*args, check=True):
    proc = subprocess.run(
        CLI + list(args), capture_output=True, text=True, timeout=600
    )
    if check and proc.returncode != 0:
        raise AssertionError(f"cli failed: {proc.returncode}\n{proc.stderr}")
    return proc


def parse_pairs(text):
    out = {}
    for line in text.splitlines():
        if " : " in line:
            key, _, val = line.partition(" : ")
            out[key.strip()] = val.strip()
    return out


def test_version_flag():
    proc = run_cli("--version")
    assert "gauss-purify" in proc.stdout


def test_risk_gaussian_below_threshold():
    proc = run_cli("risk", "--gaussian", "--kind", "att", "--s1", "0.8", "--s2", "0.4", "--k", "0.3")
    pairs = parse_pairs(proc.stdout)
    assert float(pairs["quantum_risk"]) == 0.0
    assert abs(float(pairs["k0_quantum"]) - 0.408248290464) < 1e-9


def test_risk_gaussian_unordered_pair_prints_no_threshold():
    # attenuation cannot reach a hotter target (s1 < s2): no quantum threshold
    proc = run_cli("risk", "--gaussian", "--kind", "att", "--s1", "0.3", "--s2", "0.5", "--k", "0.7")
    assert "k0_quantum   : none\n" in proc.stdout
    assert parse_pairs(proc.stdout)["kind"] == "att"


def test_risk_gaussian_full_report():
    proc = run_cli(
        "risk", "--gaussian", "--s1", "0.5", "--s2", "0.1111111111111111",
        "--V1", "0.8888888888888888", "--V2", "0.36", "--k", "0.8", "--json",
    )
    rep = json.loads(proc.stdout)
    assert rep["case"] == 4
    assert abs(rep["total_risk"] - 0.616117181918463) < 1e-6


_CASE4_ARGS = [
    "--s1", "0.5", "--s2", "0.1111111111111111",
    "--V1", "0.8888888888888888", "--V2", "0.36", "--k", "0.8",
]

# rates, thresholds and the case 1-3 risks are closed forms on numpy and
# math alone; scipy.special loads with the first case-4 series
_LAZY_SCIPY_CHILD = f"""
import contextlib, io, json, sys
from gauss_purify import cli

def run(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(list(argv) + ["--json"]) == 0
    return json.loads(out.getvalue())

run("rates", "--r0", "0.8", "--lambda", "0.4166666666666667")
run("thresholds", "--qubit", "--r0", "0.5", "--lambda", "0.5")
cases = [
    run("risk", "--qubit", "--r0", r0, "--lambda", lam, "--k", k)["case"]
    for r0, lam, k in [("0.5", "0.5", "0.5"), ("0.3333333", "2.4", "0.36"), ("0.5", "0.5", "1.2")]
]
scipy_mods = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
case4 = run("risk", "--gaussian", *{_CASE4_ARGS!r})
print(json.dumps({{"cases": cases, "scipy": scipy_mods, "case4": case4}}))
"""


def test_closed_form_calls_leave_out_scipy():
    from gauss_purify.risk import GaussianProblem, gaussian_risk

    proc = subprocess.run(
        [sys.executable, "-c", _LAZY_SCIPY_CHILD], capture_output=True, text=True, check=True
    )
    got = json.loads(proc.stdout)
    assert got["cases"] == [1, 2, 3]
    assert got["scipy"] == []
    s1, s2, V1, V2, k = (float(v) for v in _CASE4_ARGS[1::2])
    want = gaussian_risk(GaussianProblem(s1, s2, V1, V2, k))
    assert got["case4"]["case"] == 4
    assert got["case4"]["total_risk"] == want.total_risk


def test_risk_qubit_case2():
    proc = run_cli("risk", "--qubit", "--r0", "0.3333333", "--lambda", "2.4", "--k", "0.36")
    pairs = parse_pairs(proc.stdout)
    assert pairs["case"] == "2"
    assert float(pairs["classical_risk"]) == 0.0


def test_risk_qubit_case3():
    proc = run_cli("risk", "--qubit", "--r0", "0.5", "--lambda", "0.5", "--k", "1.2")
    pairs = parse_pairs(proc.stdout)
    assert pairs["case"] == "3"
    assert abs(float(pairs["total_risk"]) - 0.0684489548268) < 1e-9


def test_risk_qubit_rate_equivalent_to_k():
    by_k = run_cli("risk", "--qubit", "--r0", "0.5", "--lambda", "0.5", "--k", "1.2", "--json")
    by_rate = run_cli(
        "risk", "--qubit", "--r0", "0.5", "--lambda", "0.5", "--rate", "5.76", "--json"
    )
    assert json.loads(by_k.stdout) == json.loads(by_rate.stdout)


def test_risk_requires_complete_arguments():
    proc = run_cli("risk", "--qubit", "--r0", "0.5", check=False)
    assert proc.returncode == 2
    proc = run_cli("risk", "--gaussian", "--s1", "0.5", "--s2", "0.4", check=False)
    assert proc.returncode == 2


def test_risk_rejects_unphysical_scenario():
    proc = run_cli("risk", "--qubit", "--r0", "0.9", "--lambda", "1.2", "--k", "0.5", check=False)
    assert proc.returncode == 2
    assert "error" in proc.stderr.lower()


def test_thresholds_gaussian_both_kinds():
    proc = run_cli(
        "thresholds", "--gaussian", "--s1", "0.5", "--s2", "0.5", "--V1", "1.0", "--V2", "2.0"
    )
    pairs = parse_pairs(proc.stdout)
    assert float(pairs["k0_att"]) == 1.0
    assert float(pairs["k0_amp"]) == 1.0
    assert abs(float(pairs["k0_classical"]) - 2.0**0.5) < 1e-9


def test_rates_json_worked_value():
    proc = run_cli("rates", "--r0", "0.8", "--lambda", "0.4166666666666667", "--json")
    rep = json.loads(proc.stdout)
    assert abs(rep["rate"] - 10.24) < 1e-9
    assert rep["branch"] == "dilution_amp"


def test_sweep_writes_deterministic_csv(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    args = (
        "sweep", "--target", "custom", "--mode", "gaussian",
        "--fix", "s1=0.8", "--fix", "s2=0.4", "--fix", "V1=1.0", "--fix", "V2=1.0",
        "--range", "k=0.2:1.6:15",
    )
    run_cli(*args, "--output", str(out1))
    run_cli(*args, "--output", str(out2), "--threads", "3")
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text(encoding="utf-8").splitlines()
    meta = [l for l in lines if l.startswith("#")]
    assert any(l.startswith("# tool: gauss-purify") for l in meta)
    assert any(l.startswith("# warnings:") for l in meta)
    header = next(l for l in lines if not l.startswith("#"))
    assert header.split(",") == ["k", "case", "s_tilde", "classical_risk", "quantum_risk", "total_risk"]
    rows = [l for l in lines if not l.startswith("#")][1:]
    assert len(rows) == 15


def test_sweep_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "target": "custom",
                "output": str(tmp_path / "ignored.csv"),
                "mode": "qubit",
                "fixed": {"r0": 0.5, "lam": 0.5},
                "ranges": {"k": [0.5, 1.5, 5]},
            }
        ),
        encoding="utf-8",
    )
    out = tmp_path / "real.csv"
    run_cli("sweep", "--config", str(cfg), "--output", str(out))
    assert out.exists()
    assert not (tmp_path / "ignored.csv").exists()


@pytest.mark.parametrize("k_range", [[0.1, 1.0], 0.5])
def test_sweep_config_range_of_wrong_shape_is_named(tmp_path, k_range):
    cfg = tmp_path / "cfg.json"
    out = tmp_path / "out.csv"
    cfg.write_text(
        json.dumps({"target": "fig2a", "output": str(out), "ranges": {"k": k_range}}),
        encoding="utf-8",
    )
    proc = run_cli("sweep", "--config", str(cfg), check=False)
    assert proc.returncode == 2
    assert f"range 'k' must be [START, STOP, STEPS], got {k_range!r}" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize(
    "args, name",
    [
        (("--target", "custom", "--mode", "qubit", "--fix", "r0=0.5", "--fix", "lam=0.5",
          "--fix", "bogus=1", "--range", "k=0.1:1:3"), "fixed parameter 'bogus'"),
        (("--target", "fig4", "--range", "bogus=0.1:1:3"), "range parameter 'bogus'"),
    ],
)
def test_sweep_unread_name_fails(tmp_path, args, name):
    out = tmp_path / "z.csv"
    proc = run_cli("sweep", *args, "--output", str(out), check=False)
    assert proc.returncode == 2
    assert f"reads no {name}" in proc.stderr
    assert not out.exists()


def test_sweep_unknown_target_fails():
    proc = run_cli("sweep", "--target", "fig9", "--output", "/tmp/x.csv", check=False)
    assert proc.returncode == 2


def test_sweep_nan_rows_counted(tmp_path):
    out = tmp_path / "f3.csv"
    run_cli(
        "sweep", "--target", "fig3a", "--output", str(out),
        "--range", "s1=0.2:0.8:4", "--range", "s2=0.2:0.8:4",
    )
    lines = out.read_text(encoding="utf-8").splitlines()
    warn = next(l for l in lines if l.startswith("# warnings:"))
    nan_rows = sum(1 for l in lines if l.endswith(",nan"))
    assert int(warn.split(":")[1]) == nan_rows > 0


@pytest.mark.slow
def test_verify_fast_runs_clean(tmp_path):
    out = tmp_path / "verify.json"
    proc = run_cli("verify", "--suite", "fast", "--seed", "7", "--output", str(out))
    assert proc.returncode == 0
    rep = json.loads(out.read_text(encoding="utf-8"))
    assert rep["all_passed"] is True
    assert rep["suite"] == "fast"
    assert len(rep["checks"]) == 20
