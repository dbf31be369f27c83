"""End-to-end tests of the command line interface.

Each test shells out through the console entry point the way a user
would; parsing of stdout stays deliberately loose (key : value lines or
JSON) so cosmetic changes don't break them.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys

import pytest

from gauss_purify import cli, oracles, sweeps
from gauss_purify.oracles import SUITE_NAMES
from gauss_purify.sweeps import FIGURE_TARGETS

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

# rates, thresholds, the risks of all four cases and a custom sweep run
# on math alone: neither numpy nor scipy is loaded after them
_LAZY_SCIPY_CHILD = f"""
import contextlib, io, json, sys
from gauss_purify import cli

def run(*argv, as_json=True):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(list(argv) + (["--json"] if as_json else [])) == 0
    return json.loads(out.getvalue()) if as_json else out.getvalue()

run("rates", "--r0", "0.8", "--lambda", "0.4166666666666667")
run("thresholds", "--qubit", "--r0", "0.5", "--lambda", "0.5")
cases = [
    run("risk", "--qubit", "--r0", r0, "--lambda", lam, "--k", k)["case"]
    for r0, lam, k in [
        ("0.5", "0.5", "0.5"), ("0.3333333", "2.4", "0.36"), ("0.5", "0.5", "1.2"),
        ("1e-9", "2.0", "1.2"),
    ]
]
case4 = run("risk", "--gaussian", *{_CASE4_ARGS!r})
run("sweep", "--target", "custom", "--fix", "r0=0.3333333", "--fix", "lam=2.4",
    "--range", "k=0.02:1.0:20", "--threads", "1", "--output", sys.argv[1], as_json=False)
scipy_mods = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
numpy_mods = sorted(m for m in sys.modules if m.split(".")[0] == "numpy")
print(json.dumps({{"cases": cases, "scipy": scipy_mods, "numpy": numpy_mods, "case4": case4}}))
"""


def test_closed_form_calls_leave_out_scipy(tmp_path):
    from gauss_purify.risk import GaussianProblem, gaussian_risk

    out = tmp_path / "custom.csv"
    proc = subprocess.run(
        [sys.executable, "-c", _LAZY_SCIPY_CHILD, str(out)],
        capture_output=True, text=True, check=True,
    )
    got = json.loads(proc.stdout)
    assert got["cases"] == [1, 2, 3, 4]
    assert got["scipy"] == []
    assert got["numpy"] == []
    s1, s2, V1, V2, k = (float(v) for v in _CASE4_ARGS[1::2])
    want = gaussian_risk(GaussianProblem(s1, s2, V1, V2, k))
    assert got["case4"]["case"] == 4
    assert got["case4"]["total_risk"] == want.total_risk
    assert len(out.read_text(encoding="utf-8").splitlines()) == 8 + 1 + 20


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


@pytest.mark.parametrize(
    "args, message",
    [
        (("thresholds", "--gaussian", "--s1", "0.8", "--s2", "0.4", "--V1", "1"),
         "--V1 and --V2 must be given together"),
        (("thresholds", "--qubit", "--r0", "0.5", "--lambda", "0.5", "--s2", "0.3"),
         "--qubit reads no --s2"),
        (("risk", "--qubit", "--r0", "0.5", "--lambda", "0.5", "--k", "1.2", "--s1", "0.3",
          "--kind", "amp"), "--qubit reads no --s1"),
        (("risk", "--gaussian", "--s1", "0.5", "--s2", "0.3", "--k", "1.5", "--rate", "3",
          "--r0", "0.2"), "reads no --r0"),
        (("risk", "--gaussian", "--s1", "0.5", "--s2", "0.3", "--k", "1.5", "--V1", "1",
          "--V2", "1.5", "--kind", "amp"), "reads no --kind"),
        # the case-4 series has no tolerance to set
        (("risk", "--gaussian", "--s1", "0.5", "--s2", "0.3", "--k", "0.5", "--abs-tol", "1e-6"),
         "unrecognized arguments: --abs-tol"),
        (("risk", "--qubit", "--r0", "0.5", "--lambda", "0.5"), "--qubit requires --k or --rate"),
        (("sweep", "--target", "custom", "--output", "OUT", "--fix", "r0"),
         "bad --fix 'r0', expected NAME=VALUE"),
        (("sweep", "--target", "custom", "--output", "OUT", "--range", "k=0.1:2"),
         "bad --range k='0.1:2', expected START:STOP:STEPS"),
        (("sweep", "--config", "LIST"), "config file must hold a JSON object"),
        (("sweep", "--output", "OUT"), "no sweep target"),
        (("sweep", "--target", "fig2a"), "no output path"),
    ],
)
def test_flag_the_form_does_not_read_fails(tmp_path, args, message):
    # OUT stands for an output path and LIST for a config file holding a list
    (tmp_path / "list.json").write_text("[]")
    paths = {"OUT": str(tmp_path / "out.csv"), "LIST": str(tmp_path / "list.json")}
    proc = run_cli(*(paths.get(arg, arg) for arg in args), check=False)
    assert proc.returncode == 2
    assert message in proc.stderr


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
    # a --fix replaces its own name and keeps the file's others
    run_cli("sweep", "--config", str(cfg), "--output", str(out), "--fix", "lam=0.4")
    assert "# fixed: r0=0.5,lam=0.4\n" in out.read_text(encoding="utf-8")
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
    "extra, message",
    [
        ({"threads": [2]}, "threads must be an integer >= 1, got [2]"),
        ({"threads": 0}, "threads must be an integer >= 1, got 0"),
        ({"ranges": ["k"]}, "config key 'ranges' must be an object, got ['k']"),
        ({"fixed": ["r0"]}, "config key 'fixed' must be an object, got ['r0']"),
        ({"output": 7}, "config key 'output' must be a string, got 7"),
        ({"target": ["fig2a"]}, "config key 'target' must be a string, got ['fig2a']"),
        ({"mode": 1}, "config key 'mode' must be a string, got 1"),
        ({"thread": 2}, "unknown config key 'thread'"),
        ({"rangse": {"k": [0.1, 1.0, 3]}}, "unknown config key 'rangse'"),
        # a file that is not JSON at all, given as its text
        pytest.param(
            '{"target": "fig2a",\n',
            "config file '{cfg}' is not valid JSON: Expecting property name",
            id="truncated-json",
        ),
    ],
)
def test_sweep_config_of_wrong_shape_is_named(tmp_path, extra, message):
    cfg = tmp_path / "cfg.json"
    out = tmp_path / "out.csv"
    if isinstance(extra, dict):
        extra = json.dumps({"target": "fig2a", "output": str(out), **extra})
    cfg.write_text(extra, encoding="utf-8")
    proc = run_cli("sweep", "--config", str(cfg), check=False)
    assert proc.returncode == 2
    assert f"error: {message.format(cfg=cfg)}" in proc.stderr.splitlines()[-1]
    assert "Traceback" not in proc.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


@pytest.mark.parametrize(
    "args, name",
    [
        (("--target", "custom", "--mode", "qubit", "--fix", "r0=0.5", "--fix", "lam=0.5",
          "--fix", "bogus=1", "--range", "k=0.1:1:3"), "fixed parameter 'bogus'"),
        (("--target", "fig4", "--range", "bogus=0.1:1:3"), "range parameter 'bogus'"),
        # only custom reads a mode
        (("--target", "fig4", "--mode", "gaussian"), "mode 'gaussian'"),
    ],
)
def test_sweep_unread_name_fails(tmp_path, args, name):
    out = tmp_path / "z.csv"
    proc = run_cli("sweep", *args, "--output", str(out), check=False)
    assert proc.returncode == 2
    assert f"reads no {name}" in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("from_config", [False, True])
def test_sweep_bad_fixed_value_is_named(tmp_path, from_config):
    out = tmp_path / "x.csv"
    if from_config:
        cfg = tmp_path / "cfg.json"
        settings = {"target": "custom", "output": str(out), "fixed": {"r0": "abc", "lam": 0.5}}
        cfg.write_text(json.dumps(settings), encoding="utf-8")
        args = ("--config", str(cfg))
    else:
        args = ("--target", "custom", "--fix", "r0=abc", "--fix", "lam=0.5", "--output", str(out))
    proc = run_cli("sweep", *args, check=False)
    assert proc.returncode == 2
    assert "fixed parameter 'r0' must be a number, got 'abc'" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()


def test_sweep_unknown_target_fails(tmp_path):
    out = tmp_path / "x.csv"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"target": "fig9", "output": str(out)}), encoding="utf-8")
    targets = ", ".join(FIGURE_TARGETS)
    for args in (("--target", "fig9", "--output", str(out)), ("--config", str(cfg))):
        proc = run_cli("sweep", *args, check=False)
        assert proc.returncode == 2
        assert f"error: unknown sweep target 'fig9'; targets are {targets}" in proc.stderr
        assert not out.exists()


@pytest.mark.parametrize(
    "args",
    [
        ("sweep", "--config", "{missing}/cfg.json"),
        ("sweep", "--target", "fig4", "--output", "{missing}/fig4.csv"),
        ("verify", "--output", "{missing}/verify.json"),
    ],
)
def test_missing_file_or_directory_is_named(tmp_path, args):
    missing = tmp_path / "missing"
    args = [arg.format(missing=missing) for arg in args]
    proc = run_cli(*args, check=False)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: [Errno 2] No such file or directory: ")
    assert str(missing) in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not missing.exists()


def test_missing_output_directory_fails_before_the_work(tmp_path, monkeypatch, capsys):
    # in-process, so the row function and the suite can count their calls
    calls = []
    plan_fig4 = sweeps.FIGURE_TARGETS["fig4"]

    def counting_plan(cfg):
        plan = plan_fig4(cfg)
        return dataclasses.replace(plan, row_fn=lambda p: calls.append(p) or plan.row_fn(p))

    monkeypatch.setitem(sweeps.FIGURE_TARGETS, "fig4", counting_plan)
    monkeypatch.setattr(oracles, "run_verification_suite", lambda **kw: calls.append(kw))
    missing = tmp_path / "missing"
    assert cli.main(["sweep", "--target", "fig4", "--output", str(missing / "fig4.csv")]) == 2
    assert cli.main(["verify", "--suite", "full", "--output", str(missing / "v.json")]) == 2
    assert calls == []
    err = capsys.readouterr().err
    assert err.count("error: [Errno 2] No such file or directory: ") == 2
    assert "Traceback" not in err
    assert not missing.exists()


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
    assert [check["name"] for check in rep["checks"]] == SUITE_NAMES
