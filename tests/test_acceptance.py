"""Acceptance criteria for the risk engine, one test per criterion.

Every test prints a single [PASS]/[FAIL] line (visible with -s or on
failure) and then asserts, so the module doubles as a human-readable
checklist.  Stated time budgets are asserted alongside the numerical
tolerances.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from gauss_purify.channels import (
    AMPLIFY,
    ATTENUATE,
    amplify_kernel,
    attenuate_kernel,
    channel_s_tilde,
)
from gauss_purify.fock import thermal_state
from gauss_purify.oracles import (
    AncillaCandidate,
    ancilla_optimality_search,
    check_stochastic_ordering,
    simulate_channel,
)
from gauss_purify.risk import (
    QubitScenario,
    classical_minimax_risk,
    classical_threshold,
    combined_risk,
    geometric_l1,
    optimal_rate,
    quantum_minimax_risk,
    quantum_threshold,
    qubit_thresholds,
)
from gauss_purify.sweeps import SweepConfig, run_sweep

SEED = 20240816


def _criterion(num: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d}: {detail}")
    assert ok, f"criterion {num:02d}: {detail}"


def _ordered_pair(rng, kind):
    a, b = rng.uniform(0.02, 0.95, size=2)
    lo, hi = (a, b) if a <= b else (b, a)
    if lo == hi:
        hi = min(0.96, hi + 0.01)
    return (hi, lo) if kind == ATTENUATE else (lo, hi)


def test_criterion_01_thresholds_are_exact():
    """s~ lands on s2 at k0 and the risk there is exactly zero."""
    rng = np.random.default_rng([SEED, 1])
    start = time.perf_counter()
    worst_gap = 0.0
    worst_risk = 0.0
    for i in range(1000):
        kind = ATTENUATE if i % 2 == 0 else AMPLIFY
        s1, s2 = _ordered_pair(rng, kind)
        k0 = quantum_threshold(kind, s1, s2)
        worst_gap = max(worst_gap, abs(channel_s_tilde(kind, s1, k0) - s2))
        worst_risk = max(worst_risk, quantum_minimax_risk(s1, s2, k0, kind))
    elapsed = time.perf_counter() - start
    ok = worst_gap <= 1e-12 and worst_risk == 0.0 and elapsed < 1.0
    _criterion(
        1,
        ok,
        f"1000 pairs, |s~(k0)-s2| <= {worst_gap:.2e}, risk(k0) max {worst_risk:.1e}, "
        f"{elapsed:.2f}s",
    )


def test_criterion_02_closed_form_vs_brute_force():
    """Closed-form thermal risk equals the summed L1 distance beyond k0."""
    rng = np.random.default_rng([SEED, 2])
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        s1, s2 = rng.uniform(0.05, 0.95, size=2)
        kind = ATTENUATE if s1 >= s2 else AMPLIFY
        k0 = quantum_threshold(kind, s1, s2)
        if kind == ATTENUATE:
            k = float(k0 + rng.uniform(0.0, 1.0) * (1.0 - k0))
        else:
            k = float(k0 + rng.uniform(0.0, 1.5))
        closed = quantum_minimax_risk(s1, s2, k, kind)
        st = channel_s_tilde(kind, s1, k)
        hi = max(st, s2)
        cutoff = 64 if hi == 0.0 else int(math.log(1e-13) / math.log(hi)) + 2
        n = np.arange(cutoff + 1)
        brute = float(np.abs((1 - st) * st**n - (1 - s2) * s2**n).sum())
        assert st ** (cutoff + 1) + s2 ** (cutoff + 1) < 1e-12
        worst = max(worst, abs(closed - brute))
    worked = abs(quantum_minimax_risk(0.8, 0.4, 0.5, ATTENUATE) - 0.2)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and worked <= 1e-10 and elapsed < 5.0
    _criterion(
        2,
        ok,
        f"1000 draws, max |closed-brute| = {worst:.2e}, worked 0.2 err {worked:.1e}, "
        f"{elapsed:.2f}s",
    )


def test_criterion_03_kernels_match_two_mode_simulation():
    """Analytic kernels reproduce the simulated unitary channel entrywise."""
    start = time.perf_counter()
    cutoff = 60
    worst = 0.0
    for k in (0.3, 0.5, 0.9, 1.2, 1.5, 2.0):
        for s1 in (0.2, 0.5, 0.8):
            src = thermal_state(s1, cutoff)
            if k < 1.0:
                sim = simulate_channel(ATTENUATE, k, src, AncillaCandidate.vacuum(), cutoff)
                out = attenuate_kernel(k, src)
            else:
                sim = simulate_channel(AMPLIFY, k, src, AncillaCandidate.vacuum(), cutoff)
                out = amplify_kernel(k, src, out_cutoff=cutoff)
            worst = max(worst, float(np.max(np.abs(sim.probs - out.probs))))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 60.0
    _criterion(3, ok, f"18 settings at cutoff 60, max entry gap {worst:.2e}, {elapsed:.1f}s")


def test_criterion_04_thermal_family_is_fixed():
    """Thermal inputs stay thermal with the rescaled parameter."""
    worst = 0.0
    cutoff = 220
    for s1 in (0.1, 0.3, 0.5, 0.7, 0.85):
        for k in (0.25, 0.6, 0.9):
            out = attenuate_kernel(k, thermal_state(s1, cutoff))
            want = thermal_state(channel_s_tilde(ATTENUATE, s1, k), cutoff)
            worst = max(worst, float(np.max(np.abs(out.probs - want.probs))))
        for k in (1.15, 1.6, 2.2):
            out = amplify_kernel(k, thermal_state(s1, cutoff), out_cutoff=cutoff)
            want = thermal_state(channel_s_tilde(AMPLIFY, s1, k), cutoff)
            worst = max(worst, float(np.max(np.abs(out.probs - want.probs))))
    ok = worst <= 1e-12
    _criterion(4, ok, f"30 kind/s1/k settings, max entry gap {worst:.2e}")


def test_criterion_05_vacuum_is_stochastically_smallest():
    """Partial sums certify the vacuum ancilla dominates Fock levels <= 10."""
    start = time.perf_counter()
    worst = math.inf
    for kind, ks in (
        (ATTENUATE, np.linspace(0.05, 0.95, 20)),
        (AMPLIFY, np.linspace(1.05, 2.5, 20)),
    ):
        for k in ks:
            rep = check_stochastic_ordering(kind, float(k), 0.5, kappa_max=10)
            worst = min(worst, rep.worst_margin)
    elapsed = time.perf_counter() - start
    ok = worst >= -1e-12 and elapsed < 10.0
    _criterion(5, ok, f"40 grid points, worst CDF margin {worst:.2e}, {elapsed:.1f}s")


def test_criterion_06_no_ancilla_beats_the_vacuum():
    """10^4 Dirichlet mixtures per setting never improve on the vacuum."""
    start = time.perf_counter()
    worst = math.inf
    for kind, k, s1, s2 in (
        (ATTENUATE, 0.5, 0.8, 0.4),
        (ATTENUATE, 0.7, 0.8, 0.4),
        (AMPLIFY, 1.9, 0.4, 0.8),
        (AMPLIFY, 2.3, 0.4, 0.8),
    ):
        rep = ancilla_optimality_search(kind, k, s1, s2, max_level=6, samples=10_000)
        worst = min(worst, rep.margin)
    elapsed = time.perf_counter() - start
    ok = worst >= -1e-9 and elapsed < 120.0
    _criterion(
        6,
        ok,
        f"4 settings x 10007 candidates, worst margin vs vacuum {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_07_classical_closed_form_vs_quadrature():
    """Shift-law risk agrees with direct numerical integration."""
    rng = np.random.default_rng([SEED, 7])
    worst = 0.0
    for _ in range(1000):
        V1, V2 = rng.uniform(0.1, 3.0, size=2)
        k = float(math.sqrt(V2 / V1) * rng.uniform(1.01, 2.5))
        closed = classical_minimax_risk(V1, V2, k)
        a2, b2 = k * k * V1, V2
        sa, sb = math.sqrt(a2), math.sqrt(b2)
        L = 10.0 * max(sa, sb)

        def g(x):
            return math.exp(-0.5 * x * x / a2) / sa - math.exp(-0.5 * x * x / b2) / sb

        crossing = brentq(g, 0.0, L, xtol=1e-14)
        val, _ = quad(
            lambda x: abs(g(x)) / math.sqrt(2.0 * math.pi),
            0.0,
            L,
            points=[crossing],
            limit=400,
            epsabs=1e-11,
            epsrel=1e-11,
        )
        worst = max(worst, abs(closed - 2.0 * val))
    worked = abs(classical_minimax_risk(1.0, 1.0, math.sqrt(2.0)) - 0.33205)
    ok = worst <= 1e-8 and worked <= 1e-4
    _criterion(7, ok, f"1000 draws, max gap {worst:.2e}, worked 0.33205 err {worked:.1e}")


def test_criterion_08_rate_equals_threshold_rate():
    """Optimal rate is k0^2 / lam^2 with the governing threshold."""
    worst = 0.0
    for r in np.linspace(0.05, 0.9, 100):
        for lam in np.linspace(0.1, min(2.5, 0.99 / r), 100):
            sc = QubitScenario(float(r), float(lam))
            kq, kc, lt = qubit_thresholds(sc)
            if lam == 1.0:
                expected = 1.0
            else:
                governing = kq if (lam >= 1.0 or lam >= lt) else kc
                expected = governing * governing / (lam * lam)
            worst = max(worst, abs(optimal_rate(sc) - expected))
    worked_a = abs(optimal_rate(QubitScenario(1.0 / 3.0, 2.4)) - 0.0217013888888889)
    worked_b = abs(optimal_rate(QubitScenario(0.8, 5.0 / 12.0)) - 10.24)
    ok = worst <= 1e-12 and worked_a <= 1e-6 and worked_b <= 1e-6
    _criterion(
        8,
        ok,
        f"100x100 grid, max |rate - k0^2/lam^2| = {worst:.2e}, "
        f"worked errs {worked_a:.1e}/{worked_b:.1e}",
    )


def test_criterion_09_threshold_ordering_regions():
    """Dilution flips threshold order at lambda~; purification has kq < kc < 1."""
    ok = True
    witness = ""
    for r in np.linspace(0.05, 0.9, 60):
        sc0 = QubitScenario(float(r), 0.5)
        lt = sc0.lambda_tilde
        for lam in np.linspace(0.1, 0.98, 60):
            if abs(lam - lt) <= 1e-12:
                continue
            kq, kc, _ = qubit_thresholds(QubitScenario(float(r), float(lam)))
            if (kc < kq) != (lam < lt):
                ok = False
                witness = f"dilution r={r:.3f} lam={lam:.3f}"
        for lam in np.linspace(1.02, min(3.0, 0.99 / r), 60):
            kq, kc, _ = qubit_thresholds(QubitScenario(float(r), float(lam)))
            if not (kq < kc < 1.0):
                ok = False
                witness = f"purification r={r:.3f} lam={lam:.3f}"
    _criterion(9, ok, witness or "60x60 dilution and purification grids consistent")


_FIG6 = (
    ("fig6a", 1.0 / 3.0, 2.4, 1.0),
    ("fig6b", 0.8, 5.0 / 12.0, 2.2),
    ("fig6c", 0.5, 0.25, 2.5),
)


def test_criterion_10_risk_is_continuous_across_cases():
    """Total risk joins continuously at both thresholds and never decreases."""
    ok = True
    detail = []
    for name, r0, lam, k_max in _FIG6:
        kq, kc, _ = qubit_thresholds(QubitScenario(r0, lam))
        lo, hi = sorted((kq, kc))
        total = lambda k: combined_risk(QubitScenario(r0, lam, k=k)).total_risk
        jump = max(
            abs(total(b + 1e-6) - total(b - 1e-6)) for b in (lo, hi) if b - 1e-6 > 0
        )
        zeros = max(total(k) for k in np.linspace(min(0.02, lo / 2), lo * 0.999, 12))
        ks = np.linspace(min(0.02, lo / 2), k_max, 60)
        vals = [total(float(k)) for k in ks]
        drop = max(
            (a - b for a, b in zip(vals, vals[1:])), default=0.0
        )
        ok_here = jump <= 1e-4 and zeros == 0.0 and drop <= 1e-7
        ok = ok and ok_here
        detail.append(f"{name} jump {jump:.1e} drop {drop:.1e}")
    _criterion(10, ok, "; ".join(detail))


def test_criterion_11_sweep_csvs_are_faithful(tmp_path):
    """Sweep files carry exact thresholds, zero regions, and monotone risk."""
    ok = True
    detail = []
    for name, r0, lam, _ in _FIG6:
        path = tmp_path / f"{name}.csv"
        run_sweep(SweepConfig(target=name, output=str(path)))
        kq, kc, _lt = qubit_thresholds(QubitScenario(r0, lam))
        lo = min(kq, kc)
        meta = {}
        rows = []
        header = None
        for line in path.read_text(encoding="utf-8").splitlines():
            if line.startswith("# "):
                key, _, val = line[2:].partition(": ")
                meta[key] = val
            elif header is None:
                header = line.split(",")
            else:
                rows.append(dict(zip(header, line.split(","))))
        meta_err = max(
            abs(float(meta["k0_quantum"]) - kq), abs(float(meta["k0_classical"]) - kc)
        )
        ks = [float(row["k"]) for row in rows]
        totals = [float(row["total_risk"]) for row in rows]
        zero_ok = all(t == 0.0 for k, t in zip(ks, totals) if k <= lo)
        positive_ok = all(t > 0.0 for k, t in zip(ks, totals) if k > lo + 1e-6)
        drop = max((a - b for a, b in zip(totals, totals[1:])), default=0.0)
        ok_here = meta_err <= 1e-12 and zero_ok and positive_ok and drop <= 1e-7
        ok = ok and ok_here
        detail.append(f"{name} meta_err {meta_err:.1e} drop {drop:.1e}")
    _criterion(11, ok, "; ".join(detail))


@pytest.mark.slow
def test_criterion_12_verification_is_reproducible(tmp_path):
    """Two full verify runs at the same seed emit byte-identical JSON."""
    outs = []
    codes = []
    for tag in ("one", "two"):
        path = tmp_path / f"verify_{tag}.json"
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "gauss_purify.cli",
                "verify",
                "--suite",
                "full",
                "--seed",
                "42",
                "--output",
                str(path),
            ],
            capture_output=True,
            text=True,
            timeout=1200,
        )
        codes.append(proc.returncode)
        outs.append(path.read_bytes())
    report = json.loads(outs[0].decode("utf-8"))
    ok = codes == [0, 0] and outs[0] == outs[1] and report["all_passed"] is True
    _criterion(
        12,
        ok,
        f"exit codes {codes}, identical bytes: {outs[0] == outs[1]}, "
        f"{len(report['checks'])} checks all passing",
    )
