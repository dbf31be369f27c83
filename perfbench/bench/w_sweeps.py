"""figure_sweeps: run_sweep on every figure target plus seeded custom sweeps.

A round runs the nine named targets at their default grids and four
custom sweeps of 60 k values (two in qubit mode, two in Gaussian mode),
in a seeded order.  Each sweep writes its CSV into a scratch directory
inside the benchmark's output directory, with a pool of one thread.
The custom sweeps' fixed parameters are drawn per round; their k range
ends where s~ reaches 0.85 to 0.90, so their cost stays near that of the
middle targets.

Every fourth round's CSVs are read back and checked: row count against
the grid, `# warnings:` and the nan rows against the domain rule, the
grid columns, the threshold markers and a seeded sample of rows against
the mpmath reference.
"""

from __future__ import annotations

import os
import shutil

import numpy as np

from . import reference as R
from .common import OUT, Workload, round_rng, spread_offset

CUSTOM_STEPS = 60
SMOKE_STEPS = 6
ROWS_CHECKED = 6  # seeded sample of rows per CSV checked against mpmath
CHECK_EVERY = 4  # the CSVs of every 4th round, round 0 first, are checked


def _lin(start, stop, steps):
    return [float(x) for x in np.linspace(start, stop, steps)]


# Figure definitions: the fixed parameters and grids of each target.
NAMED = {
    "fig2a": {"kind": "att", "s1": 0.8, "s2": 0.4, "k": _lin(0.02, 1.0, 120)},
    "fig2b": {"kind": "amp", "s1": 0.4, "s2": 0.8, "k": _lin(1.0, 3.0, 120)},
    "fig3a": {"kind": "att", "a": _lin(0.02, 0.98, 49), "b": _lin(0.02, 0.98, 49)},
    "fig3b": {"kind": "amp", "a": _lin(0.02, 0.98, 49), "b": _lin(0.02, 0.98, 49)},
    "fig4": {"a": _lin(0.02, 0.98, 49), "b": _lin(0.02, 0.98, 49)},
    "fig5": {"a": _lin(0.05, 0.95, 46), "b": _lin(0.05, 0.95, 46)},
    "fig6a": {"r0": 1.0 / 3.0, "lam": 2.4, "k": _lin(0.02, 1.0, 99)},
    "fig6b": {"r0": 0.8, "lam": 5.0 / 12.0, "k": _lin(1.0, 2.2, 97)},
    "fig6c": {"r0": 0.5, "lam": 0.25, "k": _lin(1.0, 2.5, 97)},
}


def parse_csv(text: str) -> tuple[dict, list, list]:
    """(metadata, header, rows) of a sweep CSV."""
    meta, rows = {}, []
    header = None
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, val = line[2:].partition(": ")
            meta[key] = val
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return meta, header, rows


def _is_nan_row(row) -> bool:
    return any(v == "nan" for v in row)


def _expected_rows(target: str, spec: dict) -> list:
    """The grid points in output order, with whether each row is nan."""
    if target in ("fig3a", "fig3b"):
        att = target == "fig3a"
        return [((a, b), (a < b) if att else (a > b)) for a in spec["a"] for b in spec["b"]]
    if target in ("fig4", "fig5"):
        return [((a, b), False) for a in spec["a"] for b in spec["b"]]
    return [((k,), False) for k in spec["k"]]


class FigureSweeps(Workload):
    NAME = "figure_sweeps"
    # 13 sweeps a round, 480-680 sweeps a 40 s run: p95 keeps 24-34 beyond
    # it and sits inside the fig6c mode, the costliest sweep (p99 would keep
    # 5-7)
    TAIL_PCT = 95.0

    def setup(self) -> None:
        from gauss_purify import sweeps

        self._sweeps = sweeps
        self._dir = os.path.join(OUT, f"csv-{self.NAME}-{os.getpid()}")
        os.makedirs(self._dir, exist_ok=True)
        self._first = self.make_round(0)
        # warm-up: one small custom sweep in each mode
        for op in self._first:
            if op[1] == "custom":
                small = dict(op[2], k=(op[2]["k"][0], op[2]["k"][1], SMOKE_STEPS), name=op[2]["name"] + "-warm")
                self.run((op[0], "custom", small))
                break

    def close(self) -> None:
        shutil.rmtree(getattr(self, "_dir", ""), ignore_errors=True)

    def _custom(self, index: int, slot: int, rng) -> dict:
        steps = SMOKE_STEPS if self.smoke else CUSTOM_STEPS
        st_end = 0.85 + 0.05 * spread_offset(self.NAME, self.seed, f"custom{slot}", index)
        if slot % 2 == 0:
            r0 = rng.uniform(0.25, 0.75)
            lam = rng.choice([rng.uniform(0.2, 0.8), rng.uniform(1.1, 0.95 / r0)])
            s1 = R.qubit_params(r0, lam)[0]
            fixed = {"r0": r0, "lam": lam}
            mode = "qubit"
        else:
            s1, s2 = rng.uniform(0.1, 0.8), rng.uniform(0.1, 0.8)
            fixed = {"s1": s1, "s2": s2, "V1": rng.uniform(0.5, 1.5), "V2": rng.uniform(0.5, 1.5)}
            mode = "gaussian"
        k_end = R.k_for_s_tilde(s1, st_end)
        return {"name": f"custom{slot}", "mode": mode, "fixed": fixed, "k": (0.05, k_end, steps)}

    def make_round(self, index: int) -> list:
        if index == 0 and getattr(self, "_first", None) is not None:
            return self._first
        rng = round_rng(self.NAME, self.seed, index)
        ops = [(index, name, None) for name in NAMED]
        ops += [(index, "custom", self._custom(index, slot, rng)) for slot in range(4)]
        rng.shuffle(ops)
        return ops

    def _path(self, op) -> str:
        name = op[1] if op[2] is None else op[2]["name"]
        return os.path.join(self._dir, name + ".csv")

    def run(self, op):
        _, target, custom = op
        path = self._path(op)
        if custom is None:
            config = self._sweeps.SweepConfig(target, path, threads=1)
        else:
            config = self._sweeps.SweepConfig(
                "custom", path, ranges={"k": custom["k"]}, fixed=dict(custom["fixed"]),
                mode=custom["mode"], threads=1,
            )
        return self._sweeps.run_sweep(config)

    # ------------------------------------------------------------------
    # checks

    def check_op(self, op, path) -> list:
        failures: list = []
        R.expect(failures, f"{op[1]}: run_sweep returned {path!r}, not its output", path == self._path(op))
        if op[0] % CHECK_EVERY == 0:
            with open(path, "r", encoding="utf-8") as fh:
                check_sweep_csv(failures, self.seed, op, fh.read())
        return failures


def check_sweep_csv(failures: list, seed: int, op, text: str) -> None:
    """Check one sweep CSV: grid, nan rows, markers and a sample of rows."""
    _, target, custom = op
    meta, header, rows = parse_csv(text)
    label = target if custom is None else f"custom {custom!r}"
    if custom is None:
        spec = NAMED[target]
        expected = _expected_rows(target, spec)
    else:
        spec = custom
        expected = [((k,), False) for k in _lin(*custom["k"])]
    R.expect(failures, f"{label}: {len(rows)} rows, grid has {len(expected)}", len(rows) == len(expected))
    if len(rows) != len(expected):
        return
    nan_rows = sum(1 for row in rows if _is_nan_row(row))
    predicted = sum(1 for _, is_nan in expected if is_nan)
    R.expect(failures, f"{label}: # warnings: {meta.get('warnings')} != {predicted} predicted", meta.get("warnings") == str(predicted))
    R.expect(failures, f"{label}: {nan_rows} nan rows != {predicted} predicted", nan_rows == predicted)
    for (point, is_nan), row in zip(expected, rows):
        for i, x in enumerate(point):
            if not R.close(float(row[i]), x, 1e-11 * max(1.0, abs(x))):
                failures.append(f"{label}: grid value {row[i]} != {x!r}")
                return
        if is_nan != _is_nan_row(row):
            failures.append(f"{label}: row {row} nan state differs from the domain rule")
            return
    _check_markers(failures, label, target, spec, meta)
    rng = round_rng(f"{FigureSweeps.NAME}/check/{label}", seed, op[0])
    picks = sorted(rng.sample(range(len(rows)), min(ROWS_CHECKED, len(rows))))
    for i in picks:
        if not _is_nan_row(rows[i]):
            _check_row(failures, f"{label} row {i}", target, spec, header, rows[i], expected[i][0])


def _check_markers(failures, label, target, spec, meta) -> None:
    """Threshold markers: s~(k0) = s2, and k0c^2 V1 = V2."""
    if target in ("fig2a", "fig2b"):
        s1, s2 = spec["s1"], spec["s2"]
    elif target.startswith("fig6") or (target == "custom" and spec["mode"] == "qubit"):
        params = spec if target.startswith("fig6") else spec["fixed"]
        s1, s2, V1, V2 = R.qubit_params(params["r0"], params["lam"])
        kc = float(meta["k0_classical"])
        R.expect_close(failures, f"{label} k0_classical^2 V1", kc * kc * V1, V2, 1e-12)
    elif target == "custom":
        f = spec["fixed"]
        kc = float(meta["k0_classical"])
        R.expect_close(failures, f"{label} k0_classical^2 V1", kc * kc * f["V1"], f["V2"], 1e-12)
        return
    else:
        return
    k0 = float(meta["k0_quantum"])
    R.expect_close(failures, f"{label} s~(k0_quantum)", R.mp_s_tilde(s1, k0), s2, 1e-12)


def _check_row(failures, label, target, spec, header, row, point) -> None:
    """Check one printed row against the reference at its exact grid point."""
    tol = R.RISK_TOL + R.PRINTED_REL
    if target in ("fig2a", "fig2b"):
        (k,) = point
        st, risk = float(row[1]), float(row[2])
        s1, s2 = spec["s1"], spec["s2"]
        ref_st = R.mp_s_tilde(s1, k)
        R.expect_close(failures, f"{label} s_tilde", st, ref_st, 1e-11)
        k0 = R.quantum_threshold(s1, s2)
        if abs(k - k0) > 1e-9:
            want = 0.0 if k < k0 else R.geometric_l1(ref_st, s2)[0]
            R.expect_close(failures, f"{label} risk", risk, want, tol)
    elif target in ("fig3a", "fig3b"):
        a, b = point
        val = float(row[2])
        k0 = R.quantum_threshold(a, b)
        want = k0 if target == "fig3a" else 1.0 / k0
        R.expect_close(failures, f"{label} threshold", val, want, 1e-11 * max(1.0, want))
    elif target == "fig4":
        r, lam = point
        lt, first = float(row[2]), float(row[3])
        want_lt = min(1.0, (1.0 - r) / r)
        R.expect_close(failures, f"{label} lambda_tilde", lt, want_lt, 1e-11)
        R.expect(failures, f"{label} classical_first", int(first) == int(lam < want_lt))
    elif target == "fig5":
        r, ro = point
        lam = ro / r
        branch, rate = row[3], float(row[4])
        want, kq, kc = R.rate_reference(r, lam)
        R.expect_close(failures, f"{label} rate", rate, want, 1e-11 * max(1.0, abs(float(want))))
        if abs(kq - kc) > 1e-9 and lam != 1.0:
            expected = "purification" if lam > 1.0 else "dilution_classical" if kc < kq else "dilution_amp"
            R.expect(failures, f"{label} branch {branch} != {expected}", branch == expected)
    else:
        (k,) = point
        if target == "custom" and spec["mode"] == "gaussian":
            f = spec["fixed"]
            params = (f["s1"], f["s2"], f["V1"], f["V2"], k)
        else:
            src = spec if target != "custom" else spec["fixed"]
            params = R.qubit_params(src["r0"], src["lam"]) + (k,)
        got = dict(zip(header, row))
        got = {key: (int(float(v)) if key == "case" else float(v)) for key, v in got.items()}
        R.check_report(failures, label, params, got, printed=True)
