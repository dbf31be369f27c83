"""risk_queries: independent single-point risk evaluations.

A round holds 100 queries: 66 in case 4 (62 with s~ stratified over
[0.15, 0.90] and 4 over [0.95, 0.99], one per 0.01 stratum), 12 in
case 1, 11 in case 2 and 11 in case 3.  Within each class the queries
alternate between the qubit form (combined_risk on a QubitScenario) and
the Gaussian form (gaussian_risk on a GaussianProblem).  Inputs are
drawn inside their strata from the seed and the round index, and the
round is shuffled, so every round has the same mix.

Every report is checked for its case, its range and, in case 4, for a
total between max(classical, quantum) and their sum; round 0 and a
seeded 0.3% of later queries are also checked against mpmath.
"""

from __future__ import annotations

import math

from . import reference as R
from .common import Workload, round_rng, spread_offset

# (class, count) in one round; smoke rounds keep one query per class
MIX = [("c4", 62), ("c4tail", 4), ("c1", 12), ("c2", 11), ("c3", 11)]
SMOKE_MIX = [("c4", 2), ("c4tail", 1), ("c1", 1), ("c2", 1), ("c3", 1)]
C4_RANGE = (0.15, 0.90)
TAIL_RANGE = (0.95, 0.99)
MARGIN = 1.03  # keep k this far (relative) from each threshold
DEEP_SHARE = 0.003  # share of queries after round 0 checked against mpmath


def draw_problem(rng, qubit: bool, want: str, st_target: float | None):
    """Draw (s1, s2, V1, V2, k) and, for the qubit form, (r0, lam).

    Rejection sampling keeps k at least MARGIN away from both thresholds
    and on the side the class asks for.
    """
    for _ in range(10_000):
        if qubit:
            r0 = rng.uniform(0.15, 0.85)
            lam = rng.uniform(0.1, 0.97 / r0)
            if abs(lam - 1.0) < 0.03:
                continue
            s1, s2, V1, V2 = R.qubit_params(r0, lam)
            extra = (r0, lam)
        else:
            s1, s2 = rng.uniform(0.05, 0.9), rng.uniform(0.05, 0.9)
            V1, V2 = rng.uniform(0.3, 2.0), rng.uniform(0.3, 2.0)
            extra = None
        kq, kc = R.quantum_threshold(s1, s2), R.classical_threshold(V1, V2)
        lo, hi = min(kq, kc), max(kq, kc)
        if want in ("c4", "c4tail"):
            k = R.k_for_s_tilde(s1, st_target)
            if k < hi * MARGIN:
                continue
        elif want == "c1":
            k = lo * rng.uniform(0.2, 1.0 / MARGIN)
        else:
            if (want == "c2") != (kq < kc) or hi < lo * MARGIN**3:
                continue
            k = rng.uniform(lo * MARGIN, hi / MARGIN)
        return (s1, s2, V1, V2, k), extra
    raise RuntimeError(f"could not draw a {want} problem")


class RiskQueries(Workload):
    NAME = "risk_queries"
    # 18,000-30,000 queries per 40 s run; p99.9 keeps 18-30 beyond it, in
    # the top s~ stratum of the tail mode
    TAIL_PCT = 99.9

    def setup(self) -> None:
        from gauss_purify.risk import GaussianProblem, QubitScenario, combined_risk, gaussian_risk

        self._GP, self._QS = GaussianProblem, QubitScenario
        self._combined, self._gaussian = combined_risk, gaussian_risk
        self._first = self.make_round(0)
        for op in self.make_round(-1)[:10]:  # warm-up on inputs the loop never sees
            self.run(op)

    def make_round(self, index: int) -> list:
        if index == 0 and getattr(self, "_first", None) is not None:
            return self._first
        rng = round_rng(self.NAME, self.seed, index)
        ops = []
        for cls, count in SMOKE_MIX if self.smoke else MIX:
            for i in range(count):
                st = None
                if cls in ("c4", "c4tail"):
                    lo, hi = C4_RANGE if cls == "c4" else TAIL_RANGE
                    width = (hi - lo) / count
                    st = lo + width * (i + spread_offset(self.NAME, self.seed, f"{cls}{i}", index))
                qubit = i % 2 == 0
                params, extra = draw_problem(rng, qubit, cls, st)
                deep = index == 0 or rng.random() < DEEP_SHARE
                ops.append((index, cls, params, extra, deep))
        rng.shuffle(ops)
        return ops

    def run(self, op):
        _, _, params, extra, _ = op
        if extra is not None:
            r0, lam = extra
            return self._combined(self._QS(r0, lam, k=params[4]))
        return self._gaussian(self._GP(*params))

    def check_op(self, op, rep) -> list:
        _, cls, params, _, deep = op
        failures: list = []
        label = f"{cls} {params!r}"
        vals = (rep.classical_risk, rep.quantum_risk, rep.total_risk)
        if not all(math.isfinite(v) and 0.0 <= v <= 2.0 for v in vals):
            return [f"{label}: risks {vals!r} outside [0, 2]"]
        want = 1 if cls == "c1" else 2 if cls == "c2" else 3 if cls == "c3" else 4
        R.expect(failures, f"{label}: case {rep.case}, expected {want}", rep.case == want)
        if rep.case == 1:
            R.expect(failures, f"{label}: nonzero risk at or below both thresholds", vals == (0.0, 0.0, 0.0))
        if rep.case == 4:
            c, q, t = vals
            R.expect(failures, f"{label}: case-4 total below max(classical, quantum)", t >= max(c, q) - R.RISK_TOL)
            R.expect(failures, f"{label}: case-4 total above classical + quantum", t <= c + q + R.RISK_TOL)
        if deep:
            R.check_report(failures, label, params, rep.as_dict())
        return failures
