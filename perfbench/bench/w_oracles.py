"""oracle_checks: a seeded mix of public oracle calls.

A round holds 20 calls in three cost modes:

- 6 light calls (milliseconds to ~0.1 s): simulate_channel,
  ancilla_optimality_search, assemble_two_mode_unitary and
  verify_covariance on the beamsplitter side, check_stochastic_ordering
  on the amplifier side, verify_noise_topup;
- 8 mid calls (~0.2-0.4 s), amplifier side: 3 simulate_channel (cutoff
  16, vacuum ancilla), 2 assemble_two_mode_unitary (cutoff 13, gain
  low enough that some columns stay whole), 3 verify_covariance (input
  cutoff 14);
- 6 amplifier-side ancilla_optimality_search calls (~0.5 s, 203
  candidates each).

The median falls in the middle of the mid mode and p90 two thirds of
the way into the search mode.  The main cost parameter (k) of each call is
spread evenly over a narrow band across rounds; other parameters are
drawn per round.
"""

from __future__ import annotations

import math

import numpy as np

from . import reference as R
from .common import Workload, round_rng, spread_offset

# (name, kind, band of k, count, sizes); smoke rounds shrink the sizes
# below, keeping those whose checks need the full truncation
MIX = [
    ("simulate", "att", (0.4, 0.8), 1, {"cutoff": 30}),
    ("search", "att", (0.55, 0.65), 1, {"max_level": 3, "samples": 500}),
    ("unitary", "att", (0.5, 0.7), 1, {"cutoff": 12}),
    ("covariance", "att", (0.4, 0.6), 1, {"in_cutoff": 30}),
    ("ordering", "amp", (1.3, 1.6), 1, {"kappa_max": 8}),
    ("topup", None, (0.0, 1.0), 1, {"samples": 20_000}),
    ("simulate", "amp", (1.18, 1.22), 3, {"cutoff": 16}),
    ("unitary", "amp", (1.02, 1.03), 2, {"cutoff": 13}),
    ("covariance", "amp", (1.23, 1.27), 3, {"in_cutoff": 14}),
    ("search", "amp", (1.28, 1.32), 6, {"max_level": 2, "samples": 200}),
]
SMOKE_SIZES = {
    "simulate": {"cutoff": 6},
    "search": {"max_level": 1, "samples": 10},
    "ordering": {"kappa_max": 2},
    "topup": {"samples": 500},
}
WARM_SIZES = dict(SMOKE_SIZES, unitary={"cutoff": 3}, covariance={"in_cutoff": 4})
ENTRY_TOL = 1e-8  # simulation vs closed-form kernel, per entry
GRAM_TOL = 1e-10


class OracleChecks(Workload):
    NAME = "oracle_checks"
    # 20 calls a round, 120-160 a 40 s run: p90 keeps 12-16 beyond it and
    # sits two thirds of the way into the search mode (p95 would keep 6-8)
    TAIL_PCT = 90.0

    def setup(self) -> None:
        from gauss_purify import channels, fock, oracles

        self._o, self._ch, self._fock = oracles, channels, fock
        self._first = self.make_round(0)
        # warm-up: every call kind once at a small size
        seen = set()
        for op in self._first:
            key = (op[1], op[2])
            if key not in seen:
                seen.add(key)
                self.run((op[0], op[1], op[2], dict(op[3], **WARM_SIZES[op[1]])))

    def make_round(self, index: int) -> list:
        if index == 0 and getattr(self, "_first", None) is not None:
            return self._first
        rng = round_rng(self.NAME, self.seed, index)
        ops = []
        for name, kind, (k_lo, k_hi), count, sizes in MIX:
            for i in range(count):
                u = spread_offset(self.NAME, self.seed, f"{name}/{kind}/{i}", index)
                p = dict(sizes, **SMOKE_SIZES.get(name, {})) if self.smoke else dict(sizes)
                p["k"] = k_lo + (k_hi - k_lo) * u
                if name == "simulate":
                    p["s1"] = rng.uniform(0.35, 0.45)
                elif name == "search":
                    # s1 sets the input cutoff and with it the cost (it stays 9
                    # on the amplifier band); the target sits above threshold,
                    # s2 < s~, where the vacuum ancilla is optimal
                    p["s1"] = rng.uniform(0.037, 0.043) if kind == "amp" else rng.uniform(0.3, 0.4)
                    p["s2"] = R.s_tilde(p["s1"], p["k"]) * rng.uniform(0.5, 0.8)
                    p["seed"] = rng.randrange(1 << 30)
                elif name == "covariance":
                    # small displacements and cold inputs keep the truncation
                    # error inside the report's 1e-6 trace-norm budget
                    amp = kind == "amp"
                    p["s1"] = rng.uniform(0.15, 0.22) if amp else rng.uniform(0.2, 0.35)
                    p["alpha"] = complex(rng.uniform(0.3, 0.45 if amp else 0.6), rng.uniform(-0.15, 0.15))
                elif name == "ordering":
                    p["s1"] = rng.uniform(0.3, 0.7)
                elif name == "topup":
                    # s2 sets the photon cutoff (40 on this band) and with it the
                    # size of the Monte-Carlo block, the workload's largest array
                    p["s2"] = rng.uniform(0.45, 0.455)
                    p["s_tilde"] = p["s2"] * (0.2 + 0.6 * u)
                    p["seed"] = rng.randrange(1 << 30)
                ops.append((index, name, kind, p))
        rng.shuffle(ops)
        return ops

    def run(self, op):
        _, name, kind, p = op
        o = self._o
        if name == "simulate":
            src = self._fock.thermal_state(p["s1"], p["cutoff"])
            return src, o.simulate_channel(kind, p["k"], src, o.AncillaCandidate.vacuum(), p["cutoff"])
        if name == "search":
            return o.ancilla_optimality_search(kind, p["k"], p["s1"], p["s2"], p["max_level"], p["samples"], p["seed"])
        if name == "unitary":
            return o.assemble_two_mode_unitary(kind, p["k"], p["cutoff"])
        if name == "covariance":
            return o.verify_covariance(kind, p["k"], [p["alpha"]], p["s1"], p["in_cutoff"])
        if name == "ordering":
            return o.check_stochastic_ordering(kind, p["k"], p["s1"], p["kappa_max"])
        return o.verify_noise_topup(p["s_tilde"], p["s2"], p["samples"], p["seed"])

    # ------------------------------------------------------------------
    # checks

    def check_op(self, op, out) -> list:
        _, name, kind, p = op
        failures: list = []
        label = f"{name} {kind} {p!r}"
        if name == "simulate":
            self._check_simulation(failures, label, kind, p, *out)
        elif name == "search":
            R.expect(failures, f"{label}: margin {out.margin!r} below -1e-9", out.margin >= -1e-9)
            st = R.s_tilde(p["s1"], p["k"])
            want, tail = R.geometric_l1(st, p["s2"])
            R.expect_close(failures, f"{label} vacuum risk", out.vacuum_risk, want, R.RISK_TOL + float(tail))
        elif name == "unitary":
            self._check_unitary(failures, label, kind, p, *out)
        else:
            R.expect(failures, f"{label}: report not ok: {out.as_dict()!r}", bool(out.ok))
        return failures

    def _check_simulation(self, failures, label, kind, p, src, out) -> None:
        """Vacuum-ancilla simulation against the closed-form kernels in channels."""
        if kind == "att":
            ref = self._ch.attenuate_kernel(p["k"], src).probs
        else:
            ref = self._ch.amplify_kernel(p["k"], src, out_cutoff=p["cutoff"]).probs
        n = min(ref.size, out.probs.size)
        gap = float(np.max(np.abs(out.probs[:n] - ref[:n])))
        R.expect(failures, f"{label}: simulation differs from the kernel by {gap:.3e}", gap <= ENTRY_TOL)
        total = float(out.probs.sum()) + out.tail_bound
        R.expect(failures, f"{label}: probabilities plus tail bound {total!r} < 1", total >= 1.0 - 1e-9)

    def _check_unitary(self, failures, label, kind, p, U, leak) -> None:
        """Identity Gram matrix on the columns the restriction keeps whole."""
        size = p["cutoff"] + 1
        gram = U.T @ U
        keep = [
            na * size + nb
            for na in range(size)
            for nb in range(size)
            if (na + nb <= p["cutoff"] if kind == "att" else gram[na * size + nb, na * size + nb] > 1.0 - 1e-12)
        ]
        if not keep:
            failures.append(f"{label}: no complete columns")
            return
        sub = gram[np.ix_(keep, keep)] - np.eye(len(keep))
        err = float(np.max(np.abs(sub)))
        R.expect(failures, f"{label}: Gram error {err:.3e} on complete columns", err <= GRAM_TOL)
        R.expect(failures, f"{label}: leak {leak!r} outside [0, 1]", math.isfinite(leak) and 0.0 <= leak <= 1.0)
