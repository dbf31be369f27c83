"""Command line interface.

Subcommands:

  risk        one-shot risk evaluation (qubit or Gaussian form)
  thresholds  threshold constants for a problem
  rates       optimal conversion rate for a qubit pair
  sweep       write a figure-ready CSV (named targets or custom)
  verify      run the self-check suite, emit a JSON report

All numeric output uses 12 significant digits.  `verify` exits nonzero
when any check fails, so it can gate CI.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from . import __version__
from .params import AMPLIFY, ATTENUATE, channel_s_tilde, kind_for_k, normalize_kind, ordered
from .risk import (
    GaussianProblem,
    QubitScenario,
    classical_threshold,
    combined_risk,
    gaussian_risk,
    optimal_rate,
    quantum_minimax_risk,
    quantum_threshold,
    qubit_thresholds,
    rate_branch,
)
from .sweeps import FIGURE_TARGETS, SweepConfig, _fmt, run_sweep


def _print_pairs(pairs) -> None:
    width = max(len(key) for key, _ in pairs)
    for key, value in pairs:
        print(f"{key.ljust(width)} : {_fmt(value)}")


def _emit(pairs, as_json: bool) -> None:
    if as_json:
        print(json.dumps({k: v for k, v in pairs}, indent=2, sort_keys=True))
    else:
        _print_pairs(pairs)


def _cmd_risk(args, parser: argparse.ArgumentParser) -> int:
    if args.qubit:
        for name in ("r0", "lam"):
            if getattr(args, name) is None:
                parser.error(f"--qubit requires --{'lambda' if name == 'lam' else name}")
        if args.k is None and args.rate is None:
            parser.error("--qubit requires --k or --rate")
        scenario = QubitScenario(args.r0, args.lam, k=args.k, rate=args.rate)
        report = combined_risk(scenario, abs_tol=args.abs_tol)
        _emit(report.as_dict().items(), args.json)
        return 0

    for name in ("s1", "s2", "k"):
        if getattr(args, name) is None:
            parser.error(f"--gaussian requires --{name}")
    if (args.v1 is None) != (args.v2 is None):
        parser.error("--V1 and --V2 must be given together")
    if args.v1 is not None:
        problem = GaussianProblem(args.s1, args.s2, args.v1, args.v2, args.k)
        report = gaussian_risk(problem, abs_tol=args.abs_tol)
        _emit(report.as_dict().items(), args.json)
        return 0

    # photon-statistics only: quantum side of the problem
    kind = normalize_kind(args.kind) if args.kind is not None else kind_for_k(args.k)
    st = channel_s_tilde(kind, args.s1, args.k)
    reachable = ordered(kind, args.s1, args.s2)
    pairs = [
        ("kind", kind),
        ("k0_quantum", quantum_threshold(kind, args.s1, args.s2) if reachable else None),
        ("s_tilde", st),
        ("quantum_risk", quantum_minimax_risk(args.s1, args.s2, args.k, kind)),
    ]
    _emit(pairs, args.json)
    return 0


def _cmd_thresholds(args, parser: argparse.ArgumentParser) -> int:
    if args.qubit:
        for name in ("r0", "lam"):
            if getattr(args, name) is None:
                parser.error(f"--qubit requires --{'lambda' if name == 'lam' else name}")
        kq, kc, lt = qubit_thresholds(QubitScenario(args.r0, args.lam))
        _emit(
            [("k0_quantum", kq), ("k0_classical", kc), ("lambda_tilde", lt)],
            args.json,
        )
        return 0
    for name in ("s1", "s2"):
        if getattr(args, name) is None:
            parser.error(f"--gaussian requires --{name}")
    pairs = [
        (f"k0_{kind}", quantum_threshold(kind, args.s1, args.s2))
        for kind in (ATTENUATE, AMPLIFY)
        if ordered(kind, args.s1, args.s2)
    ]
    if args.v1 is not None and args.v2 is not None:
        pairs.append(("k0_classical", classical_threshold(args.v1, args.v2)))
    _emit(pairs, args.json)
    return 0


def _cmd_rates(args, parser: argparse.ArgumentParser) -> int:
    scenario = QubitScenario(args.r0, args.lam)
    kq, kc, lt = qubit_thresholds(scenario)
    pairs = [
        ("rate", optimal_rate(scenario)),
        ("branch", rate_branch(scenario)),
        ("k0_quantum", kq),
        ("k0_classical", kc),
        ("lambda_tilde", lt),
    ]
    _emit(pairs, args.json)
    return 0


def _parse_assign(items, what: str, parser: argparse.ArgumentParser) -> dict:
    out = {}
    for item in items or []:
        name, sep, value = item.partition("=")
        if not sep or not name:
            parser.error(f"bad --{what} {item!r}, expected NAME=VALUE")
        out[name] = value
    return out


def _cmd_sweep(args, parser: argparse.ArgumentParser) -> int:
    settings = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            settings = json.load(fh)
        if not isinstance(settings, dict):
            parser.error("config file must hold a JSON object")

    target = args.target or settings.get("target")
    output = args.output or settings.get("output")
    if not target:
        parser.error("no sweep target (use --target or a config file)")
    if not output:
        parser.error("no output path (use --output or a config file)")

    ranges = dict(settings.get("ranges", {}))
    for name, value in _parse_assign(args.range, "range", parser).items():
        parts = value.split(":")
        if len(parts) != 3:
            parser.error(f"bad --range {name}={value!r}, expected START:STOP:STEPS")
        ranges[name] = parts

    fixed = {k: float(v) for k, v in settings.get("fixed", {}).items()}
    for name, value in _parse_assign(args.fix, "fix", parser).items():
        fixed[name] = float(value)

    mode = args.mode or settings.get("mode", "qubit")
    threads = args.threads if args.threads is not None else settings.get("threads")

    config = SweepConfig(
        target=target,
        output=output,
        ranges=ranges,
        fixed=fixed,
        mode=mode,
        threads=threads,
    )
    try:
        path = run_sweep(config)
    except ValueError as exc:
        parser.error(str(exc))
    print(f"wrote {path}")
    return 0


def _cmd_verify(args) -> int:
    # only verify loads the oracle layer and, with it, scipy.integrate,
    # scipy.linalg and scipy.special; the other subcommands load
    # scipy.special at most, on their first case-4 series
    from .oracles import run_verification_suite

    report = run_verification_suite(suite=args.suite, seed=args.seed)
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if report["all_passed"] else 1


def _add_problem_flags(sub: argparse.ArgumentParser, with_k: bool) -> None:
    form = sub.add_mutually_exclusive_group(required=True)
    form.add_argument("--qubit", action="store_true", help="qubit pair form")
    form.add_argument("--gaussian", action="store_true", help="direct Gaussian form")
    sub.add_argument("--r0", type=float, help="input Bloch vector length, in (0,1)")
    sub.add_argument("--lambda", dest="lam", type=float, help="target shrink factor")
    sub.add_argument("--s1", type=float, help="input thermal ratio, in [0,1)")
    sub.add_argument("--s2", type=float, help="target thermal ratio, in [0,1)")
    sub.add_argument("--V1", dest="v1", type=float, help="input quadrature variance")
    sub.add_argument("--V2", dest="v2", type=float, help="target quadrature variance")
    if with_k:
        sub.add_argument("--k", type=float, help="channel scale factor")
        sub.add_argument("--rate", type=float, help="conversion rate (qubit form)")
        sub.add_argument(
            "--kind", choices=[ATTENUATE, AMPLIFY], help="channel family (gaussian form)"
        )
        sub.add_argument(
            "--abs-tol",
            type=float,
            default=1e-8,
            help="truncation tolerance of the case-4 series",
        )
    sub.add_argument("--json", action="store_true", help="emit JSON instead of text")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gauss-purify",
        description="minimax risk of thermal-state purification and dilution",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    risk = subs.add_parser("risk", help="evaluate the risk of one conversion")
    _add_problem_flags(risk, with_k=True)

    thr = subs.add_parser("thresholds", help="print threshold constants")
    _add_problem_flags(thr, with_k=False)

    rates = subs.add_parser("rates", help="optimal rate for a qubit pair")
    rates.add_argument("--r0", type=float, required=True)
    rates.add_argument("--lambda", dest="lam", type=float, required=True)
    rates.add_argument("--json", action="store_true")

    sweep = subs.add_parser("sweep", help="write a CSV parameter sweep")
    sweep.add_argument("--target", choices=sorted(FIGURE_TARGETS), help="sweep target")
    sweep.add_argument("--output", help="output CSV path")
    sweep.add_argument("--config", help="JSON config file (flags override it)")
    sweep.add_argument(
        "--range",
        action="append",
        metavar="NAME=START:STOP:STEPS",
        help="override a swept range (repeatable)",
    )
    sweep.add_argument(
        "--fix",
        action="append",
        metavar="NAME=VALUE",
        help="override a fixed parameter (repeatable)",
    )
    sweep.add_argument("--mode", choices=["qubit", "gaussian"], help="custom target mode")
    sweep.add_argument("--threads", type=int, help="thread pool size")

    verify = subs.add_parser("verify", help="run the self-check suite")
    verify.add_argument("--suite", choices=["fast", "full"], default="fast")
    # oracles.DEFAULT_SEED, written out so building the parser does not
    # load the oracle layer
    verify.add_argument("--seed", type=int, default=42)
    verify.add_argument("--output", help="write the JSON report here instead of stdout")

    return parser


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "risk":
            return _cmd_risk(args, parser)
        if args.command == "thresholds":
            return _cmd_thresholds(args, parser)
        if args.command == "rates":
            return _cmd_rates(args, parser)
        if args.command == "sweep":
            return _cmd_sweep(args, parser)
        if args.command == "verify":
            return _cmd_verify(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
