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
import contextlib
import json
import sys
from typing import Optional

from . import __version__
from .params import (
    AMPLIFY,
    ATTENUATE,
    DEFAULT_SEED,
    channel_s_tilde,
    kind_for_k,
    normalize_kind,
    ordered,
)
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
    _fmt,
)


def _print_pairs(pairs) -> None:
    width = max(len(key) for key, _ in pairs)
    for key, value in pairs:
        print(f"{key.ljust(width)} : {_fmt(value)}")


def _emit(pairs, as_json: bool) -> None:
    if as_json:
        print(json.dumps({k: v for k, v in pairs}, indent=2, sort_keys=True))
    else:
        _print_pairs(pairs)


# the flags of `risk` and `thresholds` by the attribute each one sets
_PROBLEM_FLAGS = {
    "r0": "--r0", "lam": "--lambda", "s1": "--s1", "s2": "--s2", "v1": "--V1", "v2": "--V2",
    "k": "--k", "rate": "--rate", "kind": "--kind",
}


def _check_form(args, parser, form: str, needs: tuple, reads: tuple = ()) -> None:
    """Exit 2 naming a flag the form needs but lacks, or one it does not read."""
    for name in needs:
        if getattr(args, name) is None:
            parser.error(f"{form} requires {_PROBLEM_FLAGS[name]}")
    for name, flag in _PROBLEM_FLAGS.items():
        if name not in needs + reads and getattr(args, name, None) is not None:
            parser.error(f"{form} reads no {flag}")


def _check_pair(args, parser) -> bool:
    """Whether --V1 and --V2 are given; exit 2 when only one of them is."""
    if (args.v1 is None) != (args.v2 is None):
        parser.error("--V1 and --V2 must be given together")
    return args.v1 is not None


def _cmd_risk(args, parser: argparse.ArgumentParser) -> int:
    if args.qubit:
        _check_form(args, parser, "--qubit", ("r0", "lam"), ("k", "rate"))
        if args.k is None and args.rate is None:
            parser.error("--qubit requires --k or --rate")
        scenario = QubitScenario(args.r0, args.lam, k=args.k, rate=args.rate)
        report = combined_risk(scenario)
        _emit(report.as_dict().items(), args.json)
        return 0

    needs = ("s1", "s2", "k")
    if _check_pair(args, parser):
        _check_form(args, parser, "--gaussian with --V1 and --V2", needs, ("v1", "v2"))
        problem = GaussianProblem(args.s1, args.s2, args.v1, args.v2, args.k)
        report = gaussian_risk(problem)
        _emit(report.as_dict().items(), args.json)
        return 0

    # photon-statistics only: quantum side of the problem
    _check_form(args, parser, "--gaussian without --V1 and --V2", needs, ("kind",))
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
        _check_form(args, parser, "--qubit", ("r0", "lam"))
        kq, kc, lt = qubit_thresholds(QubitScenario(args.r0, args.lam))
        _emit(
            [("k0_quantum", kq), ("k0_classical", kc), ("lambda_tilde", lt)],
            args.json,
        )
        return 0
    _check_form(args, parser, "--gaussian", ("s1", "s2"), ("v1", "v2"))
    pairs = [
        (f"k0_{kind}", quantum_threshold(kind, args.s1, args.s2))
        for kind in (ATTENUATE, AMPLIFY)
        if ordered(kind, args.s1, args.s2)
    ]
    if _check_pair(args, parser):
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
    # sweeps load for this subcommand alone
    from .sweeps import read_config, run_sweep

    settings = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            try:
                settings = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ValueError(f"config file {args.config!r} is not valid JSON: {exc}") from None
        if not isinstance(settings, dict):
            parser.error("config file must hold a JSON object")
    if args.target is None and "target" not in settings:
        parser.error("no sweep target (use --target or a config file)")
    if args.output is None and "output" not in settings:
        parser.error("no output path (use --output or a config file)")

    ranges = {}
    for name, value in _parse_assign(args.range, "range", parser).items():
        parts = value.split(":")
        if len(parts) != 3:
            parser.error(f"bad --range {name}={value!r}, expected START:STOP:STEPS")
        ranges[name] = parts

    config = read_config(
        settings, target=args.target, output=args.output, ranges=ranges,
        fixed=_parse_assign(args.fix, "fix", parser), mode=args.mode, threads=args.threads,
    )
    print(f"wrote {run_sweep(config)}")
    return 0


def _cmd_verify(args, parser: argparse.ArgumentParser) -> int:
    # only verify loads the oracle layer, and numpy with it; the other
    # subcommands run on the standard library
    from .oracles import run_verification_suite

    # opened before the suite, so an unwritable path fails before the checks
    if args.output:
        out = open(args.output, "w", encoding="utf-8", newline="")
    else:
        out = contextlib.nullcontext(sys.stdout)
    with out as fh:
        report = run_verification_suite(suite=args.suite, seed=args.seed)
        fh.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
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
    sweep.add_argument("--target", help="sweep target; an unknown name lists them")
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
    verify.add_argument("--seed", type=int, default=DEFAULT_SEED)
    verify.add_argument("--output", help="write the JSON report here instead of stdout")

    return parser


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    command = {
        "risk": _cmd_risk, "thresholds": _cmd_thresholds, "rates": _cmd_rates,
        "sweep": _cmd_sweep, "verify": _cmd_verify,
    }[args.command]
    try:
        return command(args, parser)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
