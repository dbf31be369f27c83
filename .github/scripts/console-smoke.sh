#!/usr/bin/env bash
# Smoke run of the installed `gauss-purify` console script: every
# subcommand once, a sweep from a config file, and the exit code and
# message for a config file that is not valid JSON.
set -euo pipefail

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

gauss-purify rates --r0 0.5 --lambda 0.5 --json
gauss-purify sweep --target fig2a --output "$work/fig2a.csv"
gauss-purify risk --qubit --r0 1e-9 --lambda 2 --k 1.2 --json
gauss-purify risk --gaussian --s1 0.5 --s2 0.1 --V1 1.5 --V2 1.0 --k 1.2 --json
gauss-purify risk --gaussian --s1 0.5 --s2 0.3 --k 0.8
gauss-purify thresholds --gaussian --s1 0.8 --s2 0.4 --V1 1.5 --V2 1.0
gauss-purify sweep --target custom --fix r0=0.5 --fix lam=0.5 --output "$work/custom.csv"
echo "{\"target\": \"custom\", \"output\": \"$work/config.csv\", \"fixed\": {\"r0\": 0.5, \"lam\": 0.5}, \"ranges\": {\"k\": [0.1, 2.0, 20]}}" > "$work/sweep.json"
gauss-purify sweep --config "$work/sweep.json"
printf '{"target": "fig2a",\n' > "$work/truncated.json"
rc=0
gauss-purify sweep --config "$work/truncated.json" 2> "$work/truncated.err" || rc=$?
test "$rc" -eq 2
grep -qF "config file '$work/truncated.json' is not valid JSON" "$work/truncated.err"
gauss-purify verify --suite fast --output "$work/verify.json"
