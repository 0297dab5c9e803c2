#!/usr/bin/env bash
# A smoke run of the benchmark: the tracer's binding check, one short
# untraced run per workload, and one traced train run.
#
#   bash tools/bench_smoke.sh [DIR]
#
# It runs from the repository root, writes each run's JSON result into DIR
# (default: a new temporary directory), and exits non-zero at the first
# check that fails. It takes about a minute on two cores.
#
# perfbench wraps and calls capinv's public functions by name, and its output
# checks and generate pins are deterministic, so a renamed or removed
# function or a changed dataset fails here. The traced self-test is not
# gated on: its overhead share depends on timing.
set -euo pipefail
out="$(cd "${1:-$(mktemp -d)}" && pwd)"
cd "$(dirname "$0")/.."
# A capinv function still bound under a name the tracer does not wrap would
# escape every per-layer metric.
python3 -c 'import sys; sys.path[:0] = ["src", "perfbench"]; import capinv, capinv.cli; from tracer import Tracer; m = Tracer().missed_bindings(); print("missed bindings:", m); sys.exit(bool(m))'
for w in generate train invert sweep; do
  python3 perfbench/run.py --workload "$w" --seconds 1 | tail -n 1 > "$out/result-$w.json"
  python3 -c 'import json, sys; r = json.load(open(sys.argv[1])); print(sys.argv[1], r["correct"]); sys.exit(r["correct"] is not True)' "$out/result-$w.json"
done
# Training backpropagates once per forward pass, through the public
# network.backward; a step that called a private body instead would read 0
# backward calls here. Each optimizer's step is traced under its own class
# name, so a step inherited from a shared base would read 0 here too.
# "correct" is not checked, as above.
python3 perfbench/run.py --workload train --seconds 1 --trace 1 | tail -n 1 > "$out/trace-train.json"
python3 -c 'import json, sys; m = json.load(open(sys.argv[1]))["metrics"]; b, f = (m[f"network.{n}.calls"]["value"] for n in ("backward", "forward")); print("backward", b, "forward", f); sys.exit(not 0 < b == f)' "$out/trace-train.json"
python3 -c 'import json, sys; m = json.load(open(sys.argv[1]))["metrics"]; s = {n: m[f"network.{n}.step.p50_us"]["value"] for n in ("Momentum", "Adam")}; print("step p50 us", s); sys.exit(not all(v > 0 for v in s.values()))' "$out/trace-train.json"
