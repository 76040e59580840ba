#!/usr/bin/env bash
# Runs the four workloads, one process each, one after the other, first
# with tracing off (end-to-end metrics) and then traced (per-layer
# metrics), and merges what they print into bench/out/latest.json.
#
#   bench/run.sh            one set of runs
#   bench/run.sh --repeat   two sets; fails unless they agree: every
#                           end-to-end metric within its bound in
#                           BENCHMARK.json, every count and simulated
#                           statistic exactly
#
# SEED (default 1; 2 is the hold-out) and SECONDS_PER_RUN (default:
# run_seconds of BENCHMARK.json) can be set in the environment.
set -euo pipefail
cd "$(dirname "$0")/.."

seed=${SEED:-1}
seconds=${SECONDS_PER_RUN:-$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)}
out=bench/out
mkdir -p "$out"
go build -o "$out/bench.bin" ./bench

run_set() {
	mkdir -p "$1"
	for w in fleet_mixed fleet_flashcrowd report_cold sweep_warm; do
		for t in 0 1; do
			echo "== $w --trace $t ($1)" >&2
			"$out/bench.bin" --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$t" --out "$out" |
				tee "$1/$w.trace$t.log" | tail -n 1 >"$1/$w.trace$t.json"
		done
	done
}

run_set "$out/set1"
if [ "${1:-}" = "--repeat" ]; then
	run_set "$out/set2"
	"$out/bench.bin" -collect "$out/set1" -compare "$out/set2" >"$out/latest.json"
else
	"$out/bench.bin" -collect "$out/set1" >"$out/latest.json"
fi
echo "wrote $out/latest.json" >&2
