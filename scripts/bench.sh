#!/usr/bin/env bash
# Performance harness: ledger-emitting release runs of the headline
# experiments (E3 ARQ overhead, E9/E15 explore, E11 sim and monitor, the
# 10⁷-action session-sharded monitor ingest, E12 fuzz, E13 fleet, E14
# stabilize, E16 cross-check, both impossibility constructions), written
# to bench/out/BENCH_<date>.json and gated against the committed
# bench/baseline.json.
#
#   scripts/bench.sh                  run workloads, write bench/out/BENCH_<date>.json
#   scripts/bench.sh --gate           ...and fail on regression vs baseline
#   scripts/bench.sh --update-baseline  rewrite bench/baseline.json (relaxed)
#   scripts/bench.sh --repin-counters   re-pin bench/baseline.json's counters and
#                                       histograms from one run; gauges stay as committed
#
# Gate rules (dl_obs::gate): throughput gauges (*_per_sec) must not drop
# more than 25 % below baseline; latency gauges (*_micros) and allocation
# counters (*_bytes, *_allocs) must not grow more than 25 %; every
# baseline run and metric must still exist. See DESIGN.md for the
# baseline-update workflow.
#
# DL_BENCH_SLEEP_US (microseconds) injects a synthetic stall into every
# measured window — it exists so the test suite can prove a fake slowdown
# fails the gate. Leave it unset for real measurements.
set -euo pipefail
cd "$(dirname "$0")/.."

MODE=run
case "${1:-}" in
  "") ;;
  --gate) MODE=gate ;;
  --update-baseline) MODE=update ;;
  --repin-counters) MODE=repin ;;
  *)
    echo "usage: bench.sh [--gate | --update-baseline | --repin-counters]" >&2
    exit 2
    ;;
esac

echo "==> build (release, --features obs)"
cargo build -q --release -p dl-bench --features obs --bin ledger_run --bin bench_gate

if [[ $MODE == update ]]; then
  echo "==> rewriting bench/baseline.json (relaxed tolerances)"
  ./target/release/ledger_run --relax-baseline --out bench/baseline.json
  echo "    review the diff and commit it together with the change that moved the numbers"
  exit 0
fi

if [[ $MODE == repin ]]; then
  echo "==> re-pinning bench/baseline.json's counters and histograms (gauges unchanged)"
  ./target/release/ledger_run --repin-counters bench/baseline.json --out bench/baseline.json
  echo "    review the diff and commit it together with the change that moved the numbers"
  exit 0
fi

mkdir -p bench/out
OUT="bench/out/BENCH_$(date +%Y%m%d).json"
echo "==> ledger runs -> ${OUT}"
./target/release/ledger_run --out "$OUT"

if [[ $MODE == gate ]]; then
  echo "==> gate vs bench/baseline.json"
  ./target/release/bench_gate bench/baseline.json "$OUT"
fi
