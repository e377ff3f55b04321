#!/usr/bin/env bash
# Repository check gate, split into named fail-fast stages.
#
#   scripts/check.sh                 run every stage in order
#   scripts/check.sh --stage NAME    run a single stage
#   scripts/check.sh --list          list stage names and exit
#
# Each stage's wall-clock time is reported as it finishes and summarized
# at the end. The first failing stage aborts the run (set -e), so the
# summary of a failed run shows exactly how far it got.
set -euo pipefail
cd "$(dirname "$0")/.."

STAGES=(toolchain fmt clippy test obs scaling explore-deep monitor-smoke fuzz-smoke fleet-smoke stabilize-smoke alloc differential cross-check bench-smoke perfbench)

stage_toolchain() {
  # The container pins the toolchain by version, not by channel file
  # alone: rust-toolchain.toml says "stable", and this stage verifies
  # that "stable" still means the version the repo was validated with.
  local pinned actual
  pinned=$(sed -n 's/^# pinned-version: //p' rust-toolchain.toml)
  actual=$(cargo --version | awk '{print $2}')
  echo "    pinned ${pinned}, active ${actual}"
  if [[ -z "$pinned" ]]; then
    echo "toolchain: rust-toolchain.toml is missing its pinned-version comment" >&2
    return 1
  fi
  if [[ "$actual" != "$pinned" ]]; then
    echo "toolchain: active cargo ${actual} != pinned ${pinned} (update rust-toolchain.toml deliberately)" >&2
    return 1
  fi
}

stage_fmt() {
  cargo fmt --all -- --check
}

stage_clippy() {
  cargo clippy --workspace --all-targets -- -D warnings
  cargo clippy --workspace --all-targets --features dl-bench/obs -- -D warnings
}

stage_test() {
  cargo test -q --workspace
}

stage_obs() {
  # The observability differential: every pinned engine output must be
  # identical with the `obs` feature off (default) and on. One process
  # cannot compile both configurations, so the test runs twice. The
  # explorer's own tests run with its barrier stopwatch compiled in too.
  cargo test -q -p dl-bench --test obs_differential
  cargo test -q -p dl-bench --test obs_differential --features obs
  cargo test -q -p dl-bench --features obs
  cargo test -q -p dl-explore --features obs
}

stage_scaling() {
  # 10^5-action trace through the streaming checkers, release; must stay
  # well under 1 s.
  cargo test --release -q -p dl-core --test monitor_props scaling_smoke
}

stage_explore_deep() {
  # Scaled-down `explore/deep` leg, release: the packed backend and the
  # lock-free visited set reproduce identical counters and layer
  # histograms at 1/2/4 threads (the full ≥10⁶-state run lives in
  # `scripts/bench.sh` / bench/baseline.json). Plus the packed store's
  # chunk, segment and offset arithmetic in release, where an overflow
  # wraps silently and `debug_assert!`s are compiled out, and the
  # engine's own tests (1/2/4 threads, zero- and one-segment claim
  # filters, the overflow path) on the optimized batched worker loop.
  cargo test --release -q -p dl-bench --test explore_deep_smoke
  cargo test --release -q -p ioa intern
  cargo test --release -q -p dl-explore
}

stage_monitor_smoke() {
  # Batched monitor ingest at line rate, release: session-sharded 2·10⁶
  # action stream holds a loose actions/sec floor (the tight floor lives
  # in bench/baseline.json), plus the monitor's own alloc ceiling —
  # steady-state ingestion allocates nothing and the footprint tracks
  # peak live transit, not total sends.
  cargo test --release -q -p dl-bench --test monitor_smoke
  cargo test -q -p dl-fuzz --test monitor_alloc_ceiling
}

stage_fuzz_smoke() {
  # Fixed seed, bounded execs, release: quirky DL4 + ABP crash pump
  # rediscovered, every counterexample replays byte-identically; and the
  # lean execution path of all ten targets matches an in-test recording
  # reference (coverage, schedule, verdict), with every violation's `at`
  # indexing the schedule.
  cargo test --release -q -p dl-fuzz --test smoke
  cargo test --release -q -p dl-fuzz --test differential
}

stage_fleet_smoke() {
  # Bounded mixed-protocol fleet: 400 monitored sessions with per-session
  # fault schedules and crash scripts complete, replay byte-identically,
  # and emit a well-formed ledger; plus the fleet-vs-independent-runners
  # differential at 1/2/4 workers.
  cargo test --release -q -p dl-fleet --test fleet_smoke --test differential
}

stage_stabilize_smoke() {
  # Self-stabilization from corrupted initial configurations, release:
  # bounded convergence runs over the corrupted fault class (hand-built
  # corruption genes + a cold-start fuzz campaign that must find no
  # counterexample), the stabilizing-fleet worker-count differential
  # with convergence-index pins, and the explorer's shortest path into
  # the stabilized region.
  cargo test --release -q -p dl-fuzz --test stabilize_smoke
  cargo test --release -q -p dl-fleet --test differential stabilizing_fleet
  cargo test --release -q --test model_checking corrupted_stabilizing
}

stage_alloc() {
  # Counting allocator: allocs per fuzz exec, per explored edge (both
  # visited-set backends) and per lean fleet-session action (every zoo
  # kind, stabilizing included) under the pinned ceilings.
  cargo test -q -p dl-fuzz --test alloc_regression
  cargo test -q -p dl-explore --test alloc_ceiling
  cargo test -q -p dl-fleet --test alloc_ceiling
}

stage_differential() {
  # Scratch-buffer runner byte-identical to the frozen clone-based
  # executor; and, in release, the trait-method contracts the session
  # step rests on (per-task enabled walks, counted-and-chosen steps,
  # in-place picks) against `successors`/`enabled_local` on every zoo
  # composition.
  cargo test -q -p dl-sim --test interned_runner_differential
  cargo test --release -q --test transition_consistency
}

stage_cross_check() {
  # Cross-formalism differential, release: the independent checker
  # (own hashing, own visited set, own BFS) agrees with the parallel
  # explorer field by field — state counts, diameters, per-layer stats,
  # and minimal counterexample traces — across the zoo, including the
  # Lemma 7.2 crash pump.
  cargo test --release -q -p dl-crosscheck
}

stage_bench_smoke() {
  # The release ledger binaries behind scripts/bench.sh build.
  cargo build -q --release -p dl-bench --features obs --bin ledger_run --bin bench_gate
}

stage_perfbench() {
  # The repo benchmark (perfbench/, its own workspace and lockfile)
  # builds against the engines' current public API, and its pin
  # self-tests pass. Every pinned cycle (all fleet and fuzz cycles at
  # both pinned seeds) is regenerated with --print-pins, formatted as the
  # committed table is, and must equal perfbench/src/pinned.rs byte for
  # byte, so a moved schedule digest or fuzz fold fails here. Then one
  # pinned unit of each workload runs through the benchmark's own runner,
  # which compares the engines' outputs with its pins (schedule digests,
  # coverage folds, E15 counts); the stage fails when the result line
  # reports a failed operation. Nothing under perfbench/ is edited here.
  cargo test -q --locked --manifest-path perfbench/Cargo.toml
  cargo run -q --release --locked --manifest-path perfbench/Cargo.toml -- --print-pins |
    rustfmt --edition 2021 | diff - perfbench/src/pinned.rs || {
    echo "perfbench: --print-pins differs from perfbench/src/pinned.rs" >&2
    return 1
  }
  echo "    print-pins: identical to perfbench/src/pinned.rs"
  local workload result
  for workload in explore-deep fleet-mixed fuzz-hunt; do
    result=$(python3 perfbench/run.py --workload "$workload" --seed 0 --seconds 1 --trace 0 | tail -n 1)
    python3 -c 'import json, sys
r = json.loads(sys.argv[1])
print("    %s: %d operations, %d failed" % (sys.argv[2], r["attempted"], r["failed"]))
sys.exit(r["failed"] != 0 or r["attempted"] == 0)' "$result" "$workload" || {
      echo "perfbench: ${workload} failed its pinned outputs: ${result}" >&2
      return 1
    }
  done
}

list_stages() {
  printf '%s\n' "${STAGES[@]}"
}

run_stage() {
  local name=$1 fn=stage_${1//-/_}
  echo "==> ${name}"
  local start end
  start=$(date +%s)
  "$fn"
  end=$(date +%s)
  TIMINGS+=("$(printf '%-12s %4ds' "$name" $((end - start)))")
  echo "    ${name}: $((end - start))s"
}

TIMINGS=()

case "${1:-}" in
  --list)
    list_stages
    exit 0
    ;;
  --stage)
    stage=${2:?"usage: check.sh --stage NAME (see --list)"}
    if ! printf '%s\n' "${STAGES[@]}" | grep -qx "$stage"; then
      echo "check.sh: unknown stage '${stage}'; stages: ${STAGES[*]}" >&2
      exit 2
    fi
    run_stage "$stage"
    exit 0
    ;;
  "")
    ;;
  *)
    echo "usage: check.sh [--stage NAME | --list]" >&2
    exit 2
    ;;
esac

overall_start=$(date +%s)
for s in "${STAGES[@]}"; do
  run_stage "$s"
done
overall_end=$(date +%s)

echo
echo "stage timings:"
printf '  %s\n' "${TIMINGS[@]}"
echo "  total        $((overall_end - overall_start))s"
echo "All checks passed."
