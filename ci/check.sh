#!/usr/bin/env bash
# Tier-1 gate: the full build/test matrix a change must pass before
# merging.
#
#   1. Release build with -Werror, full ctest (includes the detlint,
#      parlint, flowlint, and codeclint static scans), then a blocking
#      lint step that re-runs all four linters with --check-waivers and
#      writes JSON + SARIF reports into <dir>/lint-reports/.
#   2. Debug build with AddressSanitizer + UndefinedBehaviorSanitizer,
#      full ctest (exercises the determinism harness under sanitizers)
#      plus the same blocking lint step.
#   3. Debug build with ThreadSanitizer running the parallel-equivalence
#      suite — the one that spins up the deterministic thread pool
#      (DESIGN.md §9) — and the chaos suite.
#   4. The release-leg benches with identity gates, then a 2-second
#      perfbench run of each workload untraced and one traced
#      (perfbench/README.md).
#
# Usage: ci/check.sh [build-dir-prefix]   (default: build-ci)

set -euo pipefail

cd "$(dirname "$0")/.."
prefix="${1:-build-ci}"
jobs="$(nproc 2>/dev/null || echo 4)"

# Directories detlint covers: everything consensus-critical plus the
# benches, examples, and the lint tools themselves (self-scan).
detlint_targets=(src/core src/consensus src/crypto src/types src/contract
                 src/net src/sim src/parallel src/state src/chain src/txpool
                 bench examples tools)

# Blocking lint step: all four linters over their scan sets,
# stale-waiver checking on, machine-readable JSON + SARIF reports under
# <dir>/lint-reports/ so CI can upload them as artifacts (and feed the
# SARIF to code-scanning UIs) even on success. Exit code 2 on any
# unsuppressed finding fails the leg (set -e). flowlint additionally
# diffs its computed taint summaries against the checked-in
# tools/flowlint/summaries.json (rule taint-summary-drift), and
# codeclint its per-record member manifests against
# tools/codeclint/fields.json (rule field-manifest-drift).
run_lint_step() {
  local dir="$1"
  mkdir -p "$dir/lint-reports"
  echo "==== lint $dir (detlint) ===="
  "$dir/tools/detlint" --root . --check-waivers \
    --report "$dir/lint-reports/detlint.json" \
    --sarif "$dir/lint-reports/detlint.sarif" \
    "${detlint_targets[@]}"
  echo "==== lint $dir (parlint) ===="
  "$dir/tools/parlint" --root . --check-waivers \
    --report "$dir/lint-reports/parlint.json" \
    --sarif "$dir/lint-reports/parlint.sarif" \
    src
  echo "==== lint $dir (flowlint) ===="
  "$dir/tools/flowlint" --root . --check-waivers \
    --summaries tools/flowlint/summaries.json \
    --report "$dir/lint-reports/flowlint.json" \
    --sarif "$dir/lint-reports/flowlint.sarif" \
    src
  echo "==== lint $dir (codeclint) ===="
  "$dir/tools/codeclint" --root . --check-waivers \
    --manifest tools/codeclint/fields.json \
    --report "$dir/lint-reports/codeclint.json" \
    --sarif "$dir/lint-reports/codeclint.sarif" \
    src
  echo "artifacts: $dir/lint-reports/{detlint,parlint,flowlint,codeclint}.{json,sarif}"
}

# Aggregated lint summary: per-tool finding counts, stale-waiver
# counts, and taint-summary + field-manifest drift status, read back
# from the JSON reports of one leg. Pure-python JSON parse — no extra
# dependencies.
print_lint_summary() {
  local dir="$1"
  echo "==== lint summary ($dir/lint-reports) ===="
  python3 - "$dir/lint-reports" <<'EOF'
import json, os, sys
reports = sys.argv[1]
taint_drift = "in sync"
manifest_drift = "in sync"
rows = []
for tool in ("detlint", "parlint", "flowlint", "codeclint"):
    path = os.path.join(reports, tool + ".json")
    with open(path) as f:
        report = json.load(f)
    findings = report["findings"]
    stale = sum(1 for f in findings if f["rule"] == "stale-waiver")
    if any(f["rule"] == "taint-summary-drift" for f in findings):
        taint_drift = "DRIFT"
    if any(f["rule"] == "field-manifest-drift" for f in findings):
        manifest_drift = "DRIFT"
    rows.append((tool, report["files_scanned"], len(findings),
                 report["unsuppressed"], stale))
print(f"  {'tool':<10}{'files':>7}{'findings':>10}{'unsuppressed':>14}"
      f"{'stale-waivers':>15}")
for tool, files, total, unsup, stale in rows:
    print(f"  {tool:<10}{files:>7}{total:>10}{unsup:>14}{stale:>15}")
print(f"  taint summaries ({'tools/flowlint/summaries.json'}): "
      f"{taint_drift}")
print(f"  field manifests ({'tools/codeclint/fields.json'}): "
      f"{manifest_drift}")
EOF
}

run_matrix_leg() {
  local dir="$1"; shift
  echo "==== configure $dir ($*) ===="
  cmake -B "$dir" -S . "$@"
  echo "==== build $dir ===="
  cmake --build "$dir" -j "$jobs"
  echo "==== test $dir ===="
  ctest --test-dir "$dir" --output-on-failure -j "$jobs"
  echo "==== chaos $dir ===="
  # The seeded chaos suite runs as its own leg so a liveness split is
  # reported separately from unit regressions. Seeds are fixed inside
  # the suite; reruns are byte-reproducible.
  ctest --test-dir "$dir" --output-on-failure -j "$jobs" -L chaos
  run_lint_step "$dir"
}

run_matrix_leg "$prefix-release" \
  -DCMAKE_BUILD_TYPE=Release \
  -DSHARDCHAIN_WERROR=ON

run_matrix_leg "$prefix-asan" \
  -DCMAKE_BUILD_TYPE=Debug \
  "-DSHARDCHAIN_SANITIZE=address;undefined"

# TSan leg: ThreadSanitizer cannot combine with ASan, so it gets its
# own build. The parallel label (thread-pool and equivalence binary)
# runs the two pooled batches and the pool itself at 1–8 threads. The
# chaos schedules start no thread; they stay in this leg so a thread
# added to the liveness simulator runs under TSan from the start.
echo "==== configure $prefix-tsan (thread sanitizer) ===="
cmake -B "$prefix-tsan" -S . \
  -DCMAKE_BUILD_TYPE=Debug \
  -DSHARDCHAIN_SANITIZE=thread
echo "==== build $prefix-tsan ===="
cmake --build "$prefix-tsan" -j "$jobs" \
  --target shardchain_parallel_tests shardchain_chaos_tests
echo "==== test $prefix-tsan (labels: parallel|chaos) ===="
ctest --test-dir "$prefix-tsan" --output-on-failure -j "$jobs" \
  -L "parallel|chaos"

# State-commitment scaling bench. Runs in the release leg and doubles
# as a correctness gate: it aborts unless the incremental root is
# byte-identical to a from-scratch rebuild at every checkpoint
# (DESIGN.md §10). Artifact: BENCH_state.json.
echo "==== bench_state_scaling (root identity gate) ===="
(cd "$prefix-release" && ./bench/bench_state_scaling)
echo "artifact: $prefix-release/BENCH_state.json"

# Churn recovery bench. Also a correctness gate: it aborts unless every
# accepted cross-shard migration re-verifies against its source shard
# root (DESIGN.md §12). Artifact: BENCH_churn.json.
echo "==== bench_churn_recovery (handoff verification gate) ===="
(cd "$prefix-release" && ./bench/bench_churn_recovery)
echo "artifact: $prefix-release/BENCH_churn.json"

# Thread-pool scaling bench. Also a correctness gate: it aborts unless
# both batches the pool runs in src/ (VRF evaluation and Lamport
# signature verification, each at its real size, one item per pool
# task) are identical to the serial result at every thread count
# before it times them (DESIGN.md §9). Artifact: BENCH_parallel.json.
echo "==== bench_parallel_scaling (serial/parallel identity gate) ===="
(cd "$prefix-release" && ./bench/bench_parallel_scaling)
echo "artifact: $prefix-release/BENCH_parallel.json"

# Million-tx mempool/pipeline bench. Also a correctness gate: it aborts
# unless the pipelined drain is byte-identical to the serial mine loop
# at every commit-queue depth — blocks, state root, residual pool —
# asserted pre-timing at gate scale and re-checked over the full
# 1M-transaction backlog (DESIGN.md §14). Artifact: BENCH_pipeline.json.
echo "==== bench_pipeline (pipelined/serial identity gate) ===="
(cd "$prefix-release" && ./bench/bench_pipeline)
echo "artifact: $prefix-release/BENCH_pipeline.json"

# End-to-end benchmark, 2 seconds per workload. Each run builds
# perfbench from src/ into $prefix-release/perfbench, runs its harness
# tests, then its correctness gate (the same blocks, roots and residual
# pools at 2 threads as at 1) before any timing, so a src/ change that
# breaks either fails here rather than in a benchmark pipeline.
for workload in backlog_drain sharded_epochs signed_stream; do
  echo "==== perfbench $workload (harness tests + 2-vs-1-thread gate) ===="
  CARGO_TARGET_DIR="$prefix-release" python3 perfbench/run.py \
    --workload "$workload" --seed 1 --seconds 2 --trace 0
done
# The traced path: span probes around every public call, and the check
# that block spans cover at least 95% of block time.
for workload in backlog_drain sharded_epochs signed_stream; do
  echo "==== perfbench $workload (traced, block-span coverage >= 0.95) ===="
  CARGO_TARGET_DIR="$prefix-release" python3 perfbench/run.py \
    --workload "$workload" --seed 1 --seconds 2 --trace 1
done

print_lint_summary "$prefix-release"

echo "All checks passed."
