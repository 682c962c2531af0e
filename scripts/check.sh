#!/usr/bin/env bash
# Build + test + quick bench smoke: the tier-1 gate, runnable locally and in CI.
#   scripts/check.sh [build-dir]
#   CHECK_SANITIZE=address,undefined scripts/check.sh build-asan
#     — sanitizer mode: builds with -fsanitize=<list> and runs the tier-1
#       suites only (no bench smoke; sanitized benches are not meaningful).
#   CHECK_SANITIZE=thread \
#   CHECK_SUITES='service_test|service_runtime_test|service_network_test|service_durability_test|service_cluster_test|service_wal_test|wire_format_test|determinism_test|util_test' \
#       scripts/check.sh build-tsan
#     — CHECK_SUITES (a ctest -R regex) restricts the run to the named
#       suites; used by the TSan job, where the full crypto suites are slow
#       and single-threaded anyway.
#   CHECK_LINT=1 scripts/check.sh build-lint
#     — static-analysis mode: runs scripts/lint.py, then (when clang /
#       clang-tidy are installed) a clang build with -Werror=thread-safety
#       and clang-tidy over src/.  No tests, no benches; CI's
#       static-analysis job runs this with clang present, and locally it
#       degrades to the lint plus a notice for the missing tools.
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
BUILD_DIR="${1:-$REPO_ROOT/build}"
JOBS="$(nproc 2>/dev/null || echo 2)"
SANITIZE="${CHECK_SANITIZE:-}"
SUITES="${CHECK_SUITES:-}"
LINT="${CHECK_LINT:-}"

if [[ -n "$LINT" ]]; then
  echo "== lint self-test =="
  # The taint rules are negative-tested first: injected violations must
  # flag and lint:allow must suppress, or the lint run below proves nothing.
  python3 "$REPO_ROOT/scripts/lint.py" --self-test

  echo "== lint =="
  python3 "$REPO_ROOT/scripts/lint.py" "$REPO_ROOT"

  if command -v clang++ >/dev/null 2>&1; then
    echo "== clang -Werror=thread-safety =="
    # The annotations in src/util/thread_annotations.h only analyze under
    # clang; this build is the gate that makes GUARDED_BY/REQUIRES real.
    # -Wthread-safety-beta adds ACQUIRED_BEFORE/AFTER lock-order checking
    # (warnings, not errors, until the analysis graduates).
    cmake -B "$BUILD_DIR" -S "$REPO_ROOT" \
      -DCMAKE_CXX_COMPILER=clang++ -DCMAKE_C_COMPILER=clang
    cmake --build "$BUILD_DIR" -j "$JOBS"
  else
    echo "-- clang++ not installed; skipping the thread-safety build" \
         "(annotations compile as no-ops under GCC) --"
  fi

  if command -v clang-tidy >/dev/null 2>&1; then
    echo "== clang-tidy =="
    cmake -B "$BUILD_DIR" -S "$REPO_ROOT" -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
    find "$REPO_ROOT/src" -name '*.cc' -print0 |
      xargs -0 -P "$JOBS" -n 8 clang-tidy -p "$BUILD_DIR" --quiet
  else
    echo "-- clang-tidy not installed; skipping (CI's static-analysis job runs it) --"
  fi

  if command -v clang-query >/dev/null 2>&1; then
    echo "== clang-query ct checks =="
    # AST-shaped constant-time checks over the crypto tier (see
    # scripts/ct_check.clang-query); zero matches expected.
    cmake -B "$BUILD_DIR" -S "$REPO_ROOT" -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
    ct_query_out="$(clang-query -p "$BUILD_DIR" \
      -f "$REPO_ROOT/scripts/ct_check.clang-query" "$REPO_ROOT"/src/crypto/*.cc 2>&1)"
    ct_matches="$(grep -c 'binds here' <<<"$ct_query_out" || true)"
    if [[ "$ct_matches" -ne 0 ]]; then
      echo "$ct_query_out"
      echo "FAIL: $ct_matches constant-time AST violation(s) in src/crypto/"
      exit 1
    fi
    echo "-- clang-query: 0 matches --"
  else
    echo "-- clang-query not installed; skipping AST ct checks --"
  fi

  echo "== OK (lint) =="
  exit 0
fi

echo "== configure =="
cmake -B "$BUILD_DIR" -S "$REPO_ROOT" -DPROCHLO_SANITIZE="$SANITIZE"

echo "== build =="
cmake --build "$BUILD_DIR" -j "$JOBS"

echo "== test =="
if [[ -n "$SUITES" ]]; then
  ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS" -R "$SUITES"
else
  ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS"
fi

if [[ -n "$SANITIZE" ]]; then
  # Sanitized pass covers the suites above plus the service thread matrix
  # (including the TCP fault-injection suite — loopback sockets work fine in
  # CI); skip the bench smoke, whose timings are meaningless under
  # sanitizers.  PROCHLO_NETWORK_SEED pins the fault-injection schedule; CI
  # leaves it at the suite's default so failures reproduce locally.
  for threads in 0 4; do
    echo "-- sanitized, PROCHLO_STASH_THREADS=$threads --"
    PROCHLO_STASH_THREADS="$threads" \
      ctest --test-dir "$BUILD_DIR" --output-on-failure -R 'service_test|service_runtime_test|service_network_test|service_durability_test|service_cluster_test|service_wal_test|wire_format_test'
  done
  echo "== OK (sanitize: $SANITIZE) =="
  exit 0
fi

echo "== service thread matrix =="
# The ingestion-tier suites re-run pinned to each worker count: the epoch
# drain must be bit-identical sequential and threaded.
for threads in 0 4; do
  echo "-- PROCHLO_STASH_THREADS=$threads --"
  PROCHLO_STASH_THREADS="$threads" \
    ctest --test-dir "$BUILD_DIR" --output-on-failure -R 'service_test|service_runtime_test|service_network_test|service_durability_test|service_cluster_test|service_wal_test|wire_format_test'
done

echo "== bench smoke =="
# Tiny runs: confirm the benches execute and emit their BENCH_*.json files.
(cd "$BUILD_DIR" && ./bench_crypto --benchmark_filter='BaseMult|FieldMont|FieldAdd|FieldSub|BatchScalarMultSecret256' \
  --benchmark_min_time=0.05)
(cd "$BUILD_DIR" && PROCHLO_STASH_MAX_N=10000 PROCHLO_STASH_THREADS=0 ./bench_stash_shuffle)
(cd "$BUILD_DIR" && PROCHLO_INGEST_N=500 ./bench_ingest)
test -s "$BUILD_DIR/BENCH_crypto.json"
test -s "$BUILD_DIR/BENCH_stash_shuffle.json"
test -s "$BUILD_DIR/BENCH_ingest.json"
# The WAL's group commit and checkpoint are esabench rows (wal.commit_us,
# wal.checkpoint_ms); that group commit amortizes (fewer fsyncs than reports
# at a barrier every 8) is ServiceWalTest's
# BarrierEveryEightReportsFsyncsLessThanOncePerReport.
"$BUILD_DIR/examples/streaming_telemetry" >/dev/null

echo "== esabench smoke =="
# A short run of each workload of the performance gate (esabench/, declared
# in BENCHMARK.json): its build must still compile against the service API,
# the run must exit 0, and the run's own correctness checks must hold.  Its
# `valid` flag is a timing verdict and is not gated on here.
for workload in ingest drain cluster mixed; do
  echo "-- esabench $workload --"
  result="$(cd "$REPO_ROOT" && CARGO_TARGET_DIR="$BUILD_DIR/esabench-smoke" \
    python3 esabench/run.py --workload "$workload" --seed 1 --seconds 4 --trace 0 \
      --out "$BUILD_DIR/BENCH_esa_${workload}_smoke.json" | tail -n 1)"
  if ! grep -q '"correct": true' <<<"$result"; then
    echo "FAIL: esabench $workload smoke: $result"
    exit 1
  fi
done

echo "== ct harness smoke =="
# Functional pass of the ctgrind scenarios (no shadow backend here; the CI
# ct-verify job runs the same binary under valgrind).
"$BUILD_DIR/ct_harness" all

echo "== OK =="
