#!/usr/bin/env bash
# Dynamic constant-time verification (ctgrind-style).
#
# Drives build/ct_harness under valgrind:
#   1. Positives: the real crypto scenarios (SCENARIOS below) must produce
#      ZERO shadow-state errors — no branch or memory address may depend on
#      poisoned secret bytes.
#   2. Negatives: the planted violations (INJECTIONS below, each run as
#      --inject=<name>) MUST be reported.  A verifier that stays quiet on a
#      planted bug is not evidence of anything.
#
# Degrades gracefully: without valgrind (or without the valgrind headers at
# build time, which leaves the poison hooks inert) it runs the harness as a
# plain functional smoke test and reports SKIP for the shadow checks.
#
# Usage: scripts/ct_verify.sh [build-dir]   (default: build)
set -u

BUILD_DIR="${1:-build}"
HARNESS="$BUILD_DIR/ct_harness"

if [ ! -x "$HARNESS" ]; then
  echo "ct-verify: FAIL ($HARNESS not built; configure and build first)" >&2
  exit 1
fi

# Functional smoke always runs: every scenario must produce correct output
# regardless of any shadow backend.
if ! "$HARNESS" all; then
  echo "ct-verify: FAIL (functional smoke: a scenario computed a wrong result)" >&2
  exit 1
fi

if ! command -v valgrind >/dev/null 2>&1; then
  echo "ct-verify: SKIP shadow checks (valgrind not installed)"
  exit 0
fi

VALGRIND=(valgrind --quiet --error-exitcode=99)

# The binary must have been compiled with the valgrind client requests
# (ct.cc picks them up via __has_include(<valgrind/memcheck.h>)).  If the
# headers were missing at build time, poisoning is a no-op and a "clean" run
# proves nothing — detect that and skip rather than claim a pass.
backend="$("${VALGRIND[@]}" "$HARNESS" ecdh 2>/dev/null | grep -o 'backend-active=\w*')"
if [ "$backend" != "backend-active=yes" ]; then
  echo "ct-verify: SKIP shadow checks (poison backend inert: $backend;" \
       "install valgrind headers and rebuild)"
  exit 0
fi

SCENARIOS=(ecdh elgamal-decrypt batch-ecdh batch-ecdh-even batch-elgamal-decrypt gcm-verify
           hmac-verify)
INJECTIONS=(branch index tag-memcmp wnaf-recode field-branch)

fail=0

for scenario in "${SCENARIOS[@]}"; do
  log="$(mktemp)"
  if "${VALGRIND[@]}" "$HARNESS" "$scenario" >/dev/null 2>"$log"; then
    echo "ct-verify: PASS $scenario (no secret-dependent branches or indices)"
  else
    echo "ct-verify: FAIL $scenario — secret-dependent operation detected:" >&2
    cat "$log" >&2
    fail=1
  fi
  rm -f "$log"
done

for inject in "${INJECTIONS[@]}"; do
  if "${VALGRIND[@]}" "$HARNESS" --inject="$inject" >/dev/null 2>&1; then
    echo "ct-verify: FAIL inject=$inject — planted violation NOT detected" >&2
    fail=1
  else
    echo "ct-verify: PASS inject=$inject (planted violation caught)"
  fi
done

if [ "$fail" -ne 0 ]; then
  echo "ct-verify: FAIL" >&2
  exit 1
fi
echo "ct-verify: OK (${#SCENARIOS[@]} scenarios shadow-clean," \
     "${#INJECTIONS[@]} planted violations caught)"
