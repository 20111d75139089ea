#!/usr/bin/env bash
# Static-verification gate: emx_verify must pass every checked-in clean
# program and every registry workload, and must flag each golden buggy
# program with the finding it was written to demonstrate (exit code 6 +
# the kind token in the output).
#
#   usage: scripts/ci_verify.sh ./build/tools/emx_verify
set -uo pipefail
cd "$(dirname "$0")/.."

verify="${1:?usage: ci_verify.sh <emx_verify>}"

fail=0

# --- clean side: examples + every registry workload ----------------------
if ! "$verify" examples/isa/*.emx; then
  echo "FAIL: clean example programs did not verify clean"
  fail=1
fi
if ! "$verify" --apps; then
  echo "FAIL: a registry workload did not verify clean"
  fail=1
fi

# --- buggy side: each golden program names its finding and exits 6 -------
expect_finding() {
  local file="$1" token="$2" out code
  out=$("$verify" "tests/verify/golden/$file" 2>&1)
  code=$?
  if [[ "$code" -ne 6 ]]; then
    echo "FAIL: $file: expected exit 6, got $code"
    echo "$out"
    fail=1
  elif ! grep -q "$token" <<<"$out"; then
    echo "FAIL: $file: expected a '$token' finding, got:"
    echo "$out"
    fail=1
  else
    echo "ok: $file -> $token (exit 6)"
  fi
}

expect_finding use_before_def.emx   use-before-def
expect_finding frame_leak.emx       frame-leak
expect_finding barrier_mismatch.emx barrier-path-mismatch
expect_finding unreachable.emx      unreachable-code
expect_finding spin_loop.emx        spin-without-suspend

if [[ "$fail" -ne 0 ]]; then
  echo "static verification gate FAILED"
  exit 1
fi
echo "static verification gate OK"
