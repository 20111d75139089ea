#!/usr/bin/env bash
# Checkpoint round-trip determinism gate.
#
# Three contracts, CI-enforced:
#   1. The paper-scale cycle counts are frozen: default flags must yield
#      exactly sort=472640 and fft=1397612 cycles. Any drift is a real
#      behaviour change and must be a conscious decision, not an accident.
#   2. Checkpointing is observationally free: a checkpointed run prints
#      byte-for-byte the report of an unchecked one, and resuming from a
#      checkpoint finishes with the identical report — fault-free AND
#      under an active fault plan.
#   3. Contradictory flag combinations exit 2 up front, never run wrong.
#   4. PE memory costs what the program touches: a P=256 histsort peaks
#      under 256 MiB RSS (eagerly allocated 4 MB memories would need
#      over 1 GiB).
#
# Usage: scripts/ci_roundtrip.sh [path-to-emx_run]
set -euo pipefail

RUN=${1:-./build/tools/emx_run}
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

# --- 1. frozen paper-scale cycle counts -------------------------------
assert_cycles() { # app expected-cycles
  local app=$1 expected=$2 got
  got=$("$RUN" --app="$app" | grep -o 'cycles=[0-9]*' | head -1)
  if [ "$got" != "cycles=$expected" ]; then
    echo "FAIL: --app=$app default run gave $got, frozen value is cycles=$expected" >&2
    exit 1
  fi
  echo "ok: $app default-flag run reproduces cycles=$expected"
}
assert_cycles sort 472640
assert_cycles fft 1397612

# --- 2. checkpoint round-trips ----------------------------------------
roundtrip() { # tag checkpoint-every flags...
  local tag=$1 every=$2; shift 2
  local dir="$work/$tag" base="$work/$tag-base.txt"
  "$RUN" "$@" > "$base"
  "$RUN" "$@" --checkpoint-every="$every" --checkpoint-dir="$dir" \
    > "$work/$tag-ck.txt"
  # The checkpointed run differs only by its trailing "checkpoints:" line.
  diff <(grep -v '^checkpoints:' "$work/$tag-ck.txt") "$base" \
    || { echo "FAIL: $tag — checkpointing perturbed the run" >&2; exit 1; }
  local count
  count=$(ls "$dir"/*.emxsnap | wc -l)
  [ "$count" -ge 3 ] || { echo "FAIL: $tag wrote $count checkpoints, want >=3" >&2; exit 1; }
  # Resume from the latest checkpoint: state verification passes (exit 0,
  # not 5) and the finished run's report is byte-identical.
  local latest
  latest=$(ls "$dir"/*.emxsnap | sort | tail -1)
  "$RUN" --resume="$latest" > "$work/$tag-res.txt"
  diff "$work/$tag-res.txt" "$base" \
    || { echo "FAIL: $tag — resume from $latest diverged" >&2; exit 1; }
  echo "ok: $tag round-trips through $(basename "$latest")"
}
roundtrip sort-clean 120000 --app=sort
roundtrip fft-clean  350000 --app=fft
roundtrip sort-fault 150000 --app=sort \
  --fault-drop-rate=0.01 --fault-dup-rate=0.01 --fault-seed=7
roundtrip fft-fault  400000 --app=fft \
  --fault-drop-rate=0.01 --fault-seed=7

# --- 3. contradictory flags are exit 2 --------------------------------
expect2() { # description flags...
  local what=$1; shift
  local code=0
  "$RUN" "$@" >/dev/null 2>&1 || code=$?
  [ "$code" = 2 ] || { echo "FAIL: $what exited $code, want 2" >&2; exit 1; }
  echo "ok: $what is exit 2"
}
ck=$(ls "$work"/sort-clean/*.emxsnap | head -1)
rr="$work/tiny.rr"
"$RUN" --app=sort --procs=4 --size-per-proc=64 --threads=2 \
  --record="$rr" --digest-every=20000 > /dev/null

expect2 "--checkpoint-every without --checkpoint-dir" \
  --app=sort --checkpoint-every=1000
expect2 "--replay with --record" --replay="$rr" --record="$work/x.rr"
expect2 "--replay with --resume" --replay="$rr" --resume="$ck"
expect2 "--replay with an explicit fault flag" \
  --replay="$rr" --fault-drop-rate=0.1
expect2 "--replay with a contradicting topology" --replay="$rr" --procs=8
expect2 "--resume with a contradicting topology" --resume="$ck" --procs=8
expect2 "--resume with a contradicting seed" --resume="$ck" --seed=999

# A clean replay of the recording still passes, proving the gate above
# rejected the flags and not the mechanism.
"$RUN" --replay="$rr" > /dev/null
echo "ok: clean replay of the recording passes"

# --- 4. peak RSS of a wide machine ------------------------------------
python3 - "$RUN" <<'PY'
import os, subprocess, sys
limit_mib = 256
child = subprocess.Popen([sys.argv[1], "--app=histsort", "--procs=256"],
                         stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(child.pid, 0)
rss_mib = usage.ru_maxrss / 1024  # Linux reports KiB
if os.waitstatus_to_exitcode(status) != 0:
    sys.exit(f"FAIL: histsort --procs=256 exited with status {status}")
if rss_mib > limit_mib:
    sys.exit(f"FAIL: histsort --procs=256 peaked at {rss_mib:.0f} MiB RSS, "
             f"limit {limit_mib} MiB")
print(f"ok: histsort --procs=256 peaks at {rss_mib:.0f} MiB RSS "
      f"(limit {limit_mib} MiB)")
PY

echo "roundtrip gate: all checks passed"
