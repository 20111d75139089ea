#!/usr/bin/env bash
# Serve-daemon chaos gate: push a mixed-priority, multi-tenant batch
# through emx_serve while a killer loop SIGKILLs random workers, then
# SIGKILL the daemon itself mid-flight, restart it over the same state
# directory and let it drain. Every job must finish with a result
# byte-identical to a clean serial emx_run of the same recipe (cmp, not
# diff: the claim is bytes), and a post-drain resubmit must come back
# `cached` — proof the dedup path against the result cache fires. A
# `resumed:` provenance token shows the periodic-checkpoint resume path
# carried jobs across preemptions and kills.
#
# Usage: scripts/ci_serve_chaos.sh [emx_serve] [emx_client] [emx_run]
set -euo pipefail

SERVE=${1:-./build/tools/emx_serve}
CLIENT=${2:-./build/tools/emx_client}
RUN=${3:-./build/tools/emx_run}
work=$(mktemp -d)
trap 'rm -rf "$work"; pkill -9 -f "emx_serve .*$work" 2>/dev/null || true' EXIT

SOCK="$work/emx.sock"
OUT="$work/out"
# Low checkpoint period + generous retries + tiny backoff: even short
# jobs write several checkpoints for the resume path, and the killer
# loop cannot exhaust anyone's budget.
DAEMON=("$SERVE" --socket="$SOCK" --out="$OUT" --jobs=2 --retries=10
        --backoff-ms=1 --checkpoint-every=500 --progress-every=500
        --quiet=true)

# The batch: 8 distinct recipes, two tenants, priorities spread 0..9.
# Kept small so the gate stays fast; the chaos, not the workload, is
# the point.
APPS=(sort bfs sort bfs sort bfs sort bfs)
PROCS=(4 4 8 8 4 4 8 8)
SIZES=(256 256 256 256 512 512 512 512)
SEEDS=(1 1 1 1 2 2 2 2)
PRIOS=(1 9 3 7 5 0 8 2)
TENANTS=(alice bob alice bob bob alice bob alice)
N=8

wait_for_socket() {
  # A stale socket file from a SIGKILLed daemon still exists, so probe
  # with a real round-trip, not a file test.
  for _ in $(seq 1 200); do
    "$CLIENT" list --socket="$SOCK" > /dev/null 2>&1 && return 0
    sleep 0.05
  done
  echo "FAIL: daemon never answered on its socket" >&2
  exit 1
}

echo "== phase 1: daemon under fire =="
"${DAEMON[@]}" &
daemon=$!
wait_for_socket

for i in $(seq 0 $((N - 1))); do
  "$CLIENT" submit --socket="$SOCK" \
    --app="${APPS[$i]}" --procs="${PROCS[$i]}" --threads=2 \
    --size-per-proc="${SIZES[$i]}" --seed="${SEEDS[$i]}" \
    --priority="${PRIOS[$i]}" --tenant="${TENANTS[$i]}" > /dev/null
done

# Killer loop: every few ms, SIGKILL one random live emx_run worker
# spawned under this daemon's state directory.
kill_workers() {
  while [ ! -e "$work/stop-killing" ]; do
    victim=$(pgrep -f "emx_run .*$OUT" | shuf -n 1 || true)
    [ -n "$victim" ] && kill -9 "$victim" 2>/dev/null || true
    sleep 0.03
  done
}
kill_workers &
killer=$!

sleep 1.2
echo "== phase 2: SIGKILL the daemon mid-flight =="
kill -9 "$daemon" 2>/dev/null || true
wait "$daemon" 2>/dev/null || true
# Orphaned workers keep running once the daemon dies; reap them so the
# restarted daemon owns the directory alone.
pkill -9 -f "emx_run .*$OUT" 2>/dev/null || true
touch "$work/stop-killing"
wait "$killer" 2>/dev/null || true
sleep 0.1

echo "== phase 3: restart over the same state directory and drain =="
"${DAEMON[@]}" &
daemon=$!
wait_for_socket
"$CLIENT" drain --socket="$SOCK" --wait=true > /dev/null
wait "$daemon" \
  || { echo "FAIL: restarted daemon did not drain cleanly" >&2; exit 1; }

echo "== phase 4: verify every result against a clean serial run =="
"${DAEMON[@]}" &
daemon=$!
wait_for_socket

resumed=0
for i in $(seq 0 $((N - 1))); do
  id="j$((i + 1))"
  "$CLIENT" result --socket="$SOCK" --id="$id" > "$work/served-$id.json" \
    || { echo "FAIL: $id has no result" >&2; exit 1; }
  "$RUN" --app="${APPS[$i]}" --procs="${PROCS[$i]}" --threads=2 \
    --size-per-proc="${SIZES[$i]}" --seed="${SEEDS[$i]}" \
    --result-json="$work/ref-$id.json" > /dev/null
  cmp "$work/served-$id.json" "$work/ref-$id.json" \
    || { echo "FAIL: $id result differs from the clean run" >&2; exit 1; }
  status=$("$CLIENT" status --socket="$SOCK" --id="$id")
  case "$status" in
    *'"status":"resumed:'*) resumed=$((resumed + 1)) ;;
  esac
done
echo "ok: all $N results byte-identical to clean serial runs"

# Resubmitting a finished recipe must be answered from the result cache
# without running anything: provenance `cached`.
cached=$("$CLIENT" submit --socket="$SOCK" \
  --app="${APPS[0]}" --procs="${PROCS[0]}" --threads=2 \
  --size-per-proc="${SIZES[0]}" --seed="${SEEDS[0]}")
case "$cached" in
  *'"status":"cached"'*) echo "ok: resubmit answered from the cache" ;;
  *) echo "FAIL: resubmit was not cached: $cached" >&2; exit 1 ;;
esac

if [ "$resumed" -gt 0 ]; then
  echo "ok: $resumed job(s) carried across kills via checkpoint resume"
else
  echo "WARN: no job resumed from a checkpoint this round (all attempts" \
       "either survived or restarted from scratch)"
fi

"$CLIENT" drain --socket="$SOCK" --wait=true > /dev/null
wait "$daemon" 2>/dev/null || true
echo "serve-chaos gate: all checks passed"
