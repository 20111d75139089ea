#!/usr/bin/env bash
# Layering check: the core simulation layers must not reach upward into
# the tooling layers.
#
#   lower  src/common src/sim src/network src/proc src/runtime
#   upper  src/snapshot src/analysis src/fault
#
# No file in a lower layer may DIRECTLY include an upper-layer header.
# (core/, trace/, isa/, apps/, model/ sit above both and are
# unrestricted; transitive includes are by construction impossible once
# no direct edge exists.) The dependency inversions this enforces are the
# hook interfaces: proc/channel_hooks.hpp (implemented by
# fault::ReliableChannel) and runtime/check_hooks.hpp (implemented by
# analysis::CheckContext).
set -euo pipefail
cd "$(dirname "$0")/.."

lower="src/common src/sim src/network src/proc src/runtime"
pattern='^[[:space:]]*#[[:space:]]*include[[:space:]]*"(snapshot|analysis|fault)/'

violations=$(grep -rnE "$pattern" $lower || true)
if [[ -n "$violations" ]]; then
  echo "layering violation: core layers (common/sim/network/proc/runtime)"
  echo "must not include snapshot/, analysis/ or fault/ headers:"
  echo
  echo "$violations"
  echo
  echo "Invert the dependency through a hook interface instead"
  echo "(see proc/channel_hooks.hpp and runtime/check_hooks.hpp)."
  exit 1
fi
echo "layering OK: no core-layer file includes snapshot/, analysis/ or fault/ headers"

# Workload plugins sit at the very top of src/: they may use the machine,
# runtime and app helpers, but nothing below them may know they exist —
# the registry is the only way in. The snapshot runner is the one
# sanctioned consumer (it builds workloads from manifests).
below_workloads="src/common src/sim src/network src/proc src/runtime \
src/core src/apps src/model src/isa src/trace src/fault src/analysis \
src/snapshot"
wl_pattern='^[[:space:]]*#[[:space:]]*include[[:space:]]*"workloads/'
violations=$(grep -rnE "$wl_pattern" $below_workloads \
  | grep -v '^src/snapshot/runner\.cpp:' || true)
if [[ -n "$violations" ]]; then
  echo "layering violation: only the snapshot runner may include"
  echo "workloads/ headers — everything else below src/workloads must"
  echo "stay ignorant of the plugin layer:"
  echo
  echo "$violations"
  echo
  echo "Register the workload and reach it through workloads::Registry."
  exit 1
fi

# And the plugins themselves must not reach sideways into the tooling
# layers: a workload is built *by* the snapshot runner and observed *by*
# analysis — depending on either would invert that relationship.
wl_up_pattern='^[[:space:]]*#[[:space:]]*include[[:space:]]*"(snapshot|analysis|fault)/'
violations=$(grep -rnE "$wl_up_pattern" src/workloads || true)
if [[ -n "$violations" ]]; then
  echo "layering violation: src/workloads must not include snapshot/,"
  echo "analysis/ or fault/ headers:"
  echo
  echo "$violations"
  exit 1
fi
echo "layering OK: workloads/ is included only by the snapshot runner and stays below the tooling layers"

# The static verifier reads isa::Program and nothing else: verify/ may
# include only isa/ and common/ (besides its own headers). Anything more
# would let "static" analysis grow runtime dependencies.
v_down_pattern='^[[:space:]]*#[[:space:]]*include[[:space:]]*"(sim|network|proc|runtime|core|apps|model|trace|fault|analysis|snapshot|workloads)/'
violations=$(grep -rnE "$v_down_pattern" src/verify || true)
if [[ -n "$violations" ]]; then
  echo "layering violation: src/verify may include only isa/, common/ and"
  echo "its own headers — it analyses programs, it does not run them:"
  echo
  echo "$violations"
  exit 1
fi

# And nothing else in src/ may know the verifier exists: it serves the
# standalone emx_verify tool (and tests), never the run path.
v_up_pattern='^[[:space:]]*#[[:space:]]*include[[:space:]]*"verify/'
violations=$(grep -rnE "$v_up_pattern" src | grep -v '^src/verify/' || true)
if [[ -n "$violations" ]]; then
  echo "layering violation: nothing in src/ outside src/verify may include"
  echo "verify/ headers — static verification is a tool, not a run-path"
  echo "dependency:"
  echo
  echo "$violations"
  exit 1
fi
echo "layering OK: verify/ sees only isa/ + common/, and nothing else in src/ sees verify/"

# The job engine orchestrates emx_run *processes*; inside src/ it may
# read recipes (snapshot/ manifests), registry defaults (workloads/) and
# common/ utilities — never the machine layers, which would tempt it to
# run cells in-process and lose the crash-isolation the fork/exec
# boundary provides. It holds the one job state machine (jobs/core) that
# both emx_sweep and emx_serve drive; inside src/ only serve/ builds on
# it.
j_down_pattern='^[[:space:]]*#[[:space:]]*include[[:space:]]*"(sim|network|proc|runtime|core|apps|model|isa|trace|fault|analysis|verify)/'
violations=$(grep -rnE "$j_down_pattern" src/jobs || true)
if [[ -n "$violations" ]]; then
  echo "layering violation: src/jobs may include only common/, snapshot/,"
  echo "workloads/ and its own headers — cells run in worker processes,"
  echo "never in the sweep or the daemon:"
  echo
  echo "$violations"
  exit 1
fi
j_up_pattern='^[[:space:]]*#[[:space:]]*include[[:space:]]*"jobs/'
violations=$(grep -rnE "$j_up_pattern" src \
  | grep -v '^src/jobs/' \
  | grep -v '^src/serve/' || true)
if [[ -n "$violations" ]]; then
  echo "layering violation: nothing in src/ outside src/jobs and"
  echo "src/serve may include jobs/ headers — the job engine is consumed"
  echo "by the serve front end and the tools only:"
  echo
  echo "$violations"
  exit 1
fi
echo "layering OK: jobs/ sees only common/ + snapshot/ + workloads/, and only serve/ sees jobs/"

# One job state machine: the worker pool is driven by jobs/core alone.
# Any other src/ file that includes the pool would be growing a second
# start/reap/retry loop beside it — submit to the core instead. (Tests
# are outside src/ and may drive the pool directly.)
pp_pattern='^[[:space:]]*#[[:space:]]*include[[:space:]]*"jobs/process_pool\.hpp"'
violations=$(grep -rnE "$pp_pattern" src \
  | grep -vE '^src/jobs/(core|process_pool)\.(hpp|cpp):' || true)
if [[ -n "$violations" ]]; then
  echo "layering violation: inside src/ only jobs/core may include"
  echo "jobs/process_pool.hpp — it is the one state machine that starts"
  echo "and reaps workers:"
  echo
  echo "$violations"
  exit 1
fi
echo "layering OK: only jobs/core drives the worker pool"

# The serve layer is the daemon's socket front end over the job core:
# the protocol, connections, request handling and `watch`. It may use
# jobs/ (the core, specs), snapshot/ (progress records), workloads/ (via
# specs) and common/ — never the machine layers, for the same
# crash-isolation reason as jobs/. And nothing in src/ may include
# serve/: it is consumed only by emx_serve and emx_client.
s_down_pattern='^[[:space:]]*#[[:space:]]*include[[:space:]]*"(sim|network|proc|runtime|core|apps|model|isa|trace|fault|analysis|verify)/'
violations=$(grep -rnE "$s_down_pattern" src/serve || true)
if [[ -n "$violations" ]]; then
  echo "layering violation: src/serve may include only common/, jobs/,"
  echo "snapshot/, workloads/ and its own headers — simulations run in"
  echo "worker processes, never in the daemon:"
  echo
  echo "$violations"
  exit 1
fi
s_up_pattern='^[[:space:]]*#[[:space:]]*include[[:space:]]*"serve/'
violations=$(grep -rnE "$s_up_pattern" src \
  | grep -v '^src/serve/' || true)
if [[ -n "$violations" ]]; then
  echo "layering violation: nothing in src/ outside src/serve may include"
  echo "serve/ headers — the daemon layer is consumed by tools only:"
  echo
  echo "$violations"
  exit 1
fi
echo "layering OK: serve/ sees only common/ + jobs/ + snapshot/ + workloads/, and src/ does not see serve/"

# One knob table: the run-recipe knobs are named in src/snapshot/knobs.*
# and nowhere else in src/, tools/ or bench/. A second place that spells
# a knob's name as a string literal is a second copy of its vocabulary —
# walk the table (snapshot::knobs(), define_flags, apply_flags) instead.
# The names are read from the table itself: the hyphenated ones of every
# non-coordinate knob, plus the emx_run-only kFaultOutageFlag. The
# coordinates (app, procs, size-per-proc, threads, seed) are grid axes
# that benches and emx_client define as their own flags, and one-word
# names such as "network" or "check" are ordinary words elsewhere.
knob_names=$( (grep -oE '^[[:space:]]*\{"[a-z]+(-[a-z]+)+", R::k(Pinned|Knob)' \
                 src/snapshot/knobs.cpp
               grep -oE 'kFaultOutageFlag = "[a-z-]+"' src/snapshot/knobs.hpp) \
             | grep -oE '"[a-z-]+"' | sort -u)
if [[ $(wc -l <<<"$knob_names") -lt 10 ]]; then
  echo "layering check broken: found too few knob names in src/snapshot/knobs.*"
  exit 1
fi
knob_pattern=$(paste -sd'|' <<<"$knob_names")
violations=$(grep -rnE "$knob_pattern" src tools bench \
  | grep -vE '^src/snapshot/knobs\.(hpp|cpp):' || true)
if [[ -n "$violations" ]]; then
  echo "layering violation: knob names may be spelled only in the knob"
  echo "table (src/snapshot/knobs.{hpp,cpp}):"
  echo
  echo "$violations"
  exit 1
fi
echo "layering OK: the $(wc -l <<<"$knob_names") hyphenated knob names are spelled only in the knob table"
