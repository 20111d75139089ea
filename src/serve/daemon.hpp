// The emx_serve daemon: a long-lived, multi-tenant simulation-job
// server over a Unix-domain socket.
//
// One single-threaded event loop owns everything: accepting
// connections, parsing newline-delimited JSON requests
// (serve/protocol.hpp), stepping the job core (jobs/core.hpp) — the same
// admission, worker and exit-code state machine emx_sweep runs on — and
// streaming `watch` progress from the workers' CRC-framed progress
// files. Single-threaded is a feature: every decision is serialized
// against the journal write that records it, so the crash story is the
// core's — journal first, act second, converge on restart.
//
// Preemption is a kill: when higher-priority work is queued and every
// slot is busy, the lowest-priority running worker is SIGKILLed at once
// and its exec re-queued, with no retry spent, to resume from its
// newest periodic checkpoint (or from scratch when it has none). A
// restore re-executes from cycle 0 anyway, so an on-demand checkpoint
// would save the victim no work. Checkpoint writes are atomic, so a
// kill racing one costs at most one interval of re-execution, never a
// torn resume point.
#pragma once

#include <string>

#include "jobs/core.hpp"

namespace emx::serve {

/// The core's options plus the socket. progress_every > 0 arms `watch`.
struct DaemonOptions : jobs::CoreOptions {
  std::string socket_path;
};

/// Runs the daemon until a `drain` request has been honored (all work
/// terminal) or SIGTERM/SIGINT arrives. Returns 0 on a clean exit, 2
/// when setup is refused (bad socket path, damaged journal, unwritable
/// output directory).
int run_daemon(const DaemonOptions& opts, std::string& err);

}  // namespace emx::serve
