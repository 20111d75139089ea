// The emx_serve daemon: a long-lived, multi-tenant simulation-job
// server over a Unix-domain socket.
//
// One single-threaded event loop owns everything: accepting
// connections, parsing newline-delimited JSON requests
// (serve/protocol.hpp), admitting jobs through the fair-share scheduler
// (serve/scheduler.hpp), driving workers through the same ProcessPool
// and exit-code policy as emx_sweep, and streaming `watch` progress
// from the workers' CRC-framed progress files. Single-threaded is a
// feature: every decision is serialized against the journal write that
// records it, so the crash story stays the supervisor's — journal
// first, act second, converge on restart.
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

#include <cstdint>
#include <string>

#include "jobs/clock.hpp"

namespace emx::serve {

struct DaemonOptions {
  std::string socket_path;
  std::string out_dir;
  std::string emx_run;  ///< worker binary

  unsigned parallel = 2;        ///< worker slots
  unsigned max_retries = 3;     ///< non-preemption retries per exec
  unsigned max_per_tenant = 0;  ///< running execs per tenant; 0 = no cap
  std::int64_t timeout_ms = 0;  ///< per-attempt wall clock; 0 = none
  std::int64_t backoff_ms = 250;
  std::int64_t backoff_max_ms = 8000;
  std::uint64_t checkpoint_every = 100000;  ///< cycles; 0 disarms
  std::uint64_t progress_every = 50000;     ///< cycles; 0 disarms watch
  std::uint64_t cache_max_bytes = 0;        ///< result-cache cap; 0 = none
  bool quiet = false;
  jobs::Clock* clock = nullptr;  ///< nullptr = real_clock()
};

/// Runs the daemon until a `drain` request has been honored (all work
/// terminal) or SIGTERM/SIGINT arrives. Returns 0 on a clean exit, 2
/// when setup is refused (bad socket path, damaged journal, unwritable
/// output directory).
int run_daemon(const DaemonOptions& opts, std::string& err);

}  // namespace emx::serve
