// emx_serve — multi-tenant simulation-job daemon over a Unix socket.
//
//   $ emx_serve --socket=/tmp/emx.sock --out=out/serve --jobs=2 &
//   $ emx_client submit --socket=/tmp/emx.sock --app=sort --priority=7
//
// Accepts newline-delimited JSON requests (submit/status/list/cancel/
// watch/drain — docs/SERVE.md) and schedules them onto a bounded pool
// of emx_run workers with per-tenant fair share. Higher-priority
// submissions preempt running lower-priority work by SIGKILLing its
// worker; victims resume from their newest periodic checkpoint (or from
// scratch) with no retry budget spent. Identical
// run recipes deduplicate against in-flight work and the result cache.
// Every transition is journaled, so a SIGKILLed daemon restarted over
// the same --out directory converges — queued work stays queued, done
// work stays done, running work resumes from its newest checkpoint.
//
// Exit codes: 0 clean exit (drain honored or SIGTERM/SIGINT); 2 setup
// or journal-write failure (bad socket path, unwritable --out, damaged
// journal).
#include <cstdio>
#include <string>

#include "common/cli.hpp"
#include "serve/daemon.hpp"

int main(int argc, char** argv) {
  emx::CliFlags flags;
  flags
      .define("socket", "", "Unix-domain socket path to listen on (required)")
      .define("out", "out/serve",
              "state directory (journal, cache, per-job scratch); reuse it "
              "to restart the daemon with its jobs intact")
      .define("emx-run", "",
              "path to the emx_run worker binary (default: next to this "
              "binary)")
      .define("jobs", "2", "max concurrent worker processes")
      .define("retries", "3",
              "retry budget per execution after the first try (preemptions "
              "are free)")
      .define("max-per-tenant", "0",
              "max running executions per tenant; 0 = no cap")
      .define("timeout-s", "0",
              "per-attempt wall-clock timeout in seconds; 0 = none")
      .define("backoff-ms", "250",
              "first retry delay; doubles per attempt up to 8000 ms")
      .define("checkpoint-every", "100000",
              "worker checkpoint period in cycles; 0 = none; a preempted "
              "or crashed worker restarts from scratch")
      .define("progress-every", "50000",
              "worker progress-record period in cycles (feeds `watch`); "
              "0 disarms")
      .define("cache-max-bytes", "0",
              "result-cache size cap with LRU eviction; entries live jobs "
              "reference are pinned and never evicted. 0 = no cap")
      .define("quiet", "false", "suppress per-job progress on stderr");
  flags.parse(argc, argv);

  emx::serve::DaemonOptions opts;
  opts.socket_path = flags.str("socket");
  opts.out_dir = flags.str("out");
  opts.emx_run = flags.str("emx-run");
  if (opts.emx_run.empty()) {
    std::string self = argv[0];
    const std::size_t slash = self.rfind('/');
    opts.emx_run =
        (slash == std::string::npos ? std::string(".")
                                    : self.substr(0, slash)) +
        "/emx_run";
  }
  opts.parallel = static_cast<unsigned>(flags.integer("jobs"));
  opts.max_retries = static_cast<unsigned>(flags.integer("retries"));
  opts.max_per_tenant =
      static_cast<unsigned>(flags.integer("max-per-tenant"));
  opts.timeout_ms = flags.integer("timeout-s") * 1000;
  opts.backoff_ms = flags.integer("backoff-ms");
  opts.checkpoint_every =
      static_cast<std::uint64_t>(flags.integer("checkpoint-every"));
  opts.progress_every =
      static_cast<std::uint64_t>(flags.integer("progress-every"));
  opts.cache_max_bytes =
      static_cast<std::uint64_t>(flags.integer("cache-max-bytes"));
  opts.quiet = flags.boolean("quiet");
  if (flags.integer("jobs") <= 0 || flags.integer("retries") < 0 ||
      flags.integer("max-per-tenant") < 0 || flags.integer("timeout-s") < 0 ||
      flags.integer("backoff-ms") < 0 ||
      flags.integer("checkpoint-every") < 0 ||
      flags.integer("progress-every") < 0 ||
      flags.integer("cache-max-bytes") < 0) {
    std::fprintf(stderr,
                 "emx_serve: --jobs must be >= 1 and every other numeric "
                 "flag must be >= 0\n");
    return 2;
  }

  std::string err;
  const int code = emx::serve::run_daemon(opts, err);
  if (code != 0) std::fprintf(stderr, "emx_serve: %s\n", err.c_str());
  return code;
}
