// emx_sweep — crash-tolerant sweeps over emx_run workers.
//
//   $ emx_sweep --apps=sort,bfs --procs-list=4,8 --threads-list=1,2,4
//               --out=out/sweep --jobs=4 --timeout-s=120
//   $ emx_sweep --spec=sweep.json --out=out/sweep
//
// Expands an (app × h × n × P × seed) grid into manifest-keyed jobs and
// submits them to the job core — the state machine emx_serve runs on —
// which drives a bounded pool of emx_run processes with checkpointing
// armed. Killed or hung workers are retried with exponential backoff,
// resuming from their newest checkpoint; every state transition is
// journaled (fsync'd) so a killed sweep can be re-invoked over the same
// --out directory and converge: finished cells come back from the
// result cache, half-done cells resume, and the final aggregate.json is
// byte-identical to an undisturbed run's.
//
// Exit codes: 0 every cell ok; 1 some cells exhausted their retries
// (aggregate.json still written, with failed:<reason> provenance);
// 2 bad input — unknown app/flag, unreadable spec, unwritable --out,
// or journal state from a different sweep (or an older journal format).
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "jobs/sweep.hpp"
#include "snapshot/knobs.hpp"
#include "workloads/registry.hpp"

namespace {

using emx::jobs::SweepSpec;

/// Splits "a,b,c" (empty string → empty list).
std::vector<std::string> split_list(const std::string& csv) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos <= csv.size() && !csv.empty()) {
    const std::size_t comma = csv.find(',', pos);
    out.push_back(csv.substr(
        pos, comma == std::string::npos ? std::string::npos : comma - pos));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

template <typename T>
bool parse_uint_list(const std::string& csv, std::vector<T>& out,
                     const char* flag) {
  out.clear();
  for (const std::string& item : split_list(csv)) {
    char* end = nullptr;
    const unsigned long long v = std::strtoull(item.c_str(), &end, 10);
    if (item.empty() || end == nullptr || *end != '\0') {
      std::fprintf(stderr, "emx_sweep: --%s: '%s' is not a number\n", flag,
                   item.c_str());
      return false;
    }
    out.push_back(static_cast<T>(v));
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  emx::CliFlags flags;
  flags
      .define("spec", "",
              "JSON sweep spec (docs/JOBS.md); grid flags below are "
              "ignored when set")
      .define("apps", "",
              "comma list of apps to sweep (see emx_run --list-apps)")
      .define("procs-list", "16", "comma list of processor counts")
      .define("threads-list", "",
              "comma list of threads/PE; empty = each app's default")
      .define("sizes-per-proc", "",
              "comma list of per-PE problem sizes; empty = app default")
      .define("seeds", "1", "comma list of workload seeds")
      .define("out", "out/sweep",
              "output directory (journal, cache, aggregate); reuse it to "
              "resume a killed sweep")
      .define("emx-run", "",
              "path to the emx_run worker binary (default: next to this "
              "binary)")
      .define("jobs", "2", "max concurrent worker processes")
      .define("retries", "3", "retry budget per cell after the first try")
      .define("timeout-s", "0",
              "per-job wall-clock timeout in seconds; 0 = none. Timed-out "
              "workers are SIGKILLed and resumed from their newest "
              "checkpoint")
      .define("backoff-ms", "250",
              "first retry delay; doubles per attempt up to 8000 ms")
      .define("checkpoint-every", "100000",
              "worker checkpoint period in cycles; 0 disarms resume")
      .define("cache-max-bytes", "0",
              "result-cache size cap with LRU eviction; entries of cells "
              "still running are pinned and never evicted. 0 = no cap")
      .define("dry-run", "false",
              "print the expanded job list and exit without running")
      .define("quiet", "false", "suppress per-job progress on stderr");
  flags.parse(argc, argv);

  SweepSpec spec;
  std::string err;
  if (!flags.str("spec").empty()) {
    if (!SweepSpec::from_file(flags.str("spec"), spec, err)) {
      std::fprintf(stderr, "emx_sweep: %s\n", err.c_str());
      return 2;
    }
  } else {
    spec.apps = split_list(flags.str("apps"));
    if (spec.apps.empty()) {
      std::fprintf(
          stderr,
          "emx_sweep: need --apps or --spec (apps: %s)\n",
          emx::workloads::Registry::instance().name_list().c_str());
      return 2;
    }
    if (!parse_uint_list(flags.str("procs-list"), spec.procs, "procs-list") ||
        !parse_uint_list(flags.str("threads-list"), spec.threads,
                         "threads-list") ||
        !parse_uint_list(flags.str("sizes-per-proc"), spec.sizes_per_proc,
                         "sizes-per-proc") ||
        !parse_uint_list(flags.str("seeds"), spec.seeds, "seeds"))
      return 2;
    spec.base = emx::snapshot::default_recipe();
  }

  if (flags.boolean("dry-run")) {
    std::vector<emx::jobs::JobSpec> jobs;
    if (!spec.expand(jobs, err)) {
      std::fprintf(stderr, "emx_sweep: %s\n", err.c_str());
      return 2;
    }
    for (const auto& job : jobs) {
      std::string line = job.key;
      for (const std::string& f : emx::jobs::worker_flags(job.manifest))
        line += " " + f;
      std::printf("%s\n", line.c_str());
    }
    return 0;
  }

  emx::jobs::SweepOptions opts;
  opts.spec = std::move(spec);
  opts.out_dir = flags.str("out");
  opts.emx_run = flags.str("emx-run");
  if (opts.emx_run.empty()) {
    // Default to the emx_run sitting next to this binary.
    std::string self = argv[0];
    const std::size_t slash = self.rfind('/');
    opts.emx_run =
        (slash == std::string::npos ? std::string(".")
                                    : self.substr(0, slash)) +
        "/emx_run";
  }
  opts.parallel = static_cast<unsigned>(flags.integer("jobs"));
  opts.max_retries = static_cast<unsigned>(flags.integer("retries"));
  opts.timeout_ms = flags.integer("timeout-s") * 1000;
  opts.backoff_ms = flags.integer("backoff-ms");
  opts.checkpoint_every =
      static_cast<std::uint64_t>(flags.integer("checkpoint-every"));
  opts.cache_max_bytes =
      static_cast<std::uint64_t>(flags.integer("cache-max-bytes"));
  opts.quiet = flags.boolean("quiet");
  if (flags.integer("jobs") <= 0 || flags.integer("retries") < 0 ||
      flags.integer("timeout-s") < 0 || flags.integer("backoff-ms") < 0 ||
      flags.integer("checkpoint-every") < 0 ||
      flags.integer("cache-max-bytes") < 0) {
    std::fprintf(stderr,
                 "emx_sweep: --jobs must be >= 1 and --retries/--timeout-s/"
                 "--backoff-ms/--checkpoint-every/--cache-max-bytes must "
                 "be >= 0\n");
    return 2;
  }

  emx::jobs::SweepOutcome outcome;
  const int code = emx::jobs::run_sweep(opts, outcome, err);
  if (code == 2) {
    std::fprintf(stderr, "emx_sweep: %s\n", err.c_str());
    return 2;
  }
  std::size_t cached = 0, resumed = 0;
  for (const auto& cell : outcome.cells) {
    if (cell.status == "cached") ++cached;
    if (cell.status.rfind("resumed:", 0) == 0) ++resumed;
  }
  std::printf("sweep %s: %zu cells — %zu ok (%zu cached, %zu resumed), "
              "%zu failed\n",
              opts.spec.name.c_str(), outcome.cells.size(), outcome.ok,
              cached, resumed, outcome.failed);
  std::printf("aggregate:  %s\nprovenance: %s\n",
              outcome.aggregate_path.c_str(),
              outcome.provenance_path.c_str());
  return code;
}
