// The crash-tolerant sweep supervisor.
//
// run_sweep() expands a SweepSpec into manifest-keyed jobs and drives
// them through a bounded ProcessPool of emx_run workers, journaling
// every state transition (fsync'd before it is acted on) so that a
// supervisor killed at any instant can be re-invoked over the same
// output directory and converge to the same aggregate — byte-identical,
// which is exactly what scripts/ci_sweep_chaos.sh asserts.
//
// Failure policy, keyed off emx_run's exit-code contract:
//
//   exit 0                     ok — result validated, blessed into cache
//   exit 1,2,3,4,6 (and 127+)  permanent: deterministic verdicts (wrong
//                              result, bad input, checker, simulated-
//                              cycle watchdog, static verify) that a
//                              retry would only reproduce
//   exit 5                     retry from scratch: the checkpoint chain
//                              itself is suspect, so clear it first
//   signal / wall timeout      retry with --resume from the newest
//                              checkpoint, exponential backoff between
//                              attempts
//
// Output directory layout:
//
//   journal.jsonl        append-only state log (jobs/journal.hpp)
//   cache/<key>.json     supervisor-blessed results; dedupes identical
//                        cells across invocations ("cached" provenance)
//   jobs/<key>/          per-job scratch: ck/ checkpoints, attempt
//                        stdout/stderr captures, unblessed result.json
//   aggregate.json       figure-ready cells, deterministic bytes
//   provenance.json      how each cell got there: ok | resumed:k |
//                        cached | failed:<reason>, attempt counts
//
// The aggregate/provenance split is deliberate: the aggregate carries
// only run *results* (deterministic by the simulator's resume
// guarantee), so chaos can be detected by `cmp`; everything scheduling-
// dependent — retries, resumes, cache hits — lives in the provenance
// file beside it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "jobs/clock.hpp"
#include "jobs/process_pool.hpp"
#include "jobs/spec.hpp"

namespace emx::jobs {

struct SupervisorOptions {
  SweepSpec spec;
  std::string out_dir;
  std::string emx_run;  ///< path to the worker binary

  unsigned parallel = 2;     ///< worker process cap
  unsigned max_retries = 3;  ///< retries after the first attempt
  std::int64_t timeout_ms = 0;       ///< per-job wall clock; 0 = none
  std::int64_t backoff_ms = 250;     ///< first retry delay
  std::int64_t backoff_max_ms = 8000;
  std::uint64_t checkpoint_every = 100000;  ///< cycles; 0 disarms
  std::uint64_t cache_max_bytes = 0;  ///< result-cache LRU cap; 0 = none
  bool keep_checkpoints = false;  ///< keep jobs/<key>/ck after success
  bool quiet = false;
  Clock* clock = nullptr;  ///< nullptr = real_clock()
};

/// How one grid cell ended up.
struct CellOutcome {
  std::string key;
  std::string status;  ///< "ok" | "resumed:<k>" | "cached" | "failed:<why>"
  unsigned attempts = 0;
  unsigned resumes = 0;
  std::string result_bytes;  ///< blessed result JSON line; "" when failed
};

struct SweepOutcome {
  std::vector<CellOutcome> cells;  ///< expansion order
  std::size_t ok = 0;              ///< includes resumed and cached cells
  std::size_t failed = 0;
  std::string aggregate_path;
  std::string provenance_path;
};

/// Runs the sweep to completion. Returns the supervisor exit code:
/// 0 every cell ok, 1 some cells failed (aggregate still written, with
/// per-cell provenance), 2 setup refused (bad spec, unwritable output
/// directory, journal from a different sweep, damaged journal).
int run_sweep(const SupervisorOptions& opts, SweepOutcome& out,
              std::string& err);

// --- policy pieces, exposed for unit tests ---

enum class ExitClass {
  kOk,
  kPermanent,     ///< deterministic verdict; retrying reproduces it
  kRetryScratch,  ///< retry, but clear the checkpoint chain first
  kRetryResume,   ///< retry with --resume from the newest checkpoint
};

ExitClass classify_exit(const ExitStatus& es);

/// Stable reason token for journals/provenance: "checker", "watchdog",
/// "signal-9", "timeout", "exit-42", ...
std::string exit_reason(const ExitStatus& es);

/// attempt >= 1; base * 2^(attempt-1), clamped to [base, cap].
std::int64_t backoff_delay_ms(unsigned attempt, std::int64_t base,
                              std::int64_t cap);

/// Newest "<app>-c*.emxsnap" under `ck_dir` ("" when none). Crash dumps
/// ("crash-<app>.emxsnap") are never resume candidates.
std::string latest_checkpoint(const std::string& ck_dir,
                              const std::string& app);

/// The three-step result audit applied before a worker's exit-0 is
/// believed: the file must exist, parse as a JSON object, and carry an
/// embedded exit_code of 0. Returns "" with `bytes` filled on success,
/// else the retryable reason token ("no-result-file" |
/// "unparseable-result" | "result-reports-failure"). Shared with the
/// emx_serve daemon, which applies the same policy per job.
std::string audit_result(const std::string& result_path, std::string& bytes);

}  // namespace emx::jobs
