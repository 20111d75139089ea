// The job core: the one state machine that drives emx_run workers.
//
// emx_serve and emx_sweep are front ends over it. The daemon feeds it
// submits from a socket; the sweep submits every grid cell as tenant
// "sweep" at priority 0, which makes admission FIFO in expansion order.
// Either way the core owns the same loop:
//
//   schedule   admit queued execs into free worker slots (priority,
//              then fair share, then admission order — jobs/scheduler),
//              and SIGKILL strictly lower-priority running work when
//              every slot is busy and higher-priority work waits
//   reap       classify each worker exit and journal the verdict through
//              the JobStore before acting on it
//
// Failure policy, keyed off emx_run's exit-code contract:
//
//   exit 0                     ok — result audited, blessed into the
//                              cache, the exec's checkpoints removed
//   exit 1,2,3,4 (and 127+)    permanent: deterministic verdicts (wrong
//                              result, bad input, checker, simulated-
//                              cycle watchdog) that a retry would only
//                              reproduce
//   exit 5                     retry from scratch: the checkpoint chain
//                              itself is suspect, so clear it first
//   signal / wall timeout      retry with --resume from the newest
//                              checkpoint, exponential backoff between
//                              attempts
//   preemption kill            re-queue at once, resuming from the newest
//                              checkpoint, with no retry spent
//
// Output directory layout (both front ends):
//
//   journal.jsonl        append-only state log (jobs/journal.hpp); its
//                        first line names the front end and job set
//   cache/<key>.json     blessed results; dedupes identical recipes
//                        across jobs, sweeps and restarts
//   jobs/<key>/          per-exec scratch: ck/ checkpoints (removed on
//                        success; crash dumps of failed runs stay),
//                        attempt stdout/stderr captures, unblessed
//                        result.json, progress.jsonl
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "jobs/clock.hpp"
#include "jobs/job_store.hpp"
#include "jobs/process_pool.hpp"

namespace emx::jobs {

struct CoreOptions {
  std::string out_dir;
  std::string emx_run;  ///< path to the worker binary

  unsigned parallel = 2;        ///< worker slots
  unsigned max_retries = 3;     ///< non-preemption retries per exec
  unsigned max_per_tenant = 0;  ///< running execs per tenant; 0 = no cap
  std::int64_t timeout_ms = 0;  ///< per-attempt wall clock; 0 = none
  std::int64_t backoff_ms = 250;  ///< first retry delay
  std::int64_t backoff_max_ms = 8000;
  std::uint64_t checkpoint_every = 100000;  ///< cycles; 0 disarms
  std::uint64_t progress_every = 0;  ///< cycles; 0 = no progress files
  std::uint64_t cache_max_bytes = 0;  ///< result-cache LRU cap; 0 = none
  bool quiet = false;
  Clock* clock = nullptr;  ///< nullptr = real_clock()
};

class Core {
 public:
  explicit Core(const CoreOptions& opts);

  /// Refuses unusable options (no worker slots, a worker binary that is
  /// not executable), then opens the JobStore under opts.out_dir with
  /// `header` as the journal's identity line. False with `err` on any
  /// refusal.
  bool open(const JournalEntry& header, std::string& err);

  /// One loop turn: admission and preemption, then every reaped worker
  /// through the failure policy. `progressed` reports whether a worker
  /// started or exited. False only on a journal or cache write failure.
  bool step(bool& progressed, std::string& err);

  /// Cancels a live job, killing its worker when the cancel emptied a
  /// running exec. Returns false on journal failure.
  bool cancel(const std::string& id, bool& found, bool& was_live,
              std::string& err);

  /// Every exec terminal and no worker left to reap.
  bool idle() const { return store_.all_terminal() && pool_.running() == 0; }

  JobStore& store() { return store_; }
  Clock& clock() { return clock_; }

 private:
  bool start_exec(Exec& e, std::string& err);
  bool schedule(std::string& err);
  bool handle_exit(const ExitStatus& es, std::string& err);
  std::vector<ExecView> views(Exec::State state, std::int64_t now);
  void note(const std::string& line);

  const CoreOptions& opts_;
  Clock& clock_;
  JobStore store_;
  ProcessPool pool_;
  std::string tool_;  ///< "emx_<header event>", the prefix of notes
  std::map<std::uint64_t, std::string> tag_key_;  ///< pool tag → exec key
  std::map<std::string, std::uint64_t> key_tag_;
  std::uint64_t next_tag_ = 1;
};

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
/// "unparseable-result" | "result-reports-failure").
std::string audit_result(const std::string& result_path, std::string& bytes);

}  // namespace emx::jobs
