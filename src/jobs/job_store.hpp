// Durable job/execution state for the job core (jobs/core.hpp), shared
// by emx_serve and emx_sweep.
//
// Two tables, one journal:
//
//   * JobRecord — what a client (or a sweep cell) submitted: tenant,
//     priority, the run recipe, and its terminal fate. Jobs are what
//     clients name (`j3`).
//   * Exec — a deduplicated unit of work, keyed by the manifest CRC
//     key. Several jobs with byte-identical recipes attach to one Exec;
//     its effective priority is the max over attached jobs, and its
//     result satisfies all of them at once.
//
// Every state transition is journaled (CRC-framed lines, fsync'd before
// the transition is acted on), so a SIGKILL'd daemon or sweep restarted
// over the same --out directory replays the journal and converges: done
// work stays done (validated against the result cache by CRC), running
// work re-queues with its newest checkpoint as the resume point, and
// job IDs keep counting from where they left off.
//
// Dedup order on submit is: live Exec first (attach), then result cache
// (answer immediately, provenance "cached"), then a fresh Exec. The
// journal records which path was taken, so replay needs no guessing.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "jobs/journal.hpp"
#include "jobs/result_cache.hpp"
#include "jobs/scheduler.hpp"
#include "jobs/spec.hpp"

namespace emx::jobs {

/// One submit: who asks, how urgently, and for which keyed recipe.
struct Submission {
  std::string tenant = "default";
  int priority = kMinPriority;  ///< higher preempts lower
  JobSpec job;                  ///< expanded and keyed
  std::string raw_run;          ///< canonical run-object JSON (journaled)
};

struct JobRecord {
  std::string id;  ///< "j<N>", monotone across restarts
  std::string tenant;
  int priority = kMinPriority;
  std::string key;      ///< manifest key (names the Exec)
  std::string raw_run;  ///< canonical run-object JSON (journal replay)

  /// kLive means "see the Exec" — the job's externally visible state
  /// (queued vs running) is derived from it.
  enum class State { kLive, kDone, kFailed, kCanceled } state = State::kLive;
  std::string status;        ///< "" while live; "ok"|"resumed:k"|"cached"|
                             ///< "failed:<r>"|"canceled" once terminal
  std::string result_bytes;  ///< blessed result line once done
};

struct Exec {
  std::string key;
  JobSpec job;
  enum class State { kQueued, kRunning, kDone, kFailed } state = State::kQueued;
  std::vector<std::string> job_ids;  ///< attached live jobs
  std::uint64_t seq = 0;             ///< admission order
  std::string tenant;  ///< fair-share owner: tenant of the first attach

  unsigned attempts = 0;  ///< worker starts
  unsigned resumes = 0;   ///< starts that passed --resume
  unsigned preempts = 0;  ///< preemption kills (free retries)
  std::string resume_path;
  std::int64_t ready_at = 0;  ///< backoff gate for the next start
  std::string result_bytes;

  // Runtime only (never journaled): the preemption kill was sent,
  // so the dying worker is not picked as a victim again before it is
  // reaped.
  bool preempt_pending = false;

  std::string dir;            ///< <out>/jobs/<key>
  std::string ck_dir;         ///< <out>/jobs/<key>/ck
  std::string result_path;    ///< <out>/jobs/<key>/result.json
  std::string progress_path;  ///< <out>/jobs/<key>/progress.jsonl

  /// Provenance token for a successful finish: "ok" or "resumed:<k>".
  std::string success_status() const {
    return resumes > 0 ? "resumed:" + std::to_string(resumes) : "ok";
  }
};

class JobStore {
 public:
  /// Prepares <out_dir>/{jobs,cache,journal.jsonl}, replays any
  /// existing journal (torn tail tolerated, interior damage refused)
  /// and opens the result cache with `cache_max_bytes` (0 = no cap).
  /// `header` (event plus raw_fields) is the journal's first line: it is
  /// written into a fresh journal, and an existing journal whose first
  /// line differs is refused — it belongs to another journal format or
  /// another sweep.
  bool open(const std::string& out_dir, std::uint64_t cache_max_bytes,
            const JournalEntry& header, std::string& err);

  /// Admits one submit. On return `job` points at the (new) record —
  /// terminal already when the cache satisfied it. Returns false only
  /// on journal/cache write failure (fatal to the caller).
  bool submit(const Submission& sub, JobRecord*& job, std::string& err);

  /// Cancels a live job. `found`/`was_live` report what happened;
  /// `killed_key` is set to the Exec key when the cancel emptied a
  /// RUNNING exec — the core must kill that worker and then call
  /// drop_exec() once it is reaped. Returns false on journal failure.
  bool cancel(const std::string& id, bool& found, bool& was_live,
              std::string& killed_key, std::string& err);

  // --- exec transitions (journal first, mutate second) ---
  bool record_start(Exec& e, bool resuming, std::string& err);
  bool record_done(Exec& e, const std::string& bytes, std::string& err);
  bool record_fail(Exec& e, const std::string& reason, std::string& err);
  bool record_preempt(Exec& e, std::string& err);
  bool record_give_up(Exec& e, const std::string& reason, std::string& err);

  /// Forgets an exec whose last job was canceled (after any worker
  /// kill). No journal event: replaying submit+cancel converges to the
  /// same absence.
  void drop_exec(const std::string& key);

  JobRecord* find_job(const std::string& id);
  Exec* find_exec(const std::string& key);
  std::map<std::string, Exec>& execs() { return execs_; }
  const std::map<std::string, JobRecord>& jobs() const { return jobs_; }
  TenantTable& tenants() { return tenants_; }
  ResultCache& cache() { return cache_; }

  /// Max priority over the exec's attached live jobs (its scheduling
  /// priority); kMinPriority when none are attached.
  int effective_priority(const Exec& e) const;

  bool all_terminal() const;

  /// Rewrites the journal down to submits plus terminal facts — called
  /// once everything is terminal (a clean drain, a finished sweep), when
  /// the attempt history is all redundant. With `drop_cached_reruns`
  /// it also drops every job the result cache answered for a key the
  /// journal already records as done: such a submit + cached pair only
  /// restates that done line. The sweep passes it, as it re-submits
  /// every cell on each invocation and never names a job by id; the
  /// daemon does not, as `status` must still find every job after a
  /// restart.
  bool compact(bool drop_cached_reruns, std::string& err);

 private:
  bool replay(const std::vector<JournalEntry>& entries, std::string& err);
  void attach(Exec& e, JobRecord& job);
  /// Detaches `id`; erases the exec when that left it empty and
  /// non-terminal. Returns true when the erased exec was running.
  bool detach(const std::string& key, const std::string& id,
              std::string* killed_key);
  void finish_jobs(Exec& e, JobRecord::State state,
                   const std::string& status);
  Exec& make_exec(const JobSpec& job);

  std::string out_dir_;
  Journal journal_;
  ResultCache cache_;
  TenantTable tenants_;
  std::map<std::string, JobRecord> jobs_;
  std::map<std::string, Exec> execs_;
  std::uint64_t next_job_ = 1;
  std::uint64_t next_seq_ = 1;
};

}  // namespace emx::jobs
