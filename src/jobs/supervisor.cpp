#include "jobs/supervisor.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>

#include <unistd.h>

#include "common/fsio.hpp"
#include "common/json.hpp"
#include "common/serializer.hpp"
#include "jobs/aggregate.hpp"
#include "jobs/journal.hpp"
#include "jobs/result_cache.hpp"

namespace emx::jobs {

namespace fs = std::filesystem;

namespace {

struct CellState {
  JobSpec job;
  enum State { kReady, kRunning, kDone, kFailed } state = kReady;
  unsigned attempts = 0;  ///< worker starts so far
  unsigned resumes = 0;   ///< starts that passed --resume
  std::int64_t ready_at = 0;
  std::string resume_path;  ///< checkpoint for the next start; "" = fresh
  std::string status;
  std::string result_bytes;

  std::string dir;          ///< <out>/jobs/<key>
  std::string ck_dir;       ///< <out>/jobs/<key>/ck
  std::string result_path;  ///< <out>/jobs/<key>/result.json
};

/// Everything the scheduling loop needs in one place.
struct Sweep {
  const SupervisorOptions& opts;
  Clock& clock;
  Journal journal;
  ProcessPool pool;
  ResultCache cache;
  std::vector<CellState> cells;

  Sweep(const SupervisorOptions& o, Clock& c)
      : opts(o), clock(c), pool(c) {}

  void note(const std::string& line) {
    if (!opts.quiet) std::fprintf(stderr, "%s", line.c_str());
  }
};

void clear_checkpoints(const std::string& ck_dir) {
  std::error_code ec;
  fs::remove_all(ck_dir, ec);  // recreated by the worker's own probe
}

/// Starts the next attempt for `cell`. Journals first, forks second, so
/// a crash between the two at worst re-runs one attempt.
bool start_cell(Sweep& sw, std::size_t index, std::string& err) {
  CellState& cell = sw.cells[index];
  ++cell.attempts;
  const bool resuming = !cell.resume_path.empty();
  if (resuming) ++cell.resumes;

  if (!sw.journal.append(
          "start",
          {{"job", json::quote(cell.job.key)},
           {"attempt", std::to_string(cell.attempts)},
           {"resume", resuming ? "1" : "0"}},
          err))
    return false;

  Command cmd;
  cmd.argv.push_back(sw.opts.emx_run);
  if (resuming) {
    // The checkpoint's manifest is the full recipe; flags left at their
    // defaults adopt it, so --resume needs no grid flags.
    cmd.argv.push_back("--resume=" + cell.resume_path);
  } else {
    const std::vector<std::string> flags = worker_flags(cell.job.manifest);
    cmd.argv.insert(cmd.argv.end(), flags.begin(), flags.end());
  }
  if (sw.opts.checkpoint_every > 0) {
    cmd.argv.push_back("--checkpoint-every=" +
                       std::to_string(sw.opts.checkpoint_every));
    cmd.argv.push_back("--checkpoint-dir=" + cell.ck_dir);
  }
  cmd.argv.push_back("--result-json=" + cell.result_path);
  const std::string base =
      cell.dir + "/attempt-" + std::to_string(cell.attempts);
  cmd.stdout_path = base + ".stdout";
  cmd.stderr_path = base + ".stderr";

  std::string spawn_err;
  const pid_t pid =
      sw.pool.start(cmd, index, sw.opts.timeout_ms, spawn_err);
  if (pid < 0) {
    // Spawn failure is host pressure, not a verdict on the job: burn the
    // attempt, back off, retry like a killed worker.
    if (!sw.journal.append("fail",
                           {{"job", json::quote(cell.job.key)},
                            {"attempt", std::to_string(cell.attempts)},
                            {"reason", json::quote("spawn: " + spawn_err)}},
                           err))
      return false;
    cell.ready_at = sw.clock.now_ms() +
                    backoff_delay_ms(cell.attempts, sw.opts.backoff_ms,
                                     sw.opts.backoff_max_ms);
    cell.state = CellState::kReady;
    return true;
  }
  cell.state = CellState::kRunning;
  return true;
}

/// Marks `cell` done with blessed `bytes` already in the cache.
void finish_ok(Sweep& sw, CellState& cell, std::string bytes,
               const std::string& status) {
  cell.state = CellState::kDone;
  cell.status = status;
  cell.result_bytes = std::move(bytes);
  if (!sw.opts.keep_checkpoints) clear_checkpoints(cell.ck_dir);
  sw.note("emx_sweep: " + cell.job.key + ": " + cell.status + "\n");
}

bool give_up(Sweep& sw, CellState& cell, const std::string& reason,
             std::string& err) {
  if (!sw.journal.append(
          "give-up",
          {{"job", json::quote(cell.job.key)}, {"reason", json::quote(reason)}},
          err))
    return false;
  cell.state = CellState::kFailed;
  cell.status = "failed:" + reason;
  sw.note("emx_sweep: " + cell.job.key + ": " + cell.status + "\n");
  return true;
}

bool schedule_retry(Sweep& sw, CellState& cell, const std::string& reason,
                    bool from_scratch, std::string& err) {
  if (!sw.journal.append("fail",
                         {{"job", json::quote(cell.job.key)},
                          {"attempt", std::to_string(cell.attempts)},
                          {"reason", json::quote(reason)}},
                         err))
    return false;
  if (from_scratch) {
    clear_checkpoints(cell.ck_dir);
    cell.resume_path.clear();
  } else {
    cell.resume_path =
        latest_checkpoint(cell.ck_dir, cell.job.manifest.app);
  }
  cell.ready_at =
      sw.clock.now_ms() + backoff_delay_ms(cell.attempts, sw.opts.backoff_ms,
                                           sw.opts.backoff_max_ms);
  cell.state = CellState::kReady;
  sw.note("emx_sweep: " + cell.job.key + ": retrying (" + reason + ")\n");
  return true;
}

/// A worker exited with 0: validate its result file and bless it into
/// the cache. Returns false only on journal/cache write errors.
bool handle_worker_ok(Sweep& sw, CellState& cell, std::string& err) {
  std::string bytes;
  const std::string bad = audit_result(cell.result_path, bytes);
  if (!bad.empty()) {
    // Exit 0 with a broken result means the run cannot be trusted end to
    // end — retry from scratch rather than resume into the same state.
    if (cell.attempts <= sw.opts.max_retries)
      return schedule_retry(sw, cell, bad, /*from_scratch=*/true, err);
    return give_up(sw, cell, bad, err);
  }

  const std::string crc = ser::crc_hex(ser::crc32(bytes.data(), bytes.size()));
  if (!sw.journal.append(
          "done",
          {{"job", json::quote(cell.job.key)},
           {"result_crc", json::quote(crc)}},
          err))
    return false;
  const std::string werr = sw.cache.publish(cell.job.key, bytes);
  if (!werr.empty()) {
    err = werr;
    return false;
  }
  std::error_code ec;
  fs::remove(cell.result_path, ec);
  finish_ok(sw, cell, std::move(bytes),
            cell.resumes > 0 ? "resumed:" + std::to_string(cell.resumes)
                             : "ok");
  return true;
}

bool handle_exit(Sweep& sw, const ExitStatus& es, std::string& err) {
  CellState& cell = sw.cells[es.tag];
  const ExitClass cls = classify_exit(es);
  const std::string reason = exit_reason(es);
  switch (cls) {
    case ExitClass::kOk:
      return handle_worker_ok(sw, cell, err);
    case ExitClass::kPermanent:
      return give_up(sw, cell, reason, err);
    case ExitClass::kRetryScratch:
      if (cell.attempts <= sw.opts.max_retries)
        return schedule_retry(sw, cell, reason, /*from_scratch=*/true, err);
      return give_up(sw, cell, reason, err);
    case ExitClass::kRetryResume:
      if (cell.attempts <= sw.opts.max_retries)
        return schedule_retry(sw, cell, reason, /*from_scratch=*/false, err);
      return give_up(sw, cell, reason, err);
  }
  err = "unreachable exit class";
  return false;
}

/// Replays the journal into per-cell completion facts. Returns false
/// (with a cell-naming message) on conflicting duplicate completions.
bool replay_done(const std::vector<JournalEntry>& entries,
                 std::map<std::string, std::string>& done_crc,
                 std::string& err) {
  for (const JournalEntry& e : entries) {
    if (e.event != "done") continue;
    const std::string job = e.field("job");
    const std::string crc = e.field("result_crc");
    const auto it = done_crc.find(job);
    if (it == done_crc.end()) {
      done_crc.emplace(job, crc);
    } else if (it->second != crc) {
      err = "journal records two completions for cell " + job +
            " with different results (crc " + it->second + " vs " + crc +
            ") — refusing to pick one";
      return false;
    }
    // Same crc twice is the benign replay case: ignore.
  }
  return true;
}

}  // namespace

ExitClass classify_exit(const ExitStatus& es) {
  if (es.timed_out || es.signaled) return ExitClass::kRetryResume;
  if (es.code == 0) return ExitClass::kOk;
  if (es.code == 5) return ExitClass::kRetryScratch;
  return ExitClass::kPermanent;
}

std::string exit_reason(const ExitStatus& es) {
  if (es.timed_out) return "timeout";
  if (es.signaled) return "signal-" + std::to_string(es.sig);
  switch (es.code) {
    case 0:
      return "ok";
    case 1:
      return "wrong-result";
    case 2:
      return "bad-input";
    case 3:
      return "checker";
    case 4:
      return "watchdog";
    case 5:
      return "snapshot-divergence";
    case 6:
      return "verify";
    case 127:
      return "exec-failed";
    default:
      return "exit-" + std::to_string(es.code);
  }
}

std::int64_t backoff_delay_ms(unsigned attempt, std::int64_t base,
                              std::int64_t cap) {
  if (base <= 0) return 0;
  if (cap < base) cap = base;
  std::int64_t delay = base;
  for (unsigned i = 1; i < attempt; ++i) {
    delay *= 2;
    if (delay >= cap) return cap;
  }
  return std::min(delay, cap);
}

std::string audit_result(const std::string& result_path, std::string& bytes) {
  if (!fsio::read_file(result_path, bytes)) return "no-result-file";
  std::string perr;
  const json::Value v = json::Value::parse(bytes, perr);
  if (!perr.empty() || !v.is_object()) return "unparseable-result";
  if (const json::Value* ec = v.find("exit_code");
      ec == nullptr || ec->as_int(-1) != 0)
    return "result-reports-failure";
  return "";
}

std::string latest_checkpoint(const std::string& ck_dir,
                              const std::string& app) {
  const std::string prefix = app + "-c";
  const std::string suffix = ".emxsnap";
  std::string best;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(ck_dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.size() <= prefix.size() + suffix.size()) continue;
    if (name.compare(0, prefix.size(), prefix) != 0) continue;
    if (name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0)
      continue;
    // Cycle numbers are zero-padded to fixed width, so lexicographic
    // max is the newest checkpoint.
    if (name > best) best = name;
  }
  return best.empty() ? "" : ck_dir + "/" + best;
}

int run_sweep(const SupervisorOptions& opts, SweepOutcome& out,
              std::string& err) {
  Clock& clock = opts.clock != nullptr ? *opts.clock : real_clock();
  Sweep sw(opts, clock);

  std::vector<JobSpec> jobs;
  if (!opts.spec.expand(jobs, err)) return 2;
  if (opts.parallel == 0) {
    err = "--jobs must be >= 1";
    return 2;
  }
  if (::access(opts.emx_run.c_str(), X_OK) != 0) {
    err = "worker binary '" + opts.emx_run + "' is not executable";
    return 2;
  }
  for (const char* sub : {"", "/jobs"}) {
    const std::string derr = fsio::ensure_writable_dir(opts.out_dir + sub);
    if (!derr.empty()) {
      err = derr;
      return 2;
    }
  }
  if (!sw.cache.open(opts.out_dir + "/cache", opts.cache_max_bytes, err))
    return 2;

  // --- journal: load for replay, open for append, verify identity ---
  const std::string journal_path = opts.out_dir + "/journal.jsonl";
  std::vector<JournalEntry> entries;
  std::string warning;
  if (!Journal::load(journal_path, entries, warning, err)) return 2;
  if (!warning.empty())
    std::fprintf(stderr, "emx_sweep: warning: %s\n", warning.c_str());
  if (!sw.journal.open(journal_path, err)) return 2;

  const std::string digest = ser::crc_hex(opts.spec.digest());
  if (entries.empty()) {
    if (!sw.journal.append("sweep",
                           {{"name", json::quote(opts.spec.name)},
                            {"digest", json::quote(digest)},
                            {"cells", std::to_string(jobs.size())}},
                           err))
      return 2;
  } else {
    if (entries.front().event != "sweep" ||
        entries.front().field("digest") != digest) {
      err = opts.out_dir + " holds journal state for sweep '" +
            entries.front().field("name") + "' (digest " +
            entries.front().field("digest") + "), not this sweep (digest " +
            digest + ") — use a fresh --out directory";
      return 2;
    }
  }
  std::map<std::string, std::string> done_crc;
  if (!replay_done(entries, done_crc, err)) return 2;

  // --- cells: adopt cached completions, rediscover checkpoints ---
  sw.cells.reserve(jobs.size());
  std::size_t pending = 0;
  for (JobSpec& job : jobs) {
    CellState cell;
    cell.dir = opts.out_dir + "/jobs/" + job.key;
    cell.ck_dir = cell.dir + "/ck";
    cell.result_path = cell.dir + "/result.json";
    cell.job = std::move(job);

    // Every cell of this sweep is pinned for the sweep's lifetime, so
    // the LRU cap can never evict a result this invocation references.
    sw.cache.pin(cell.job.key);

    const auto it = done_crc.find(cell.job.key);
    std::string bytes;
    if (it != done_crc.end() && sw.cache.lookup(cell.job.key, bytes) &&
        ser::crc_hex(ser::crc32(bytes.data(), bytes.size())) == it->second) {
      cell.state = CellState::kDone;
      cell.status = "cached";
      cell.result_bytes = std::move(bytes);
    } else {
      if (it != done_crc.end())
        std::fprintf(stderr,
                     "emx_sweep: warning: %s completed in the journal but "
                     "its cache entry is missing or damaged — re-running\n",
                     cell.job.key.c_str());
      const std::string derr = fsio::ensure_writable_dir(cell.dir);
      if (!derr.empty()) {
        err = derr;
        return 2;
      }
      // A killed supervisor leaves checkpoints behind; the replacement
      // resumes from them instead of starting over.
      if (opts.checkpoint_every > 0)
        cell.resume_path =
            latest_checkpoint(cell.ck_dir, cell.job.manifest.app);
      ++pending;
    }
    sw.cells.push_back(std::move(cell));
  }

  // --- scheduling loop ---
  while (pending > 0) {
    bool progressed = false;
    const std::int64_t now = clock.now_ms();
    for (std::size_t i = 0; i < sw.cells.size(); ++i) {
      if (sw.pool.running() >= opts.parallel) break;
      CellState& cell = sw.cells[i];
      if (cell.state != CellState::kReady || cell.ready_at > now) continue;
      if (!start_cell(sw, i, err)) return 2;
      progressed = true;
    }

    std::vector<ExitStatus> exits;
    sw.pool.poll(exits);
    for (const ExitStatus& es : exits) {
      if (!handle_exit(sw, es, err)) return 2;
      CellState& cell = sw.cells[es.tag];
      if (cell.state == CellState::kDone || cell.state == CellState::kFailed)
        --pending;
      progressed = true;
    }
    if (!progressed) clock.sleep_ms(10);
  }

  // --- aggregate + provenance, then the outcome summary ---
  out = SweepOutcome{};
  for (const CellState& cell : sw.cells) {
    CellOutcome oc;
    oc.key = cell.job.key;
    oc.status = cell.status;
    oc.attempts = cell.attempts;
    oc.resumes = cell.resumes;
    oc.result_bytes = cell.result_bytes;
    if (cell.state == CellState::kFailed)
      ++out.failed;
    else
      ++out.ok;
    out.cells.push_back(std::move(oc));
  }
  out.aggregate_path = opts.out_dir + "/aggregate.json";
  out.provenance_path = opts.out_dir + "/provenance.json";
  if (!write_aggregate(out.aggregate_path, opts.spec, out.cells, err))
    return 2;
  if (!write_provenance(out.provenance_path, opts.spec, out.cells, err))
    return 2;

  // --- compact the journal: every cell is now terminal, so the attempt
  // history is redundant. Keep the sweep header plus one terminal
  // record per cell; the rewrite is atomic, so a crash mid-compaction
  // leaves either the full history or the compacted one — both replay
  // to the same state. Failure to compact is a warning, not an error:
  // the uncompacted journal is merely larger, never wrong.
  {
    std::vector<JournalEntry> keep;
    JournalEntry header;
    header.event = "sweep";
    header.raw_fields = {{"name", json::quote(opts.spec.name)},
                         {"digest", json::quote(digest)},
                         {"cells", std::to_string(sw.cells.size())}};
    keep.push_back(std::move(header));
    for (const CellState& cell : sw.cells) {
      JournalEntry e;
      if (cell.state == CellState::kDone) {
        e.event = "done";
        const std::string crc = ser::crc_hex(
            ser::crc32(cell.result_bytes.data(), cell.result_bytes.size()));
        e.raw_fields = {{"job", json::quote(cell.job.key)},
                        {"result_crc", json::quote(crc)}};
      } else {
        e.event = "give-up";
        std::string reason = cell.status;
        if (reason.rfind("failed:", 0) == 0) reason = reason.substr(7);
        e.raw_fields = {{"job", json::quote(cell.job.key)},
                        {"reason", json::quote(reason)}};
      }
      keep.push_back(std::move(e));
    }
    std::string compact_err;
    if (!Journal::compact(journal_path, keep, compact_err))
      std::fprintf(stderr, "emx_sweep: warning: %s\n", compact_err.c_str());
  }

  return out.failed == 0 ? 0 : 1;
}

}  // namespace emx::jobs
