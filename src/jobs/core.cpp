#include "jobs/core.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <vector>

#include <unistd.h>

#include "common/fsio.hpp"
#include "common/json.hpp"

namespace emx::jobs {

namespace fs = std::filesystem;

Core::Core(const CoreOptions& opts)
    : opts_(opts),
      clock_(opts.clock != nullptr ? *opts.clock : real_clock()),
      pool_(clock_) {}

bool Core::open(const JournalEntry& header, std::string& err) {
  tool_ = "emx_" + header.event;
  if (opts_.parallel == 0) {
    err = "--jobs must be >= 1";
    return false;
  }
  if (::access(opts_.emx_run.c_str(), X_OK) != 0) {
    err = "worker binary '" + opts_.emx_run + "' is not executable";
    return false;
  }
  return store_.open(opts_.out_dir, opts_.cache_max_bytes, header, err);
}

void Core::note(const std::string& line) {
  if (!opts_.quiet)
    std::fprintf(stderr, "%s: %s\n", tool_.c_str(), line.c_str());
}

/// Starts the next attempt of `e`. Journals first, forks second, so a
/// crash between the two at worst re-runs one attempt. Returns false
/// only on a journal write failure.
bool Core::start_exec(Exec& e, std::string& err) {
  const bool resuming = !e.resume_path.empty();
  if (!store_.record_start(e, resuming, err)) return false;

  Command cmd;
  cmd.argv.push_back(opts_.emx_run);
  if (resuming) {
    // The checkpoint's manifest is the full recipe; flags left at their
    // defaults adopt it, so --resume needs no grid flags.
    cmd.argv.push_back("--resume=" + e.resume_path);
  } else {
    const std::vector<std::string> flags = worker_flags(e.job.manifest);
    cmd.argv.insert(cmd.argv.end(), flags.begin(), flags.end());
  }
  if (opts_.checkpoint_every > 0)
    cmd.argv.push_back("--checkpoint-every=" +
                       std::to_string(opts_.checkpoint_every));
  // The checkpoint dir rides along even when periodic checkpoints are
  // off: crash dumps land there.
  cmd.argv.push_back("--checkpoint-dir=" + e.ck_dir);
  if (opts_.progress_every > 0) {
    cmd.argv.push_back("--progress-every=" +
                       std::to_string(opts_.progress_every));
    cmd.argv.push_back("--progress-file=" + e.progress_path);
  }
  cmd.argv.push_back("--result-json=" + e.result_path);
  const std::string base = e.dir + "/attempt-" + std::to_string(e.attempts);
  cmd.stdout_path = base + ".stdout";
  cmd.stderr_path = base + ".stderr";

  const std::uint64_t tag = next_tag_++;
  std::string spawn_err;
  if (pool_.start(cmd, tag, opts_.timeout_ms, spawn_err) < 0) {
    // Spawn failure is host pressure, not a verdict on the job: burn the
    // attempt, back off, retry like a killed worker.
    if (!store_.record_fail(e, "spawn: " + spawn_err, err)) return false;
    e.ready_at = clock_.now_ms() +
                 backoff_delay_ms(e.attempts - e.preempts, opts_.backoff_ms,
                                  opts_.backoff_max_ms);
    return true;
  }
  tag_key_[tag] = e.key;
  key_tag_[e.key] = tag;
  note(e.key + ": started (attempt " + std::to_string(e.attempts) +
       (resuming ? ", resume" : "") + ")");
  return true;
}

/// Execs in `state` whose backoff gate has passed (every running exec's
/// has), as the scheduling policy sees them.
std::vector<ExecView> Core::views(Exec::State state, std::int64_t now) {
  std::vector<ExecView> out;
  for (auto& [key, e] : store_.execs()) {
    if (e.state != state || e.ready_at > now) continue;
    ExecView v;
    v.key = key;
    v.tenant = e.tenant;
    v.priority = store_.effective_priority(e);
    v.seq = e.seq;
    out.push_back(std::move(v));
  }
  return out;
}

/// Admission + preemption for one loop turn. Returns false on a journal
/// failure.
bool Core::schedule(std::string& err) {
  const std::int64_t now = clock_.now_ms();

  while (pool_.running() < opts_.parallel) {
    const std::vector<ExecView> queued = views(Exec::State::kQueued, now);
    const std::size_t pick =
        pick_next(queued, store_.tenants(), opts_.max_per_tenant);
    if (pick == kNoPick) break;
    Exec* e = store_.find_exec(queued[pick].key);
    if (e == nullptr) break;
    if (!start_exec(*e, err)) return false;
    if (e->state != Exec::State::kRunning) break;  // spawn failed: back off
  }

  // Every slot busy and work still queued: preempt strictly lower-
  // priority running work by killing it now. The victim re-queues at
  // full retry credit and resumes from its newest periodic checkpoint
  // (handle_exit); checkpoint writes are atomic, so a kill racing one
  // never leaves a torn file under a checkpoint name.
  if (pool_.running() >= opts_.parallel) {
    const std::vector<ExecView> queued = views(Exec::State::kQueued, now);
    const std::size_t pick =
        pick_next(queued, store_.tenants(), opts_.max_per_tenant);
    if (pick != kNoPick) {
      const std::vector<ExecView> running = views(Exec::State::kRunning, now);
      const std::size_t vic = pick_victim(running, queued[pick].priority);
      if (vic != kNoPick) {
        Exec* victim = store_.find_exec(running[vic].key);
        if (victim != nullptr && !victim->preempt_pending) {
          victim->preempt_pending = true;
          const auto tag = key_tag_.find(victim->key);
          if (tag != key_tag_.end()) pool_.kill_child(tag->second);
          note(victim->key + ": preempting for priority " +
               std::to_string(queued[pick].priority) + " work");
        }
      }
    }
  }
  return true;
}

/// One reaped worker through the failure policy. A preemption kill
/// re-queues at full retry credit — the core did it on purpose, so it
/// is not evidence against the job.
bool Core::handle_exit(const ExitStatus& es, std::string& err) {
  const auto it = tag_key_.find(es.tag);
  if (it == tag_key_.end()) return true;
  const std::string key = it->second;
  tag_key_.erase(it);
  key_tag_.erase(key);

  Exec* e = store_.find_exec(key);
  if (e == nullptr || e->state != Exec::State::kRunning) return true;
  if (e->job_ids.empty()) {
    // Every submitter canceled while it ran; the kill was ours.
    store_.drop_exec(key);
    return true;
  }

  const std::int64_t now = clock_.now_ms();
  if (es.preempted) {
    if (!store_.record_preempt(*e, err)) return false;
    e->resume_path = latest_checkpoint(e->ck_dir, e->job.manifest.app);
    e->ready_at = now;  // no backoff: nothing is wrong with the job
    note(key + ": preempted (resume " +
         (e->resume_path.empty() ? "from scratch" : "from checkpoint") + ")");
    return true;
  }

  const ExitClass cls = classify_exit(es);
  const std::string reason = exit_reason(es);
  const unsigned spent = e->attempts - e->preempts;  ///< non-preempt starts
  const auto give_up = [&](const std::string& why) {
    if (!store_.record_give_up(*e, why, err)) return false;
    note(key + ": failed:" + why);
    return true;
  };
  const auto retry = [&](const std::string& why, bool from_scratch) {
    if (spent > opts_.max_retries) return give_up(why);
    if (from_scratch) {
      std::error_code ec;
      fs::remove_all(e->ck_dir, ec);  // recreated by the worker's probe
      e->resume_path.clear();
    } else {
      e->resume_path = latest_checkpoint(e->ck_dir, e->job.manifest.app);
    }
    if (!store_.record_fail(*e, why, err)) return false;
    e->ready_at = now + backoff_delay_ms(spent, opts_.backoff_ms,
                                         opts_.backoff_max_ms);
    note(key + ": retrying" + (from_scratch ? " from scratch" : "") + " (" +
         why + ")");
    return true;
  };

  switch (cls) {
    case ExitClass::kOk: {
      std::string bytes;
      const std::string bad = audit_result(e->result_path, bytes);
      // Exit 0 with a broken result means the run cannot be trusted end
      // to end — retry from scratch rather than resume into the same
      // state.
      if (!bad.empty()) return retry(bad, /*from_scratch=*/true);
      if (!store_.record_done(*e, bytes, err)) return false;
      std::error_code ec;
      fs::remove(e->result_path, ec);
      fs::remove_all(e->ck_dir, ec);
      note(key + ": " + e->success_status());
      return true;
    }
    case ExitClass::kPermanent:
      return give_up(reason);
    case ExitClass::kRetryScratch:
      return retry(reason, /*from_scratch=*/true);
    case ExitClass::kRetryResume:
      return retry(reason, /*from_scratch=*/false);
  }
  err = "unreachable exit class";
  return false;
}

bool Core::step(bool& progressed, std::string& err) {
  const std::size_t before = pool_.running();
  if (!schedule(err)) return false;
  progressed = pool_.running() != before;
  std::vector<ExitStatus> exits;
  pool_.poll(exits);
  for (const ExitStatus& es : exits) {
    if (!handle_exit(es, err)) return false;
    progressed = true;
  }
  return true;
}

bool Core::cancel(const std::string& id, bool& found, bool& was_live,
                  std::string& err) {
  std::string killed_key;
  if (!store_.cancel(id, found, was_live, killed_key, err)) return false;
  if (!killed_key.empty()) {
    const auto tag = key_tag_.find(killed_key);
    if (tag != key_tag_.end()) pool_.kill_child(tag->second);
  }
  return true;
}

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

}  // namespace emx::jobs
