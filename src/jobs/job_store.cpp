#include "jobs/job_store.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <set>

#include "common/fsio.hpp"
#include "common/serializer.hpp"
#include "jobs/core.hpp"  // latest_checkpoint

namespace emx::jobs {

namespace {

std::string bytes_crc(const std::string& bytes) {
  return ser::crc_hex(ser::crc32(bytes.data(), bytes.size()));
}

std::uint64_t to_u64(const std::string& s) {
  return std::strtoull(s.c_str(), nullptr, 10);
}

/// `sweep digest="…" version=2`: a header line, for refusal messages.
std::string describe(const JournalEntry& e) {
  std::string out = e.event;
  for (const auto& [k, v] : e.raw_fields) out += " " + k + "=" + v;
  return out;
}

}  // namespace

bool JobStore::open(const std::string& out_dir,
                    std::uint64_t cache_max_bytes, const JournalEntry& header,
                    std::string& err) {
  out_dir_ = out_dir;
  for (const char* sub : {"", "/jobs"}) {
    const std::string derr = fsio::ensure_writable_dir(out_dir + sub);
    if (!derr.empty()) {
      err = derr;
      return false;
    }
  }
  if (!cache_.open(out_dir + "/cache", cache_max_bytes, err)) return false;

  const std::string journal_path = out_dir + "/journal.jsonl";
  std::vector<JournalEntry> entries;
  std::string warning;
  if (!Journal::load(journal_path, entries, warning, err)) return false;
  if (!warning.empty())
    std::fprintf(stderr, "emx_%s: warning: %s\n", header.event.c_str(),
                 warning.c_str());
  if (!entries.empty() && (entries.front().event != header.event ||
                           entries.front().raw_fields != header.raw_fields)) {
    err = journal_path + " holds state for '" + describe(entries.front()) +
          "', not '" + describe(header) + "' — use a fresh --out directory";
    return false;
  }
  if (!replay(entries, err)) return false;
  if (!journal_.open(journal_path, err)) return false;
  if (entries.empty() &&
      !journal_.append(header.event, header.raw_fields, err))
    return false;
  return true;
}

Exec& JobStore::make_exec(const JobSpec& job) {
  Exec e;
  e.key = job.key;
  e.job = job;
  e.seq = next_seq_++;
  e.dir = out_dir_ + "/jobs/" + job.key;
  e.ck_dir = e.dir + "/ck";
  e.result_path = e.dir + "/result.json";
  e.progress_path = e.dir + "/progress.jsonl";
  // Failure surfaces at the first worker spawn, which the retry policy
  // already handles; no need for a second error path here.
  (void)fsio::ensure_writable_dir(e.dir);
  cache_.pin(e.key);
  return execs_.insert_or_assign(e.key, std::move(e)).first->second;
}

void JobStore::attach(Exec& e, JobRecord& job) {
  if (e.job_ids.empty()) e.tenant = job.tenant;
  e.job_ids.push_back(job.id);
}

bool JobStore::detach(const std::string& key, const std::string& id,
                      std::string* killed_key) {
  const auto it = execs_.find(key);
  if (it == execs_.end()) return false;
  Exec& e = it->second;
  e.job_ids.erase(std::remove(e.job_ids.begin(), e.job_ids.end(), id),
                  e.job_ids.end());
  if (!e.job_ids.empty()) return false;
  if (e.state == Exec::State::kDone || e.state == Exec::State::kFailed)
    return false;
  if (e.state == Exec::State::kRunning && killed_key != nullptr) {
    // A live worker holds this exec: the core must kill and reap it
    // before the record can go away.
    *killed_key = key;
    return true;
  }
  cache_.unpin(key);
  if (e.state == Exec::State::kRunning) tenants_.on_stop(e.tenant);
  execs_.erase(it);
  return false;
}

void JobStore::drop_exec(const std::string& key) {
  const auto it = execs_.find(key);
  if (it == execs_.end()) return;
  if (it->second.state == Exec::State::kRunning)
    tenants_.on_stop(it->second.tenant);
  cache_.unpin(key);
  execs_.erase(it);
}

void JobStore::finish_jobs(Exec& e, JobRecord::State state,
                           const std::string& status) {
  for (const std::string& id : e.job_ids) {
    const auto it = jobs_.find(id);
    if (it == jobs_.end()) continue;
    JobRecord& job = it->second;
    job.state = state;
    job.status = status;
    if (state == JobRecord::State::kDone) job.result_bytes = e.result_bytes;
    tenants_.on_finish(job.tenant);
  }
  e.job_ids.clear();
  cache_.unpin(e.key);
}

int JobStore::effective_priority(const Exec& e) const {
  int best = kMinPriority;
  for (const std::string& id : e.job_ids) {
    const auto it = jobs_.find(id);
    if (it != jobs_.end() && it->second.priority > best)
      best = it->second.priority;
  }
  return best;
}

bool JobStore::all_terminal() const {
  for (const auto& [key, e] : execs_)
    if (e.state == Exec::State::kQueued || e.state == Exec::State::kRunning)
      return false;
  return true;
}

JobRecord* JobStore::find_job(const std::string& id) {
  const auto it = jobs_.find(id);
  return it == jobs_.end() ? nullptr : &it->second;
}

Exec* JobStore::find_exec(const std::string& key) {
  const auto it = execs_.find(key);
  return it == execs_.end() ? nullptr : &it->second;
}

bool JobStore::submit(const Submission& sub, JobRecord*& job,
                      std::string& err) {
  const std::string id = "j" + std::to_string(next_job_);

  // Decide the dedup path first (no side effects), then journal it,
  // then mutate — so the journal always leads the state it describes.
  Exec* live = find_exec(sub.job.key);
  const bool attach_live =
      live != nullptr && (live->state == Exec::State::kQueued ||
                          live->state == Exec::State::kRunning);
  std::string cached_bytes;
  const bool cached =
      !attach_live && cache_.lookup(sub.job.key, cached_bytes);

  if (!journal_.append("submit",
                       {{"id", json::quote(id)},
                        {"tenant", json::quote(sub.tenant)},
                        {"priority", std::to_string(sub.priority)},
                        {"key", json::quote(sub.job.key)},
                        {"run", sub.raw_run}},
                       err))
    return false;
  if (cached &&
      !journal_.append(
          "cached",
          {{"id", json::quote(id)},
           {"result_crc", json::quote(bytes_crc(cached_bytes))}},
          err))
    return false;

  ++next_job_;
  JobRecord rec;
  rec.id = id;
  rec.tenant = sub.tenant;
  rec.priority = sub.priority;
  rec.key = sub.job.key;
  rec.raw_run = sub.raw_run;
  tenants_.on_submit(sub.tenant);
  JobRecord& stored = jobs_[id] = std::move(rec);

  if (cached) {
    stored.state = JobRecord::State::kDone;
    stored.status = "cached";
    stored.result_bytes = std::move(cached_bytes);
    tenants_.on_finish(stored.tenant);
  } else if (attach_live) {
    attach(*live, stored);
  } else {
    attach(make_exec(sub.job), stored);
  }
  job = &stored;
  return true;
}

bool JobStore::cancel(const std::string& id, bool& found, bool& was_live,
                      std::string& killed_key, std::string& err) {
  found = false;
  was_live = false;
  killed_key.clear();
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return true;
  found = true;
  if (it->second.state != JobRecord::State::kLive) return true;
  if (!journal_.append("cancel", {{"id", json::quote(id)}}, err)) return false;
  was_live = true;
  JobRecord& job = it->second;
  job.state = JobRecord::State::kCanceled;
  job.status = "canceled";
  tenants_.on_finish(job.tenant);
  detach(job.key, id, &killed_key);
  return true;
}

bool JobStore::record_start(Exec& e, bool resuming, std::string& err) {
  if (!journal_.append("start",
                       {{"key", json::quote(e.key)},
                        {"attempt", std::to_string(e.attempts + 1)},
                        {"resume", resuming ? "1" : "0"}},
                       err))
    return false;
  ++e.attempts;
  if (resuming) ++e.resumes;
  e.state = Exec::State::kRunning;
  tenants_.on_start(e.tenant);
  return true;
}

bool JobStore::record_done(Exec& e, const std::string& bytes,
                           std::string& err) {
  if (!journal_.append("done",
                       {{"key", json::quote(e.key)},
                        {"result_crc", json::quote(bytes_crc(bytes))},
                        {"attempts", std::to_string(e.attempts)},
                        {"resumes", std::to_string(e.resumes)},
                        {"preempts", std::to_string(e.preempts)}},
                       err))
    return false;
  const std::string werr = cache_.publish(e.key, bytes);
  if (!werr.empty()) {
    err = werr;
    return false;
  }
  e.state = Exec::State::kDone;
  e.result_bytes = bytes;
  tenants_.on_stop(e.tenant);
  finish_jobs(e, JobRecord::State::kDone, e.success_status());
  return true;
}

bool JobStore::record_fail(Exec& e, const std::string& reason,
                           std::string& err) {
  if (!journal_.append("fail",
                       {{"key", json::quote(e.key)},
                        {"attempt", std::to_string(e.attempts)},
                        {"reason", json::quote(reason)}},
                       err))
    return false;
  e.state = Exec::State::kQueued;
  tenants_.on_stop(e.tenant);
  return true;
}

bool JobStore::record_preempt(Exec& e, std::string& err) {
  if (!journal_.append("preempt",
                       {{"key", json::quote(e.key)},
                        {"attempt", std::to_string(e.attempts)}},
                       err))
    return false;
  ++e.preempts;
  e.state = Exec::State::kQueued;
  e.preempt_pending = false;
  tenants_.on_stop(e.tenant);
  return true;
}

bool JobStore::record_give_up(Exec& e, const std::string& reason,
                              std::string& err) {
  if (!journal_.append(
          "give-up",
          {{"key", json::quote(e.key)}, {"reason", json::quote(reason)}}, err))
    return false;
  e.state = Exec::State::kFailed;
  tenants_.on_stop(e.tenant);
  finish_jobs(e, JobRecord::State::kFailed, "failed:" + reason);
  return true;
}

bool JobStore::replay(const std::vector<JournalEntry>& entries,
                      std::string& err) {
  for (const JournalEntry& e : entries) {
    if (&e == &entries.front()) continue;  // the header, checked by open()

    if (e.event == "submit") {
      const std::string id = e.field("id");
      const std::string raw_run = e.field("run");
      std::string perr;
      const json::Value run = json::Value::parse(raw_run, perr);
      JobSpec spec;
      std::string rerr;
      if (!perr.empty() || !parse_run(run, spec, rerr)) {
        err = "journal replay: submit " + id + ": run object no longer "
              "parses (" + (perr.empty() ? rerr : perr) + ")";
        return false;
      }
      if (spec.key != e.field("key")) {
        err = "journal replay: submit " + id + " was keyed " +
              e.field("key") + " but the same run now keys " + spec.key +
              " — refusing to mix manifests; use a fresh --out directory";
        return false;
      }
      JobRecord rec;
      rec.id = id;
      rec.tenant = e.field("tenant");
      rec.priority = static_cast<int>(to_u64(e.field("priority")));
      rec.key = spec.key;
      rec.raw_run = raw_run;
      tenants_.on_submit(rec.tenant);
      JobRecord& stored = jobs_[id] = std::move(rec);
      next_job_ = std::max(next_job_, to_u64(id.substr(1)) + 1);

      Exec* live = find_exec(stored.key);
      if (live != nullptr && (live->state == Exec::State::kQueued ||
                              live->state == Exec::State::kRunning)) {
        attach(*live, stored);
      } else {
        // If a "cached" line follows it will detach again; creating the
        // exec eagerly keeps the replay single-pass.
        attach(make_exec(spec), stored);
      }
      continue;
    }

    if (e.event == "cached") {
      JobRecord* job = find_job(e.field("id"));
      if (job == nullptr) continue;
      job->state = JobRecord::State::kDone;
      job->status = "cached";
      std::string bytes;
      if (cache_.lookup(job->key, bytes) &&
          bytes_crc(bytes) == e.field("result_crc"))
        job->result_bytes = std::move(bytes);
      tenants_.on_finish(job->tenant);
      detach(job->key, job->id, nullptr);
      continue;
    }

    if (e.event == "cancel") {
      JobRecord* job = find_job(e.field("id"));
      if (job == nullptr || job->state != JobRecord::State::kLive) continue;
      job->state = JobRecord::State::kCanceled;
      job->status = "canceled";
      tenants_.on_finish(job->tenant);
      detach(job->key, job->id, nullptr);
      continue;
    }

    Exec* exec = find_exec(e.field("key"));
    if (exec == nullptr) {
      err = "journal replay: " + e.event + " for unknown exec " +
            e.field("key");
      return false;
    }
    if (e.event == "start") {
      exec->attempts = static_cast<unsigned>(to_u64(e.field("attempt")));
      if (e.field("resume") == "1") ++exec->resumes;
      exec->state = Exec::State::kRunning;
      tenants_.on_start(exec->tenant);
    } else if (e.event == "fail") {
      exec->state = Exec::State::kQueued;
      tenants_.on_stop(exec->tenant);
    } else if (e.event == "preempt") {
      ++exec->preempts;
      exec->state = Exec::State::kQueued;
      tenants_.on_stop(exec->tenant);
    } else if (e.event == "done") {
      exec->attempts = static_cast<unsigned>(to_u64(e.field("attempts")));
      exec->resumes = static_cast<unsigned>(to_u64(e.field("resumes")));
      exec->preempts = static_cast<unsigned>(to_u64(e.field("preempts")));
      tenants_.on_stop(exec->tenant);
      std::string bytes;
      if (cache_.lookup(exec->key, bytes) &&
          bytes_crc(bytes) == e.field("result_crc")) {
        exec->state = Exec::State::kDone;
        exec->result_bytes = std::move(bytes);
        finish_jobs(*exec, JobRecord::State::kDone, exec->success_status());
      } else {
        // Completed per the journal but the blessing is gone (evicted
        // or damaged cache entry): the honest move is to re-run.
        std::fprintf(stderr,
                     "emx_%s: warning: %s completed in the journal but its "
                     "cache entry is missing or damaged — re-running\n",
                     entries.front().event.c_str(), exec->key.c_str());
        exec->state = Exec::State::kQueued;
      }
    } else if (e.event == "give-up") {
      exec->state = Exec::State::kFailed;
      tenants_.on_stop(exec->tenant);
      finish_jobs(*exec, JobRecord::State::kFailed,
                  "failed:" + e.field("reason"));
    } else {
      err = "journal replay: unknown event '" + e.event + "'";
      return false;
    }
  }

  // Post-pass: nothing survives a restart as "running" — workers died
  // with the old daemon. Re-queue with the newest checkpoint on disk.
  for (auto& [key, exec] : execs_) {
    if (exec.state == Exec::State::kRunning) {
      exec.state = Exec::State::kQueued;
      tenants_.on_stop(exec.tenant);
    }
    if (exec.state == Exec::State::kQueued) {
      exec.resume_path =
          latest_checkpoint(exec.ck_dir, exec.job.manifest.app);
      exec.preempt_pending = false;
      exec.ready_at = 0;
      cache_.pin(key);
    }
  }
  return true;
}

bool JobStore::compact(bool drop_cached_reruns, std::string& err) {
  // Keep the durable facts (header, submits, terminal records) in their
  // original order; drop the attempt history (start/fail/preempt),
  // whose every effect is subsumed by the "done" counters, and, when
  // asked, the cache answers to keys already done. Original order is
  // what makes the filtered journal replay exactly.
  std::vector<JournalEntry> entries;
  std::string warning;
  if (!Journal::load(journal_.path(), entries, warning, err)) return false;
  std::set<std::string> dropped_ids;
  if (drop_cached_reruns) {
    std::map<std::string, std::string> key_of;  // job id -> key
    std::set<std::string> done_keys;
    for (const JournalEntry& e : entries) {
      if (e.event == "submit") {
        key_of[e.field("id")] = e.field("key");
      } else if (e.event == "done") {
        done_keys.insert(e.field("key"));
      } else if (e.event == "cached" &&
                 done_keys.count(key_of[e.field("id")]) != 0) {
        dropped_ids.insert(e.field("id"));
      }
    }
  }
  std::vector<JournalEntry> keep;
  for (JournalEntry& e : entries) {
    if (e.event == "start" || e.event == "fail" || e.event == "preempt")
      continue;
    if ((e.event == "submit" || e.event == "cached") &&
        dropped_ids.count(e.field("id")) != 0)
      continue;
    keep.push_back(std::move(e));
  }
  if (!Journal::compact(journal_.path(), keep, err)) return false;
  // Reopen so next_seq matches the rewritten file.
  return journal_.open(journal_.path(), err);
}

}  // namespace emx::jobs
