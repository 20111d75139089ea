#include "serve/daemon.hpp"

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/fsio.hpp"
#include "jobs/process_pool.hpp"
#include "jobs/supervisor.hpp"
#include "serve/job_store.hpp"
#include "serve/protocol.hpp"
#include "serve/scheduler.hpp"
#include "snapshot/progress.hpp"

namespace emx::serve {

namespace fs = std::filesystem;

namespace {

volatile std::sig_atomic_t g_stop = 0;
void on_stop(int) { g_stop = 1; }

/// One client connection: a byte-buffered, non-blocking line pump.
struct Conn {
  int fd = -1;
  std::string in;
  std::string out;
  bool watching = false;
  std::string watch_id;
  std::size_t watch_off = 0;  ///< consumed bytes of the progress file
  bool close_after_flush = false;
};

struct Daemon {
  const DaemonOptions& opts;
  jobs::Clock& clock;
  JobStore store;
  jobs::ProcessPool pool;
  std::vector<Conn> conns;
  std::map<std::uint64_t, std::string> tag_key;  ///< pool tag → exec key
  std::map<std::string, std::uint64_t> key_tag;
  std::uint64_t next_tag = 1;
  int listen_fd = -1;
  bool draining = false;

  Daemon(const DaemonOptions& o, jobs::Clock& c)
      : opts(o), clock(c), pool(c) {}

  void note(const std::string& line) {
    if (!opts.quiet) std::fprintf(stderr, "%s", line.c_str());
  }
};

int listen_unix(const std::string& path, std::string& err) {
  sockaddr_un addr{};
  if (path.empty()) {
    err = "--socket is required";
    return -1;
  }
  if (path.size() >= sizeof addr.sun_path) {
    err = "--socket path '" + path + "' exceeds the AF_UNIX limit (" +
          std::to_string(sizeof addr.sun_path - 1) + " bytes)";
    return -1;
  }
  // A stale socket file from a killed daemon would make bind() fail;
  // the journal, not the socket, is the daemon's identity.
  ::unlink(path.c_str());
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                          0);
  if (fd < 0) {
    err = std::string("socket: ") + std::strerror(errno);
    return -1;
  }
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size());
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(fd, 64) != 0) {
    err = "cannot listen on '" + path + "': " + std::strerror(errno);
    ::close(fd);
    return -1;
  }
  return fd;
}

/// The externally visible state string for a job.
std::string job_state(Daemon& d, const JobRecord& job) {
  switch (job.state) {
    case JobRecord::State::kLive: {
      const Exec* e = d.store.find_exec(job.key);
      return (e != nullptr && e->state == Exec::State::kRunning) ? "running"
                                                                 : "queued";
    }
    case JobRecord::State::kDone:
      return "done";
    case JobRecord::State::kFailed:
      return "failed";
    case JobRecord::State::kCanceled:
      return "canceled";
  }
  return "unknown";
}

json::Value job_json(Daemon& d, const JobRecord& job, bool with_result) {
  json::Value v = json::Value::object();
  v.set("id", json::Value::string(job.id));
  v.set("tenant", json::Value::string(job.tenant));
  v.set("priority", json::Value::integer(job.priority));
  v.set("key", json::Value::string(job.key));
  const std::string state = job_state(d, job);
  v.set("state", json::Value::string(state));
  v.set("status", json::Value::string(
                      job.state == JobRecord::State::kLive ? state
                                                           : job.status));
  if (const Exec* e = d.store.find_exec(job.key);
      e != nullptr && job.state == JobRecord::State::kLive) {
    v.set("attempts", json::Value::integer(e->attempts));
    v.set("resumes", json::Value::integer(e->resumes));
    v.set("preempts", json::Value::integer(e->preempts));
  }
  if (with_result && job.state == JobRecord::State::kDone &&
      !job.result_bytes.empty()) {
    std::string perr;
    json::Value result = json::Value::parse(job.result_bytes, perr);
    if (perr.empty()) v.set("result", std::move(result));
  }
  return v;
}

/// Starts the next attempt of `e`. Journals first, forks second.
/// Returns false only on a journal write failure (daemon-fatal).
bool start_exec(Daemon& d, Exec& e, std::string& err) {
  const bool resuming = !e.resume_path.empty();
  if (!d.store.record_start(e, resuming, err)) return false;

  jobs::Command cmd;
  cmd.argv.push_back(d.opts.emx_run);
  if (resuming) {
    cmd.argv.push_back("--resume=" + e.resume_path);
  } else {
    const std::vector<std::string> flags = jobs::worker_flags(e.job.manifest);
    cmd.argv.insert(cmd.argv.end(), flags.begin(), flags.end());
  }
  if (d.opts.checkpoint_every > 0)
    cmd.argv.push_back("--checkpoint-every=" +
                       std::to_string(d.opts.checkpoint_every));
  // The checkpoint dir rides along even when periodic checkpoints are
  // off: crash dumps land there.
  cmd.argv.push_back("--checkpoint-dir=" + e.ck_dir);
  if (d.opts.progress_every > 0) {
    cmd.argv.push_back("--progress-every=" +
                       std::to_string(d.opts.progress_every));
    cmd.argv.push_back("--progress-file=" + e.progress_path);
  }
  cmd.argv.push_back("--result-json=" + e.result_path);
  const std::string base = e.dir + "/attempt-" + std::to_string(e.attempts);
  cmd.stdout_path = base + ".stdout";
  cmd.stderr_path = base + ".stderr";

  const std::uint64_t tag = d.next_tag++;
  std::string spawn_err;
  const pid_t pid = d.pool.start(cmd, tag, d.opts.timeout_ms, spawn_err);
  if (pid < 0) {
    if (!d.store.record_fail(e, "spawn: " + spawn_err, err)) return false;
    e.ready_at = d.clock.now_ms() +
                 jobs::backoff_delay_ms(e.attempts - e.preempts,
                                        d.opts.backoff_ms,
                                        d.opts.backoff_max_ms);
    return true;
  }
  d.tag_key[tag] = e.key;
  d.key_tag[e.key] = tag;
  d.note("emx_serve: " + e.key + ": started (attempt " +
         std::to_string(e.attempts) + (resuming ? ", resume" : "") + ")\n");
  return true;
}

std::vector<ExecView> queued_views(Daemon& d, std::int64_t now) {
  std::vector<ExecView> views;
  for (auto& [key, e] : d.store.execs()) {
    if (e.state != Exec::State::kQueued || e.ready_at > now) continue;
    ExecView v;
    v.key = key;
    v.tenant = e.tenant;
    v.priority = d.store.effective_priority(e);
    v.seq = e.seq;
    views.push_back(std::move(v));
  }
  return views;
}

std::vector<ExecView> running_views(Daemon& d) {
  std::vector<ExecView> views;
  for (auto& [key, e] : d.store.execs()) {
    if (e.state != Exec::State::kRunning) continue;
    ExecView v;
    v.key = key;
    v.tenant = e.tenant;
    v.priority = d.store.effective_priority(e);
    v.seq = e.seq;
    views.push_back(std::move(v));
  }
  return views;
}

/// Admission + preemption for one loop turn. Returns false on a
/// daemon-fatal journal failure.
bool schedule(Daemon& d, std::string& err) {
  const std::int64_t now = d.clock.now_ms();

  while (d.pool.running() < d.opts.parallel) {
    const std::vector<ExecView> queued = queued_views(d, now);
    const std::size_t pick =
        pick_next(queued, d.store.tenants(), d.opts.max_per_tenant);
    if (pick == kNoPick) break;
    Exec* e = d.store.find_exec(queued[pick].key);
    if (e == nullptr) break;
    if (!start_exec(d, *e, err)) return false;
    if (e->state != Exec::State::kRunning) break;  // spawn failed: back off
  }

  // Every slot busy and work still queued: preempt strictly lower-
  // priority running work by killing it now. The victim re-queues at
  // full retry credit and resumes from its newest periodic checkpoint
  // (handle_exit); checkpoint writes are atomic, so a kill racing one
  // never leaves a torn file under a checkpoint name.
  if (d.pool.running() >= d.opts.parallel) {
    const std::vector<ExecView> queued = queued_views(d, now);
    const std::size_t pick =
        pick_next(queued, d.store.tenants(), d.opts.max_per_tenant);
    if (pick != kNoPick) {
      const std::vector<ExecView> running = running_views(d);
      const std::size_t vic = pick_victim(running, queued[pick].priority);
      if (vic != kNoPick) {
        Exec* victim = d.store.find_exec(running[vic].key);
        if (victim != nullptr && !victim->preempt_pending) {
          victim->preempt_pending = true;
          const auto tag = d.key_tag.find(victim->key);
          if (tag != d.key_tag.end()) d.pool.kill_child(tag->second);
          d.note("emx_serve: " + victim->key +
                 ": preempting for priority " +
                 std::to_string(queued[pick].priority) + " work\n");
        }
      }
    }
  }
  return true;
}

/// One reaped worker. Mirrors the sweep supervisor's policy, with one
/// addition: a preemption kill re-queues at full retry credit — the
/// daemon did it on purpose, so it is not evidence against the job.
bool handle_exit(Daemon& d, const jobs::ExitStatus& es, std::string& err) {
  const auto it = d.tag_key.find(es.tag);
  if (it == d.tag_key.end()) return true;
  const std::string key = it->second;
  d.tag_key.erase(it);
  d.key_tag.erase(key);

  Exec* e = d.store.find_exec(key);
  if (e == nullptr || e->state != Exec::State::kRunning) return true;
  if (e->job_ids.empty()) {
    // Every submitter canceled while it ran; the kill was ours.
    d.store.drop_exec(key);
    return true;
  }

  const std::int64_t now = d.clock.now_ms();
  if (es.preempted) {
    if (!d.store.record_preempt(*e, err)) return false;
    e->resume_path = jobs::latest_checkpoint(e->ck_dir, e->job.manifest.app);
    e->ready_at = now;  // no backoff: nothing is wrong with the job
    d.note("emx_serve: " + key + ": preempted (resume " +
           (e->resume_path.empty() ? "from scratch" : "from checkpoint") +
           ")\n");
    return true;
  }

  const jobs::ExitClass cls = jobs::classify_exit(es);
  const std::string reason = jobs::exit_reason(es);
  const unsigned spent = e->attempts - e->preempts;  ///< non-preempt starts
  const auto backoff = [&] {
    e->ready_at = now + jobs::backoff_delay_ms(spent, d.opts.backoff_ms,
                                               d.opts.backoff_max_ms);
  };
  const auto retry_scratch = [&](const std::string& why) -> bool {
    std::error_code ec;
    fs::remove_all(e->ck_dir, ec);
    e->resume_path.clear();
    if (!d.store.record_fail(*e, why, err)) return false;
    backoff();
    d.note("emx_serve: " + key + ": retrying from scratch (" + why + ")\n");
    return true;
  };

  switch (cls) {
    case jobs::ExitClass::kOk: {
      std::string bytes;
      const std::string bad = jobs::audit_result(e->result_path, bytes);
      if (!bad.empty()) {
        if (spent <= d.opts.max_retries) return retry_scratch(bad);
        if (!d.store.record_give_up(*e, bad, err)) return false;
        return true;
      }
      if (!d.store.record_done(*e, bytes, err)) return false;
      std::error_code ec;
      fs::remove(e->result_path, ec);
      if (!d.opts.quiet) {
        d.note("emx_serve: " + key + ": " + e->success_status() + "\n");
      }
      return true;
    }
    case jobs::ExitClass::kPermanent:
      return d.store.record_give_up(*e, reason, err);
    case jobs::ExitClass::kRetryScratch:
      if (spent <= d.opts.max_retries) return retry_scratch(reason);
      return d.store.record_give_up(*e, reason, err);
    case jobs::ExitClass::kRetryResume:
      if (spent <= d.opts.max_retries) {
        e->resume_path =
            jobs::latest_checkpoint(e->ck_dir, e->job.manifest.app);
        if (!d.store.record_fail(*e, reason, err)) return false;
        backoff();
        d.note("emx_serve: " + key + ": retrying (" + reason + ")\n");
        return true;
      }
      return d.store.record_give_up(*e, reason, err);
  }
  err = "unreachable exit class";
  return false;
}

/// Streams any new progress records to a watching connection; emits the
/// "end" event and schedules the close once the job is terminal.
void pump_watch(Daemon& d, Conn& conn) {
  JobRecord* job = d.store.find_job(conn.watch_id);
  if (job == nullptr) {
    conn.out += error_line("unknown job id '" + conn.watch_id + "'");
    conn.watching = false;
    conn.close_after_flush = true;
    return;
  }
  if (job->state == JobRecord::State::kLive) {
    const Exec* e = d.store.find_exec(job->key);
    if (e == nullptr || d.opts.progress_every == 0) return;
    std::string buf;
    if (!fsio::read_file(e->progress_path, buf)) return;
    // A new attempt truncates the progress file; follow it back.
    if (buf.size() < conn.watch_off) conn.watch_off = 0;
    std::vector<snapshot::ProgressRecord> recs;
    std::string perr;
    conn.watch_off += snapshot::parse_progress(
        std::string_view(buf).substr(conn.watch_off), recs, perr);
    for (const snapshot::ProgressRecord& rec : recs) {
      json::Value v = json::Value::object();
      v.set("event", json::Value::string("progress"));
      v.set("id", json::Value::string(job->id));
      v.set("cycle",
            json::Value::integer(static_cast<std::int64_t>(rec.cycle)));
      v.set("live", json::Value::integer(
                        static_cast<std::int64_t>(rec.live_threads)));
      v.set("ckpts", json::Value::integer(
                         static_cast<std::int64_t>(rec.checkpoints)));
      conn.out += response_line(v);
    }
    return;
  }
  json::Value v = json::Value::object();
  v.set("event", json::Value::string("end"));
  v.set("job", job_json(d, *job, /*with_result=*/true));
  conn.out += response_line(v);
  conn.watching = false;
  conn.close_after_flush = true;
}

/// One parsed request line. Returns false on daemon-fatal errors only;
/// client mistakes are answered on the wire.
bool handle_request(Daemon& d, Conn& conn, const std::string& line,
                    std::string& err) {
  Request req;
  std::string perr;
  if (!parse_request(line, req, perr)) {
    conn.out += error_line(perr);
    return true;
  }
  switch (req.op) {
    case Request::Op::kSubmit: {
      if (d.draining) {
        conn.out += error_line("daemon is draining — not accepting jobs");
        return true;
      }
      JobRecord* job = nullptr;
      if (!d.store.submit(req, job, err)) return false;
      json::Value v = job_json(d, *job, /*with_result=*/true);
      v.set("ok", json::Value::boolean(true));
      conn.out += response_line(v);
      d.note("emx_serve: " + job->id + ": submitted " + job->key +
             " (tenant " + job->tenant + ", priority " +
             std::to_string(job->priority) + ") → " + job_state(d, *job) +
             "\n");
      return true;
    }
    case Request::Op::kStatus: {
      JobRecord* job = d.store.find_job(req.id);
      if (job == nullptr) {
        conn.out += error_line("unknown job id '" + req.id + "'");
        return true;
      }
      json::Value v = job_json(d, *job, /*with_result=*/true);
      v.set("ok", json::Value::boolean(true));
      conn.out += response_line(v);
      return true;
    }
    case Request::Op::kList: {
      json::Value v = json::Value::object();
      v.set("ok", json::Value::boolean(true));
      v.set("draining", json::Value::boolean(d.draining));
      json::Value arr = json::Value::array();
      for (const auto& [id, job] : d.store.jobs())
        arr.push(job_json(d, job, /*with_result=*/false));
      v.set("jobs", std::move(arr));
      v.set("tenants", d.store.tenants().summary());
      json::Value cache = json::Value::object();
      cache.set("bytes", json::Value::integer(static_cast<std::int64_t>(
                             d.store.cache().total_bytes())));
      cache.set("entries", json::Value::integer(static_cast<std::int64_t>(
                               d.store.cache().entries())));
      cache.set("evictions", json::Value::integer(static_cast<std::int64_t>(
                                 d.store.cache().evictions())));
      v.set("cache", std::move(cache));
      conn.out += response_line(v);
      return true;
    }
    case Request::Op::kCancel: {
      bool found = false, was_live = false;
      std::string killed_key;
      if (!d.store.cancel(req.id, found, was_live, killed_key, err))
        return false;
      if (!found) {
        conn.out += error_line("unknown job id '" + req.id + "'");
        return true;
      }
      if (!killed_key.empty()) {
        const auto tag = d.key_tag.find(killed_key);
        if (tag != d.key_tag.end()) d.pool.kill_child(tag->second);
      }
      json::Value v = json::Value::object();
      v.set("ok", json::Value::boolean(true));
      v.set("id", json::Value::string(req.id));
      v.set("canceled", json::Value::boolean(was_live));
      conn.out += response_line(v);
      return true;
    }
    case Request::Op::kWatch: {
      if (d.store.find_job(req.id) == nullptr) {
        conn.out += error_line("unknown job id '" + req.id + "'");
        return true;
      }
      conn.watching = true;
      conn.watch_id = req.id;
      conn.watch_off = 0;
      pump_watch(d, conn);  // terminal jobs answer immediately
      return true;
    }
    case Request::Op::kDrain: {
      d.draining = true;
      json::Value v = json::Value::object();
      v.set("ok", json::Value::boolean(true));
      v.set("draining", json::Value::boolean(true));
      conn.out += response_line(v);
      d.note("emx_serve: draining\n");
      return true;
    }
  }
  err = "unreachable op";
  return false;
}

void accept_conns(Daemon& d) {
  while (true) {
    const int fd = ::accept4(d.listen_fd, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;
    Conn c;
    c.fd = fd;
    d.conns.push_back(std::move(c));
  }
}

bool pump_conns(Daemon& d, std::string& err) {
  for (Conn& conn : d.conns) {
    // Read whatever is there.
    char buf[4096];
    while (true) {
      const ssize_t n = ::recv(conn.fd, buf, sizeof buf, 0);
      if (n > 0) {
        conn.in.append(buf, static_cast<std::size_t>(n));
        continue;
      }
      if (n == 0) conn.close_after_flush = true;  // peer finished sending
      break;
    }
    // Handle complete lines.
    std::size_t nl;
    while ((nl = conn.in.find('\n')) != std::string::npos) {
      const std::string line = conn.in.substr(0, nl);
      conn.in.erase(0, nl + 1);
      if (line.empty()) continue;
      if (!handle_request(d, conn, line, err)) return false;
    }
  }

  for (Conn& conn : d.conns)
    if (conn.watching) pump_watch(d, conn);

  // Flush, then reap finished connections.
  for (Conn& conn : d.conns) {
    while (!conn.out.empty()) {
      const ssize_t n =
          ::send(conn.fd, conn.out.data(), conn.out.size(), MSG_NOSIGNAL);
      if (n <= 0) {
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        conn.close_after_flush = true;  // peer gone; drop the rest
        conn.out.clear();
        break;
      }
      conn.out.erase(0, static_cast<std::size_t>(n));
    }
  }
  d.conns.erase(
      std::remove_if(d.conns.begin(), d.conns.end(),
                     [](Conn& c) {
                       // A watcher stays open until its job ends.
                       if (c.close_after_flush && c.out.empty() &&
                           !c.watching) {
                         ::close(c.fd);
                         return true;
                       }
                       return false;
                     }),
      d.conns.end());
  return true;
}

}  // namespace

int run_daemon(const DaemonOptions& opts, std::string& err) {
  if (opts.parallel == 0) {
    err = "--jobs must be >= 1";
    return 2;
  }
  if (::access(opts.emx_run.c_str(), X_OK) != 0) {
    err = "worker binary '" + opts.emx_run + "' is not executable";
    return 2;
  }
  jobs::Clock& clock = opts.clock != nullptr ? *opts.clock : jobs::real_clock();
  Daemon d(opts, clock);
  if (!d.store.open(opts.out_dir, opts.cache_max_bytes, err)) return 2;
  d.listen_fd = listen_unix(opts.socket_path, err);
  if (d.listen_fd < 0) return 2;

  // A watcher's socket closing mid-write must not kill the daemon.
  std::signal(SIGPIPE, SIG_IGN);
  struct sigaction sa {};
  sa.sa_handler = on_stop;
  ::sigemptyset(&sa.sa_mask);
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);
  g_stop = 0;

  d.note("emx_serve: listening on " + opts.socket_path + "\n");

  int code = 0;
  while (g_stop == 0) {
    accept_conns(d);
    if (!pump_conns(d, err) || !schedule(d, err)) {
      code = 2;
      break;
    }
    std::vector<jobs::ExitStatus> exits;
    d.pool.poll(exits);
    bool fatal = false;
    for (const jobs::ExitStatus& es : exits)
      if (!handle_exit(d, es, err)) {
        fatal = true;
        break;
      }
    if (fatal) {
      code = 2;
      break;
    }
    if (d.draining && d.store.all_terminal() && d.pool.running() == 0) {
      // Flush terminal watch events before leaving.
      if (!pump_conns(d, err)) code = 2;
      break;
    }
    clock.sleep_ms(5);
  }

  if (code == 0 && g_stop == 0 && d.draining) {
    std::string cerr2;
    if (!d.store.compact(cerr2))
      std::fprintf(stderr, "emx_serve: warning: %s\n", cerr2.c_str());
    d.note("emx_serve: drained\n");
  }
  for (Conn& c : d.conns) ::close(c.fd);
  ::close(d.listen_fd);
  ::unlink(opts.socket_path.c_str());
  return code;
}

}  // namespace emx::serve
