#include "serve/daemon.hpp"

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/fsio.hpp"
#include "serve/protocol.hpp"
#include "snapshot/progress.hpp"

namespace emx::serve {

namespace {

using jobs::Exec;
using jobs::JobRecord;

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
  jobs::Core core;
  jobs::JobStore& store;
  std::vector<Conn> conns;
  int listen_fd = -1;
  bool draining = false;

  explicit Daemon(const DaemonOptions& o)
      : opts(o), core(o), store(core.store()) {}

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
      if (!d.core.cancel(req.id, found, was_live, err)) return false;
      if (!found) {
        conn.out += error_line("unknown job id '" + req.id + "'");
        return true;
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
  Daemon d(opts);
  jobs::JournalEntry header;
  header.event = "serve";
  header.raw_fields = {{"name", json::quote("serve")}, {"version", "1"}};
  if (!d.core.open(header, err)) return 2;
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
    bool progressed = false;
    if (!pump_conns(d, err) || !d.core.step(progressed, err)) {
      code = 2;
      break;
    }
    if (d.draining && d.core.idle()) {
      // Flush terminal watch events before leaving.
      if (!pump_conns(d, err)) code = 2;
      break;
    }
    d.core.clock().sleep_ms(5);
  }

  if (code == 0 && g_stop == 0 && d.draining) {
    std::string cerr2;
    if (!d.store.compact(/*drop_cached_reruns=*/false, cerr2))
      std::fprintf(stderr, "emx_serve: warning: %s\n", cerr2.c_str());
    d.note("emx_serve: drained\n");
  }
  for (Conn& c : d.conns) ::close(c.fd);
  ::close(d.listen_fd);
  ::unlink(opts.socket_path.c_str());
  return code;
}

}  // namespace emx::serve
