// emx_client — command-line client for the emx_serve daemon.
//
//   $ emx_client submit --socket=/tmp/emx.sock --app=sort --priority=7
//   {"id":"j1","tenant":"default",...,"state":"queued","ok":true}
//   $ emx_client watch  --socket=/tmp/emx.sock --id=j1
//   $ emx_client result --socket=/tmp/emx.sock --id=j1 > result.json
//
// The first argument is the subcommand (submit, status, result, list,
// cancel, watch, drain); the rest are flags. `result` prints the
// blessed result JSON exactly as the worker's --result-json file held
// it — byte-identical, which is what lets scripts `cmp` a served run
// against a direct emx_run (the serve chaos gate does exactly that).
//
// Exit codes: 0 ok; 1 the job failed / has no result yet; 2 bad usage,
// connection failure, or a daemon-side error response.
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/cli.hpp"
#include "common/json.hpp"

namespace {

using emx::json::Value;

int connect_unix(const std::string& path, std::string& err) {
  sockaddr_un addr{};
  if (path.empty()) {
    err = "--socket is required";
    return -1;
  }
  if (path.size() >= sizeof addr.sun_path) {
    err = "--socket path too long";
    return -1;
  }
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    err = std::string("socket: ") + std::strerror(errno);
    return -1;
  }
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size());
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    err = "cannot connect to '" + path + "': " + std::strerror(errno);
    ::close(fd);
    return -1;
  }
  return fd;
}

bool send_line(int fd, const std::string& line, std::string& err) {
  std::size_t off = 0;
  while (off < line.size()) {
    const ssize_t n =
        ::send(fd, line.data() + off, line.size() - off, MSG_NOSIGNAL);
    if (n <= 0) {
      err = std::string("send: ") + std::strerror(errno);
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

/// Blocking read of one newline-terminated line. Returns false on EOF
/// or error.
bool recv_line(int fd, std::string& buf, std::string& line, std::string& err) {
  while (true) {
    const std::size_t nl = buf.find('\n');
    if (nl != std::string::npos) {
      line = buf.substr(0, nl);
      buf.erase(0, nl + 1);
      return true;
    }
    char chunk[4096];
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n < 0) {
      err = std::string("recv: ") + std::strerror(errno);
      return false;
    }
    if (n == 0) {
      err = "connection closed by daemon";
      return false;
    }
    buf.append(chunk, static_cast<std::size_t>(n));
  }
}

/// Sends `request` and parses the first response line. Exits 2 on
/// transport trouble; returns the parsed response ({"ok":...}).
Value roundtrip(int fd, std::string& buf, const Value& request) {
  std::string err;
  if (!send_line(fd, request.dump() + "\n", err)) {
    std::fprintf(stderr, "emx_client: %s\n", err.c_str());
    std::exit(2);
  }
  std::string line;
  if (!recv_line(fd, buf, line, err)) {
    std::fprintf(stderr, "emx_client: %s\n", err.c_str());
    std::exit(2);
  }
  std::string perr;
  Value v = Value::parse(line, perr);
  if (!perr.empty() || !v.is_object()) {
    std::fprintf(stderr, "emx_client: bad response: %s\n", line.c_str());
    std::exit(2);
  }
  return v;
}

/// Exits 2 with the daemon's message when the response is not ok.
void need_ok(const Value& v) {
  if (const Value* ok = v.find("ok"); ok != nullptr && ok->as_bool()) return;
  const Value* msg = v.find("error");
  std::fprintf(stderr, "emx_client: %s\n",
               msg != nullptr ? msg->as_string().c_str() : "request refused");
  std::exit(2);
}

/// Parses a knob value the way JSON would (numbers, booleans), falling
/// back to a plain string ("detailed", "em4", "race", ...).
Value knob_value(const std::string& text) {
  std::string perr;
  Value v = Value::parse(text, perr);
  if (perr.empty() &&
      (v.is_number() || v.is_bool() || v.is_string()))
    return v;
  return Value::string(text);
}

/// Streams watch events for `id` until the terminal "end" line, echoing
/// each to stdout. Returns the final job object.
Value stream_watch(int fd, std::string& buf, const std::string& id,
                   bool echo_progress) {
  Value req = Value::object();
  req.set("op", Value::string("watch"));
  req.set("id", Value::string(id));
  std::string err;
  if (!send_line(fd, req.dump() + "\n", err)) {
    std::fprintf(stderr, "emx_client: %s\n", err.c_str());
    std::exit(2);
  }
  while (true) {
    std::string line;
    if (!recv_line(fd, buf, line, err)) {
      std::fprintf(stderr, "emx_client: %s\n", err.c_str());
      std::exit(2);
    }
    std::string perr;
    Value v = Value::parse(line, perr);
    if (!perr.empty() || !v.is_object()) {
      std::fprintf(stderr, "emx_client: bad stream line: %s\n", line.c_str());
      std::exit(2);
    }
    if (const Value* e = v.find("error"); e != nullptr) {
      std::fprintf(stderr, "emx_client: %s\n", e->as_string().c_str());
      std::exit(2);
    }
    const Value* ev = v.find("event");
    const std::string kind = ev != nullptr ? ev->as_string() : "";
    if (kind == "end") {
      const Value* job = v.find("job");
      return job != nullptr ? *job : Value::object();
    }
    if (echo_progress) std::printf("%s\n", line.c_str());
  }
}

int job_exit_code(const Value& job) {
  const Value* state = job.find("state");
  return (state != nullptr && state->as_string() == "done") ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  // CliFlags has no positional arguments by design; the subcommand is
  // argv[1] and the flags parser sees the rest.
  const std::string cmd = argc >= 2 ? argv[1] : "";
  const bool known = cmd == "submit" || cmd == "status" || cmd == "result" ||
                     cmd == "list" || cmd == "cancel" || cmd == "watch" ||
                     cmd == "drain";
  if (!known && cmd != "--help") {
    std::fprintf(stderr,
                 "usage: emx_client <submit|status|result|list|cancel|watch|"
                 "drain> --socket=PATH [flags]\n");
    return 2;
  }

  emx::CliFlags flags;
  flags.define("socket", "", "daemon Unix-domain socket path (required)")
      .define("id", "", "job id for status/result/cancel/watch")
      .define("tenant", "default", "submit: tenant label for fair share")
      .define("priority", "0", "submit: priority 0..9; higher preempts")
      .define("app", "", "submit: workload name")
      .define("procs", "", "submit: processor count (default 16)")
      .define("threads", "", "submit: threads/PE (default: app registry)")
      .define("size-per-proc", "", "submit: per-PE problem size")
      .define("seed", "", "submit: workload seed (default 1)")
      .define("knobs", "",
              "submit: comma list of manifest knobs, name=value (same "
              "names as sweep-spec base; docs/JOBS.md)")
      .define("wait", "false",
              "submit: block until the job is terminal; drain: block "
              "until the daemon has exited");
  if (cmd == "--help") {
    std::printf("%s", flags.help_text("emx_client <cmd>").c_str());
    return 0;
  }
  std::vector<const char*> shifted;
  shifted.push_back(argv[0]);
  for (int i = 2; i < argc; ++i) shifted.push_back(argv[i]);
  flags.parse(static_cast<int>(shifted.size()), shifted.data());

  std::string err;
  const int fd = connect_unix(flags.str("socket"), err);
  if (fd < 0) {
    std::fprintf(stderr, "emx_client: %s\n", err.c_str());
    return 2;
  }
  std::string buf;

  if (cmd == "submit") {
    if (flags.str("app").empty()) {
      std::fprintf(stderr, "emx_client: submit needs --app\n");
      return 2;
    }
    Value run = Value::object();
    run.set("app", Value::string(flags.str("app")));
    for (const char* axis : {"procs", "threads", "size-per-proc", "seed"}) {
      if (flags.str(axis).empty()) continue;
      std::string name = axis;
      for (char& c : name)
        if (c == '-') c = '_';
      run.set(name, Value::integer(flags.integer(axis)));
    }
    if (!flags.str("knobs").empty()) {
      std::string csv = flags.str("knobs");
      std::size_t pos = 0;
      while (pos <= csv.size()) {
        const std::size_t comma = csv.find(',', pos);
        const std::string item = csv.substr(
            pos,
            comma == std::string::npos ? std::string::npos : comma - pos);
        const std::size_t eq = item.find('=');
        if (eq == std::string::npos || eq == 0) {
          std::fprintf(stderr,
                       "emx_client: --knobs entry '%s' is not name=value\n",
                       item.c_str());
          return 2;
        }
        run.set(item.substr(0, eq), knob_value(item.substr(eq + 1)));
        if (comma == std::string::npos) break;
        pos = comma + 1;
      }
    }
    Value req = Value::object();
    req.set("op", Value::string("submit"));
    req.set("tenant", Value::string(flags.str("tenant")));
    req.set("priority", Value::integer(flags.integer("priority")));
    req.set("run", std::move(run));
    Value resp = roundtrip(fd, buf, req);
    need_ok(resp);
    std::printf("%s\n", resp.dump().c_str());
    if (flags.boolean("wait")) {
      const Value* state = resp.find("state");
      if (state != nullptr && state->as_string() != "done" &&
          state->as_string() != "failed" &&
          state->as_string() != "canceled") {
        const Value* id = resp.find("id");
        const Value job = stream_watch(
            fd, buf, id != nullptr ? id->as_string() : "", false);
        std::printf("%s\n", job.dump().c_str());
        ::close(fd);
        return job_exit_code(job);
      }
      ::close(fd);
      return job_exit_code(resp);
    }
    ::close(fd);
    return 0;
  }

  if (cmd == "status" || cmd == "cancel") {
    if (flags.str("id").empty()) {
      std::fprintf(stderr, "emx_client: %s needs --id\n", cmd.c_str());
      return 2;
    }
    Value req = Value::object();
    req.set("op", Value::string(cmd));
    req.set("id", Value::string(flags.str("id")));
    Value resp = roundtrip(fd, buf, req);
    need_ok(resp);
    std::printf("%s\n", resp.dump().c_str());
    ::close(fd);
    return 0;
  }

  if (cmd == "result") {
    if (flags.str("id").empty()) {
      std::fprintf(stderr, "emx_client: result needs --id\n");
      return 2;
    }
    Value req = Value::object();
    req.set("op", Value::string("status"));
    req.set("id", Value::string(flags.str("id")));
    Value resp = roundtrip(fd, buf, req);
    need_ok(resp);
    const Value* result = resp.find("result");
    if (result == nullptr) {
      const Value* status = resp.find("status");
      std::fprintf(stderr, "emx_client: %s has no result (status: %s)\n",
                   flags.str("id").c_str(),
                   status != nullptr ? status->as_string().c_str() : "?");
      ::close(fd);
      return 1;
    }
    // Deterministic dump + newline reproduces the worker's result.json
    // byte for byte (the CI chaos gate cmp's on this).
    std::printf("%s\n", result->dump().c_str());
    ::close(fd);
    return 0;
  }

  if (cmd == "list") {
    Value req = Value::object();
    req.set("op", Value::string("list"));
    Value resp = roundtrip(fd, buf, req);
    need_ok(resp);
    std::printf("%s\n", resp.dump(2).c_str());
    ::close(fd);
    return 0;
  }

  if (cmd == "watch") {
    if (flags.str("id").empty()) {
      std::fprintf(stderr, "emx_client: watch needs --id\n");
      return 2;
    }
    const Value job = stream_watch(fd, buf, flags.str("id"), true);
    std::printf("%s\n", job.dump().c_str());
    ::close(fd);
    return job_exit_code(job);
  }

  // drain
  Value req = Value::object();
  req.set("op", Value::string("drain"));
  Value resp = roundtrip(fd, buf, req);
  need_ok(resp);
  std::printf("%s\n", resp.dump().c_str());
  ::close(fd);
  if (flags.boolean("wait")) {
    // The daemon exits (and unlinks its socket) once drained; poll
    // until connect fails.
    while (true) {
      std::string probe_err;
      const int probe = connect_unix(flags.str("socket"), probe_err);
      if (probe < 0) break;
      ::close(probe);
      ::usleep(100 * 1000);
    }
  }
  return 0;
}
