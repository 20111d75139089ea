#include "jobs/process_pool.hpp"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

namespace emx::jobs {

namespace {

/// Opens `path` for child-side stdout/stderr capture; returns -1 and
/// perror-style message on failure. Runs in the parent (before fork) so
/// failures are reportable.
int open_capture(const std::string& path, std::string& err) {
  const int fd =
      ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0)
    err = "cannot open capture file '" + path + "': " + std::strerror(errno);
  return fd;
}

}  // namespace

ProcessPool::~ProcessPool() { kill_all(); }

pid_t ProcessPool::start(const Command& cmd, std::uint64_t tag,
                         std::int64_t timeout_ms, std::string& err) {
  if (cmd.argv.empty()) {
    err = "empty argv";
    return -1;
  }

  int out_fd = -1, err_fd = -1;
  if (!cmd.stdout_path.empty()) {
    out_fd = open_capture(cmd.stdout_path, err);
    if (out_fd < 0) return -1;
  }
  if (!cmd.stderr_path.empty()) {
    err_fd = open_capture(cmd.stderr_path, err);
    if (err_fd < 0) {
      if (out_fd >= 0) ::close(out_fd);
      return -1;
    }
  }

  std::vector<char*> argv;
  argv.reserve(cmd.argv.size() + 1);
  for (const std::string& a : cmd.argv)
    argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);

  const pid_t pid = ::fork();
  if (pid < 0) {
    err = std::string("fork: ") + std::strerror(errno);
    if (out_fd >= 0) ::close(out_fd);
    if (err_fd >= 0) ::close(err_fd);
    return -1;
  }
  if (pid == 0) {
    // Child. Only async-signal-safe calls from here to exec.
    if (out_fd >= 0) ::dup2(out_fd, STDOUT_FILENO);
    if (err_fd >= 0) ::dup2(err_fd, STDERR_FILENO);
    ::execv(argv[0], argv.data());
    // exec failed: report on (possibly redirected) stderr and bail with
    // an exit code the job core classifies as permanent.
    const auto say = [](const char* s) {
      const ssize_t n = ::write(STDERR_FILENO, s, std::strlen(s));
      (void)n;
    };
    say("emx worker: exec failed: ");
    say(std::strerror(errno));
    say("\n");
    ::_exit(127);
  }

  if (out_fd >= 0) ::close(out_fd);
  if (err_fd >= 0) ::close(err_fd);

  Child c;
  c.pid = pid;
  c.tag = tag;
  c.deadline_ms = timeout_ms > 0 ? clock_.now_ms() + timeout_ms : 0;
  children_.push_back(c);
  return pid;
}

std::size_t ProcessPool::poll(std::vector<ExitStatus>& out) {
  const std::int64_t now = clock_.now_ms();
  std::size_t reaped = 0;

  for (Child& c : children_) {
    if (c.deadline_ms != 0 && !c.killed_for_timeout && now >= c.deadline_ms) {
      ::kill(c.pid, SIGKILL);
      c.killed_for_timeout = true;  // reap below / on a later poll
    }
  }

  for (std::size_t i = 0; i < children_.size();) {
    Child& c = children_[i];
    int status = 0;
    const pid_t r = ::waitpid(c.pid, &status, WNOHANG);
    if (r == 0) {
      ++i;
      continue;
    }
    ExitStatus es;
    es.pid = c.pid;
    es.tag = c.tag;
    es.timed_out = c.killed_for_timeout;
    es.preempted = c.killed_for_preempt;
    if (r < 0) {
      // ECHILD etc. — lost track of it; surface as a kill so the
      // job core retries rather than hanging forever.
      es.signaled = true;
      es.sig = SIGKILL;
    } else if (WIFSIGNALED(status)) {
      es.signaled = true;
      es.sig = WTERMSIG(status);
    } else {
      es.code = WIFEXITED(status) ? WEXITSTATUS(status) : 1;
    }
    out.push_back(es);
    children_.erase(children_.begin() + static_cast<std::ptrdiff_t>(i));
    ++reaped;
  }
  return reaped;
}

bool ProcessPool::kill_child(std::uint64_t tag) {
  for (Child& c : children_) {
    if (c.tag != tag) continue;
    c.killed_for_preempt = true;  // reaped by a later poll()
    return ::kill(c.pid, SIGKILL) == 0;
  }
  return false;
}

void ProcessPool::kill_all() {
  for (const Child& c : children_) ::kill(c.pid, SIGKILL);
  for (const Child& c : children_) {
    int status = 0;
    ::waitpid(c.pid, &status, 0);
  }
  children_.clear();
}

}  // namespace emx::jobs
