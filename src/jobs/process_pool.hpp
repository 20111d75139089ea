// Bounded fork/exec worker pool for the job core (jobs/core.hpp).
//
// The pool owns the POSIX mechanics — fork, exec, stdout/stderr
// redirection, non-blocking reaps, deadline kills — and nothing else.
// Policy (which job to start, whether to retry, what an exit code
// means) lives in the core; the pool only answers "what is
// running" and "who just exited, and how".
//
// Hang handling is a hard SIGKILL at the caller-supplied deadline:
// a wedged worker cannot be trusted to honour SIGTERM, and the
// checkpoint + resume machinery makes a kill cheap to recover from.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include <sys/types.h>

#include "jobs/clock.hpp"

namespace emx::jobs {

/// One command to run: argv plus capture files for its output. An empty
/// capture path inherits the caller's own stream.
struct Command {
  std::vector<std::string> argv;
  std::string stdout_path;
  std::string stderr_path;
};

/// How a worker left the pool.
struct ExitStatus {
  pid_t pid = -1;
  std::uint64_t tag = 0;   ///< caller's token from start()
  bool signaled = false;   ///< died to a signal (sig set, code invalid)
  int code = 0;            ///< exit code when !signaled
  int sig = 0;             ///< terminating signal when signaled
  bool timed_out = false;  ///< the pool SIGKILLed it at its deadline
  bool preempted = false;  ///< the caller killed it via kill_child()
};

class ProcessPool {
 public:
  explicit ProcessPool(Clock& clock) : clock_(clock) {}
  ~ProcessPool();

  ProcessPool(const ProcessPool&) = delete;
  ProcessPool& operator=(const ProcessPool&) = delete;

  /// Forks and execs `cmd`. `tag` is an opaque caller token carried into
  /// the ExitStatus. `timeout_ms` <= 0 means no deadline. Returns the
  /// pid, or -1 with `err` set.
  pid_t start(const Command& cmd, std::uint64_t tag, std::int64_t timeout_ms,
              std::string& err);

  std::size_t running() const { return children_.size(); }

  /// Reaps any children that have exited (non-blocking) and SIGKILLs any
  /// past their deadline. Appends one ExitStatus per departed child to
  /// `out`; returns the number appended.
  std::size_t poll(std::vector<ExitStatus>& out);

  /// SIGKILLs and reaps every child. Used on shutdown paths.
  void kill_all();

  /// SIGKILLs the child tagged `tag` on the caller's behalf (the
  /// emx_serve daemon's preemption); its eventual ExitStatus carries
  /// `preempted = true` so the caller can distinguish its own kill from
  /// a crash or a deadline kill. Returns false when no such child is
  /// running.
  bool kill_child(std::uint64_t tag);

 private:
  struct Child {
    pid_t pid = -1;
    std::uint64_t tag = 0;
    std::int64_t deadline_ms = 0;  ///< 0 = none
    bool killed_for_timeout = false;
    bool killed_for_preempt = false;
  };

  Clock& clock_;
  std::vector<Child> children_;
};

}  // namespace emx::jobs
