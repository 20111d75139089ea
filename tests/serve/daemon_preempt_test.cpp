// Daemon preemption end to end: a priority-9 submission on a full
// one-slot daemon kills the running low-priority worker at once, runs
// to completion, and the victim is re-queued with no retry spent —
// restarting from scratch, because periodic checkpoints are off.
#include "serve/daemon.hpp"

#include <csignal>
#include <cstring>
#include <filesystem>
#include <string>

#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "common/json.hpp"
#include "common/test_dir.hpp"
#include "jobs/clock.hpp"

namespace emx::serve {
namespace {

namespace fs = std::filesystem;
using json::Value;

class DaemonPreemptTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = emx::test::test_dir();
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    socket_ = (dir_ / "s.sock").string();
  }
  void TearDown() override {
    // A test that stopped early leaves the daemon running: SIGTERM makes
    // it exit its loop and kill its workers.
    if (daemon_ > 0) {
      ::kill(daemon_, SIGTERM);
      ::waitpid(daemon_, nullptr, 0);
    }
    fs::remove_all(dir_);
  }

  /// Runs the daemon in a child process.
  void start_daemon(const DaemonOptions& opts) {
    daemon_ = ::fork();
    if (daemon_ == 0) {
      std::string err;
      ::_exit(run_daemon(opts, err));
    }
    ASSERT_GT(daemon_, 0);
  }

  /// Waits for the daemon to exit; returns its exit code.
  int join_daemon() {
    int status = 0;
    ::waitpid(daemon_, &status, 0);
    daemon_ = -1;
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }

  /// Connects to the daemon, retrying while it starts listening.
  int connect_daemon() {
    for (int i = 0; i < 2000; ++i) {
      const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
      sockaddr_un addr{};
      addr.sun_family = AF_UNIX;
      std::memcpy(addr.sun_path, socket_.c_str(), socket_.size());
      if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0)
        return fd;
      ::close(fd);
      jobs::real_clock().sleep_ms(5);
    }
    ADD_FAILURE() << "daemon never listened on " << socket_;
    return -1;
  }

  /// Sends `request` on a fresh connection and returns the first
  /// response line whose "event" is not "progress", parsed.
  Value call(const std::string& request) {
    const int fd = connect_daemon();
    if (fd < 0) return Value::object();
    const std::string line = request + "\n";
    EXPECT_EQ(::send(fd, line.data(), line.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(line.size()));
    std::string buf;
    Value v = Value::object();
    for (bool more = true; more;) {
      const std::size_t nl = buf.find('\n');
      if (nl == std::string::npos) {
        char chunk[4096];
        const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
        if (n <= 0) break;
        buf.append(chunk, static_cast<std::size_t>(n));
        continue;
      }
      std::string perr;
      v = Value::parse(buf.substr(0, nl), perr);
      buf.erase(0, nl + 1);
      const Value* ev = v.find("event");
      more = ev != nullptr && ev->as_string() == "progress";
    }
    ::close(fd);
    return v;
  }

  static std::string field(const Value& v, const std::string& key) {
    const Value* f = v.find(key);
    return f != nullptr ? f->as_string() : "";
  }
  static std::int64_t count(const Value& v, const std::string& key) {
    const Value* f = v.find(key);
    return f != nullptr ? f->as_int(-1) : -1;
  }

  fs::path dir_;
  std::string socket_;
  pid_t daemon_ = -1;
};

TEST_F(DaemonPreemptTest, HigherPriorityWorkKillsTheVictimOutright) {
  DaemonOptions opts;
  opts.socket_path = socket_;
  opts.out_dir = (dir_ / "out").string();
  opts.emx_run = EMX_RUN_BIN;
  opts.parallel = 1;
  opts.checkpoint_every = 0;
  opts.quiet = true;
  start_daemon(opts);

  // A: a long low-priority sort, left running in the only slot.
  const Value a = call(
      R"({"op":"submit","tenant":"slow","priority":0,"run":)"
      R"({"app":"sort","procs":16,"threads":4,"size_per_proc":16384}})");
  const std::string a_id = field(a, "id");
  ASSERT_FALSE(a_id.empty()) << a.dump();
  std::string state;
  for (int i = 0; i < 6000 && state != "running"; ++i) {
    jobs::real_clock().sleep_ms(5);
    state = field(call(R"({"op":"status","id":")" + a_id + R"("})"), "state");
  }
  ASSERT_EQ(state, "running");

  // B: a small priority-9 job, watched to its end.
  const Value b = call(
      R"({"op":"submit","tenant":"fast","priority":9,"run":)"
      R"({"app":"sort","procs":4,"threads":2,"size_per_proc":64}})");
  const std::string b_id = field(b, "id");
  ASSERT_FALSE(b_id.empty()) << b.dump();
  const Value end = call(R"({"op":"watch","id":")" + b_id + R"("})");
  ASSERT_EQ(field(end, "event"), "end") << end.dump();
  const Value* b_job = end.find("job");
  ASSERT_NE(b_job, nullptr);
  EXPECT_EQ(field(*b_job, "state"), "done") << b_job->dump();
  // A blessed success leaves no checkpoint directory behind.
  EXPECT_FALSE(fs::exists(fs::path(opts.out_dir) / "jobs" /
                          field(*b_job, "key") / "ck"));

  // A was killed once and, with no periodic checkpoint, restarted from
  // scratch: an on-demand checkpoint would have made this a resume.
  const Value a_status = call(R"({"op":"status","id":")" + a_id + R"("})");
  EXPECT_EQ(count(a_status, "preempts"), 1) << a_status.dump();
  EXPECT_EQ(count(a_status, "resumes"), 0) << a_status.dump();

  const Value canceled = call(R"({"op":"cancel","id":")" + a_id + R"("})");
  EXPECT_TRUE(canceled.find("canceled") != nullptr &&
              canceled.find("canceled")->as_bool())
      << canceled.dump();
  call(R"({"op":"drain"})");
  EXPECT_EQ(join_daemon(), 0);
}

}  // namespace
}  // namespace emx::serve
