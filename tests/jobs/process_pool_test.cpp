// ProcessPool — fork/exec mechanics, exit/signal/timeout reporting.
#include "jobs/process_pool.hpp"

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <signal.h>

#include <gtest/gtest.h>

#include "common/test_dir.hpp"

namespace emx::jobs {
namespace {

namespace fs = std::filesystem;

Command sh(const std::string& script) {
  Command c;
  c.argv = {"/bin/sh", "-c", script};
  return c;
}

/// Polls until `want` children have exited (with a generous wall cap so
/// a regression hangs the test, not CI).
std::vector<ExitStatus> drain(ProcessPool& pool, std::size_t want) {
  std::vector<ExitStatus> out;
  for (int spins = 0; out.size() < want && spins < 20000; ++spins) {
    pool.poll(out);
    if (out.size() < want) real_clock().sleep_ms(1);
  }
  return out;
}

TEST(ProcessPool, ReportsExitCodes) {
  ProcessPool pool(real_clock());
  std::string err;
  ASSERT_GE(pool.start(sh("exit 0"), 10, 0, err), 0) << err;
  ASSERT_GE(pool.start(sh("exit 5"), 11, 0, err), 0) << err;
  ASSERT_GE(pool.start(sh("exit 42"), 12, 0, err), 0) << err;
  const std::vector<ExitStatus> exits = drain(pool, 3);
  ASSERT_EQ(exits.size(), 3u);
  EXPECT_EQ(pool.running(), 0u);
  for (const ExitStatus& es : exits) {
    EXPECT_FALSE(es.signaled);
    EXPECT_FALSE(es.timed_out);
    if (es.tag == 10) EXPECT_EQ(es.code, 0);
    if (es.tag == 11) EXPECT_EQ(es.code, 5);
    if (es.tag == 12) EXPECT_EQ(es.code, 42);
  }
}

TEST(ProcessPool, ReportsSignals) {
  ProcessPool pool(real_clock());
  std::string err;
  ASSERT_GE(pool.start(sh("kill -9 $$"), 1, 0, err), 0) << err;
  const std::vector<ExitStatus> exits = drain(pool, 1);
  ASSERT_EQ(exits.size(), 1u);
  EXPECT_TRUE(exits[0].signaled);
  EXPECT_EQ(exits[0].sig, SIGKILL);
  EXPECT_FALSE(exits[0].timed_out);
}

TEST(ProcessPool, KillsAtTheDeadlineAndFlagsTimeout) {
  ProcessPool pool(real_clock());
  std::string err;
  // Would sleep 30 s; the 100 ms deadline must SIGKILL it long before.
  // `exec` makes the sleeper the child itself: a forked `sleep` would
  // survive the shell's SIGKILL and hold the test's stdout open.
  ASSERT_GE(pool.start(sh("exec sleep 30"), 7, 100, err), 0) << err;
  const std::vector<ExitStatus> exits = drain(pool, 1);
  ASSERT_EQ(exits.size(), 1u);
  EXPECT_TRUE(exits[0].timed_out);
  EXPECT_TRUE(exits[0].signaled);
  EXPECT_EQ(exits[0].sig, SIGKILL);
}

TEST(ProcessPool, CapturesStdoutAndStderr) {
  const fs::path dir = emx::test::test_dir();
  fs::remove_all(dir);
  fs::create_directories(dir);
  ProcessPool pool(real_clock());
  Command cmd = sh("echo to-out; echo to-err 1>&2");
  cmd.stdout_path = (dir / "out").string();
  cmd.stderr_path = (dir / "err").string();
  std::string err;
  ASSERT_GE(pool.start(cmd, 1, 0, err), 0) << err;
  drain(pool, 1);
  const auto slurp = [](const fs::path& p) {
    std::ifstream in(p);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
  };
  EXPECT_EQ(slurp(dir / "out"), "to-out\n");
  EXPECT_EQ(slurp(dir / "err"), "to-err\n");
  fs::remove_all(dir);
}

TEST(ProcessPool, ExecFailureIsExit127) {
  ProcessPool pool(real_clock());
  Command cmd;
  cmd.argv = {"/nonexistent/binary"};
  std::string err;
  ASSERT_GE(pool.start(cmd, 1, 0, err), 0) << err;
  const std::vector<ExitStatus> exits = drain(pool, 1);
  ASSERT_EQ(exits.size(), 1u);
  EXPECT_FALSE(exits[0].signaled);
  EXPECT_EQ(exits[0].code, 127);
}

TEST(ProcessPool, KillAllReapsEverything) {
  ProcessPool pool(real_clock());
  std::string err;
  for (std::uint64_t i = 0; i < 3; ++i)
    ASSERT_GE(pool.start(sh("exec sleep 30"), i, 0, err), 0) << err;
  EXPECT_EQ(pool.running(), 3u);
  pool.kill_all();
  EXPECT_EQ(pool.running(), 0u);
}

TEST(ProcessPool, EmptyArgvIsRefused) {
  ProcessPool pool(real_clock());
  std::string err;
  EXPECT_LT(pool.start(Command{}, 0, 0, err), 0);
  EXPECT_NE(err, "");
}

}  // namespace
}  // namespace emx::jobs
