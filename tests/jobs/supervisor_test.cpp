// Job-core policy units plus sweep retry/degradation behaviour against
// stub workers (shell scripts standing in for emx_run, so failure
// schedules are exact and the tests stay fast).
#include "jobs/sweep.hpp"

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include <sys/stat.h>

#include <gtest/gtest.h>

#include "common/fsio.hpp"
#include "common/test_dir.hpp"

namespace emx::jobs {
namespace {

namespace fs = std::filesystem;

ExitStatus exited(int code) {
  ExitStatus es;
  es.code = code;
  return es;
}

ExitStatus killed(int sig) {
  ExitStatus es;
  es.signaled = true;
  es.sig = sig;
  return es;
}

TEST(SupervisorPolicy, ClassifiesEmxRunExitCodes) {
  EXPECT_EQ(classify_exit(exited(0)), ExitClass::kOk);
  // Deterministic verdicts: retrying would reproduce them.
  for (const int code : {1, 2, 3, 4, 6, 127, 42})
    EXPECT_EQ(classify_exit(exited(code)), ExitClass::kPermanent) << code;
  // Snapshot divergence taints the checkpoint chain itself.
  EXPECT_EQ(classify_exit(exited(5)), ExitClass::kRetryScratch);
  EXPECT_EQ(classify_exit(killed(9)), ExitClass::kRetryResume);
  EXPECT_EQ(classify_exit(killed(15)), ExitClass::kRetryResume);
  ExitStatus timeout = killed(9);
  timeout.timed_out = true;
  EXPECT_EQ(classify_exit(timeout), ExitClass::kRetryResume);
}

TEST(SupervisorPolicy, ExitReasonsAreStableTokens) {
  EXPECT_EQ(exit_reason(exited(1)), "wrong-result");
  EXPECT_EQ(exit_reason(exited(3)), "checker");
  EXPECT_EQ(exit_reason(exited(4)), "watchdog");
  EXPECT_EQ(exit_reason(exited(5)), "snapshot-divergence");
  EXPECT_EQ(exit_reason(exited(127)), "exec-failed");
  EXPECT_EQ(exit_reason(exited(42)), "exit-42");
  EXPECT_EQ(exit_reason(killed(9)), "signal-9");
  ExitStatus timeout = killed(9);
  timeout.timed_out = true;
  EXPECT_EQ(exit_reason(timeout), "timeout");
}

TEST(SupervisorPolicy, BackoffDoublesToTheCap) {
  EXPECT_EQ(backoff_delay_ms(1, 250, 8000), 250);
  EXPECT_EQ(backoff_delay_ms(2, 250, 8000), 500);
  EXPECT_EQ(backoff_delay_ms(3, 250, 8000), 1000);
  EXPECT_EQ(backoff_delay_ms(6, 250, 8000), 8000);
  EXPECT_EQ(backoff_delay_ms(60, 250, 8000), 8000) << "no overflow";
  EXPECT_EQ(backoff_delay_ms(1, 0, 8000), 0);
  EXPECT_EQ(backoff_delay_ms(4, 100, 50), 100) << "cap below base: base wins";
}

TEST(SupervisorPolicy, LatestCheckpointIgnoresCrashDumpsAndPicksNewest) {
  const fs::path dir = emx::test::test_dir();
  fs::remove_all(dir);
  fs::create_directories(dir);
  const auto touch = [&dir](const std::string& name) {
    std::ofstream((dir / name).string()) << "x";
  };
  EXPECT_EQ(latest_checkpoint(dir.string(), "sort"), "");
  touch("sort-c000000000100.emxsnap");
  touch("sort-c000000002000.emxsnap");
  touch("sort-c000000000900.emxsnap");
  touch("crash-sort.emxsnap");     // never a resume candidate
  touch("bfs-c000000009000.emxsnap");  // different app
  EXPECT_EQ(latest_checkpoint(dir.string(), "sort"),
            (dir / "sort-c000000002000.emxsnap").string());
  EXPECT_EQ(latest_checkpoint((dir / "missing").string(), "sort"), "");
  fs::remove_all(dir);
}

// --- stub-worker integration ------------------------------------------

class SupervisorStubTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = emx::test::test_dir();
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  /// Installs an executable stub standing in for emx_run. The stub's
  /// script body can use $out (the --result-json target path).
  std::string install_stub(const std::string& body) {
    const std::string path = (dir_ / "fake_emx_run").string();
    std::ofstream out(path);
    out << "#!/bin/sh\n"
           "out=\"\"\n"
           "for a in \"$@\"; do\n"
           "  case \"$a\" in\n"
           "    --result-json=*) out=\"${a#--result-json=}\" ;;\n"
           "  esac\n"
           "done\n"
        << body << "\n";
    out.close();
    ::chmod(path.c_str(), 0755);
    return path;
  }

  SweepOptions base_options(const std::string& stub) {
    SweepOptions opts;
    opts.spec.name = "stub";
    opts.spec.apps = {"sort"};
    opts.spec.procs = {4};
    opts.spec.threads = {2};
    opts.spec.sizes_per_proc = {64};
    opts.spec.seeds = {1};
    opts.out_dir = (dir_ / "out").string();
    opts.emx_run = stub;
    opts.parallel = 2;
    opts.max_retries = 2;
    opts.backoff_ms = 1;  // keep retry schedules fast under test
    opts.quiet = true;
    return opts;
  }

  static std::string slurp(const std::string& p) {
    std::ifstream in(p, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
  }

  fs::path dir_;
};

TEST_F(SupervisorStubTest, HappyPathBlessesResultsIntoTheCache) {
  const std::string stub = install_stub(
      "printf '{\"exit_code\":0,\"cycles\":123}' > \"$out\"\nexit 0");
  SweepOutcome outcome;
  std::string err;
  const int code = run_sweep(base_options(stub), outcome, err);
  EXPECT_EQ(code, 0) << err;
  ASSERT_EQ(outcome.cells.size(), 1u);
  EXPECT_EQ(outcome.cells[0].status, "ok");
  EXPECT_EQ(outcome.cells[0].attempts, 1u);
  EXPECT_EQ(outcome.cells[0].result_bytes,
            "{\"exit_code\":0,\"cycles\":123}");
  // Blessed into the cache under the manifest key.
  const std::string cached =
      slurp((dir_ / "out" / "cache" / (outcome.cells[0].key + ".json"))
                .string());
  EXPECT_EQ(cached, outcome.cells[0].result_bytes);
  EXPECT_TRUE(fs::exists(outcome.aggregate_path));
  EXPECT_TRUE(fs::exists(outcome.provenance_path));
}

TEST_F(SupervisorStubTest, CrashOnceThenOkRetriesAndSucceeds) {
  // First invocation SIGKILLs itself; later ones produce a result.
  const std::string stub = install_stub(
      "if [ ! -e \"$out.once\" ]; then touch \"$out.once\"; kill -9 $$; fi\n"
      "printf '{\"exit_code\":0,\"cycles\":123}' > \"$out\"\nexit 0");
  SweepOutcome outcome;
  std::string err;
  const int code = run_sweep(base_options(stub), outcome, err);
  EXPECT_EQ(code, 0) << err;
  ASSERT_EQ(outcome.cells.size(), 1u);
  EXPECT_EQ(outcome.cells[0].status, "ok");  // no checkpoint → fresh retry
  EXPECT_EQ(outcome.cells[0].attempts, 2u);
}

TEST_F(SupervisorStubTest, PermanentFailureIsNeverRetried) {
  const std::string stub = install_stub("exit 3");  // checker findings
  SweepOutcome outcome;
  std::string err;
  const int code = run_sweep(base_options(stub), outcome, err);
  EXPECT_EQ(code, 1);
  ASSERT_EQ(outcome.cells.size(), 1u);
  EXPECT_EQ(outcome.cells[0].status, "failed:checker");
  EXPECT_EQ(outcome.cells[0].attempts, 1u) << "deterministic verdicts "
                                              "must not burn retries";
}

TEST_F(SupervisorStubTest, ExhaustedRetriesDegradeWithProvenance) {
  const std::string stub = install_stub("kill -9 $$");
  SweepOutcome outcome;
  std::string err;
  const int code = run_sweep(base_options(stub), outcome, err);
  EXPECT_EQ(code, 1);
  ASSERT_EQ(outcome.cells.size(), 1u);
  EXPECT_EQ(outcome.cells[0].status, "failed:signal-9");
  EXPECT_EQ(outcome.cells[0].attempts, 3u) << "1 try + max_retries=2";
  // The aggregate still emits, with the cell marked failed.
  const std::string agg = slurp(outcome.aggregate_path);
  EXPECT_NE(agg.find("failed:signal-9"), std::string::npos);
  EXPECT_NE(agg.find("\"result\": null"), std::string::npos);
}

TEST_F(SupervisorStubTest, SecondInvocationServesFromCache) {
  const std::string stub = install_stub(
      "printf '{\"exit_code\":0,\"cycles\":123}' > \"$out\"\nexit 0");
  SweepOutcome first, second;
  std::string err;
  ASSERT_EQ(run_sweep(base_options(stub), first, err), 0) << err;
  const std::string agg1 = slurp(first.aggregate_path);
  // Replace the stub with one that would fail — the cache must answer.
  const std::string broken = install_stub("exit 3");
  ASSERT_EQ(run_sweep(base_options(broken), second, err), 0) << err;
  EXPECT_EQ(second.cells[0].status, "cached");
  EXPECT_EQ(slurp(second.aggregate_path), agg1) << "byte-identical";
}

TEST_F(SupervisorStubTest, MixingSweepsInOneOutDirIsRefused) {
  const std::string stub = install_stub(
      "printf '{\"exit_code\":0,\"cycles\":123}' > \"$out\"\nexit 0");
  SweepOutcome outcome;
  std::string err;
  ASSERT_EQ(run_sweep(base_options(stub), outcome, err), 0) << err;
  SweepOptions other = base_options(stub);
  other.spec.seeds = {1, 2};  // different grid → different digest
  const int code = run_sweep(other, outcome, err);
  EXPECT_EQ(code, 2);
  EXPECT_NE(err.find("digest"), std::string::npos) << err;
}

TEST_F(SupervisorStubTest, LyingWorkerIsCaughtByResultValidation) {
  // Exit 0 but never writes the result file: must not be blessed.
  const std::string stub = install_stub("exit 0");
  SweepOutcome outcome;
  std::string err;
  const int code = run_sweep(base_options(stub), outcome, err);
  EXPECT_EQ(code, 1);
  ASSERT_EQ(outcome.cells.size(), 1u);
  EXPECT_EQ(outcome.cells[0].status, "failed:no-result-file");
}

TEST_F(SupervisorStubTest, MissingWorkerBinaryIsSetupError) {
  SweepOptions opts = base_options((dir_ / "nonexistent").string());
  SweepOutcome outcome;
  std::string err;
  EXPECT_EQ(run_sweep(opts, outcome, err), 2);
  EXPECT_NE(err.find("not executable"), std::string::npos) << err;
}

}  // namespace
}  // namespace emx::jobs
