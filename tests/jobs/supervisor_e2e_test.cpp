// End-to-end: a sweep driving the real emx_run binary (EMX_RUN_BIN,
// injected by CMake) through the job core. Covers the full story:
// verified results, cache convergence, worker-flag fidelity, and a
// SIGKILL'd sweep converging to a byte-identical aggregate.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "common/json.hpp"
#include "common/test_dir.hpp"
#include "jobs/sweep.hpp"

namespace emx::jobs {
namespace {

namespace fs = std::filesystem;

class SupervisorE2eTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = emx::test::test_dir();
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  SweepOptions options(const std::string& out_name) {
    SweepOptions opts;
    opts.spec.name = "e2e";
    opts.spec.apps = {"sort"};
    opts.spec.procs = {4};
    opts.spec.threads = {2};
    opts.spec.sizes_per_proc = {64};
    opts.spec.seeds = {1, 2};
    opts.out_dir = (dir_ / out_name).string();
    opts.emx_run = EMX_RUN_BIN;
    opts.parallel = 2;
    opts.backoff_ms = 1;
    opts.checkpoint_every = 2000;
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

TEST_F(SupervisorE2eTest, SmallSweepProducesVerifiedFigureData) {
  SweepOutcome outcome;
  std::string err;
  ASSERT_EQ(run_sweep(options("out"), outcome, err), 0) << err;
  ASSERT_EQ(outcome.cells.size(), 2u);

  std::string perr;
  const json::Value agg =
      json::Value::parse(slurp(outcome.aggregate_path), perr);
  ASSERT_EQ(perr, "");
  const json::Value* cells = agg.find("cells");
  ASSERT_NE(cells, nullptr);
  ASSERT_EQ(cells->size(), 2u);
  for (const json::Value& cell : cells->items()) {
    EXPECT_EQ(cell.find("status")->as_string(), "ok");
    const json::Value* result = cell.find("result");
    ASSERT_NE(result, nullptr);
    EXPECT_EQ(result->find("exit_code")->as_int(-1), 0);
    EXPECT_GT(result->find("cycles")->as_int(), 0);
    EXPECT_TRUE(result->find("verified")->as_bool());
    EXPECT_EQ(result->find("app")->as_string(), "sort");
  }
}

TEST_F(SupervisorE2eTest, WorkerFlagsReproduceTheManifestExactly) {
  // Sweep a cell with non-default knobs; the worker's own result JSON
  // echoes the manifest CRC it actually ran, which must equal the CRC
  // the supervisor derived the cell key from. Any drift between
  // worker_flags() and emx_run's flag handling fails here.
  SweepOptions opts = options("out_flags");
  opts.spec.base.block_reads = true;
  opts.spec.base.iterations = 4;
  opts.spec.base.config.switch_save_cycles = 8;
  opts.spec.seeds = {3};
  SweepOutcome outcome;
  std::string err;
  ASSERT_EQ(run_sweep(opts, outcome, err), 0) << err;
  ASSERT_EQ(outcome.cells.size(), 1u);
  const std::string& key = outcome.cells[0].key;
  const std::string key_crc = key.substr(key.size() - 8);
  std::string perr;
  const json::Value result =
      json::Value::parse(outcome.cells[0].result_bytes, perr);
  ASSERT_EQ(perr, "");
  EXPECT_EQ(result.find("manifest_crc")->as_string(), key_crc)
      << "worker ran a different manifest than the cell key claims";
}

TEST_F(SupervisorE2eTest, RerunServesEveryCellFromCacheByteIdentically) {
  SweepOutcome first, second;
  std::string err;
  ASSERT_EQ(run_sweep(options("out"), first, err), 0) << err;
  ASSERT_EQ(run_sweep(options("out"), second, err), 0) << err;
  for (const CellOutcome& cell : second.cells)
    EXPECT_EQ(cell.status, "cached");
  EXPECT_EQ(slurp(first.aggregate_path), slurp(second.aggregate_path));
}

TEST_F(SupervisorE2eTest, ReinvokedSweepJournalStaysAtTwoLinesPerCell) {
  // Header + one submit and one done per cell, however often a finished
  // sweep is re-invoked: the cache answers of each re-run compact away.
  const SweepOptions opts = options("out");
  const std::string journal = opts.out_dir + "/journal.jsonl";
  const auto lines = [&] {
    const std::string text = slurp(journal);
    return static_cast<std::size_t>(
        std::count(text.begin(), text.end(), '\n'));
  };
  SweepOutcome first;
  std::string err;
  ASSERT_EQ(run_sweep(opts, first, err), 0) << err;
  const std::size_t cells = first.cells.size();
  EXPECT_EQ(lines(), 2 * cells + 1);
  for (int rerun = 1; rerun <= 3; ++rerun) {
    SweepOutcome again;
    ASSERT_EQ(run_sweep(opts, again, err), 0) << err;
    for (const CellOutcome& cell : again.cells)
      EXPECT_EQ(cell.status, "cached") << "re-run " << rerun;
    EXPECT_EQ(slurp(again.aggregate_path), slurp(first.aggregate_path));
    EXPECT_EQ(lines(), 2 * cells + 1) << "after re-run " << rerun;
  }
}

TEST_F(SupervisorE2eTest, KilledSupervisorConvergesByteIdentically) {
  // Reference: an undisturbed sweep in its own directory.
  SweepOutcome reference;
  std::string err;
  ASSERT_EQ(run_sweep(options("out_ref"), reference, err), 0) << err;

  // Chaos: a child process starts the same sweep into a second
  // directory and is SIGKILLed almost immediately — mid-journal,
  // mid-worker, wherever the timing lands.
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    SweepOutcome ignored;
    std::string child_err;
    run_sweep(options("out_chaos"), ignored, child_err);
    ::_exit(0);
  }
  ::usleep(120 * 1000);
  ::kill(pid, SIGKILL);
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);

  // Re-invoke over the same directory: must converge — adopt whatever
  // completed, resume or redo the rest — and match the reference bytes.
  SweepOutcome recovered;
  ASSERT_EQ(run_sweep(options("out_chaos"), recovered, err), 0) << err;
  EXPECT_EQ(slurp(recovered.aggregate_path),
            slurp(reference.aggregate_path));
  EXPECT_EQ(recovered.failed, 0u);
}

}  // namespace
}  // namespace emx::jobs
