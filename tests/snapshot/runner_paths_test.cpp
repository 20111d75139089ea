// Up-front path validation in snapshot::run(): a typo'd --checkpoint-dir,
// --record or --result-json must be exit 2 with a readable message
// *before* any cycles run — not a crash (or lost output) at the first
// checkpoint boundary half a night later.
#include <filesystem>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "common/fsio.hpp"
#include "common/test_dir.hpp"
#include "snapshot/runner.hpp"

namespace emx::snapshot {
namespace {

namespace fs = std::filesystem;

class RunnerPathsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = emx::test::test_dir();
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    // A regular file: any path *under* it fails with ENOTDIR, which
    // holds even when the test runs as root (permission bits do not).
    blocker_ = (dir_ / "blocker").string();
    ASSERT_EQ(fsio::atomic_write_file(blocker_, "x"), "");

    opts_.manifest.app = "sort";
    opts_.manifest.config.proc_count = 4;
    opts_.manifest.size_per_proc = 64;
    opts_.manifest.threads = 2;
    opts_.manifest.iterations = 2;
    opts_.manifest.seed = 1;
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
  std::string blocker_;
  RunOptions opts_;
};

TEST_F(RunnerPathsTest, BadCheckpointDirIsExitTwoBeforeAnyCycles) {
  opts_.checkpoint_every = 100;
  opts_.checkpoint_dir = blocker_ + "/ck";
  const RunResult r = run(opts_);
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.error.find("--checkpoint-dir"), std::string::npos) << r.error;
  EXPECT_FALSE(r.report_valid) << "must refuse before running";
  EXPECT_EQ(r.end_cycle, 0u);
}

TEST_F(RunnerPathsTest, BadRecordPathIsExitTwo) {
  opts_.record_path = blocker_ + "/rec/out.emxrec";
  const RunResult r = run(opts_);
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.error.find("--record"), std::string::npos) << r.error;
  EXPECT_EQ(r.end_cycle, 0u);
}

TEST_F(RunnerPathsTest, BadResultJsonPathIsExitTwo) {
  opts_.result_json_path = blocker_ + "/results/r.json";
  const RunResult r = run(opts_);
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.error.find("--result-json"), std::string::npos) << r.error;
  EXPECT_EQ(r.end_cycle, 0u);
}

TEST_F(RunnerPathsTest, GoodPathsRunAndPublishResultJson) {
  opts_.checkpoint_every = 2000;
  opts_.checkpoint_dir = (dir_ / "ck").string();
  opts_.result_json_path = (dir_ / "result.json").string();
  const RunResult r = run(opts_);
  EXPECT_EQ(r.exit_code, 0) << r.error;
  EXPECT_TRUE(fs::exists(opts_.result_json_path));
}

TEST_F(RunnerPathsTest, ResultJsonIsDeterministicAcrossResume) {
  // Fresh run with checkpoints + result JSON.
  opts_.checkpoint_every = 2000;
  opts_.checkpoint_dir = (dir_ / "ck").string();
  opts_.result_json_path = (dir_ / "fresh.json").string();
  const RunResult fresh = run(opts_);
  ASSERT_EQ(fresh.exit_code, 0) << fresh.error;
  ASSERT_FALSE(fresh.checkpoints_written.empty());

  // Resume from the first checkpoint; the result summary must come out
  // byte-identical — the supervisor's aggregate convergence rests on it.
  RunOptions resume = opts_;
  resume.resume_path = fresh.checkpoints_written.front();
  resume.result_json_path = (dir_ / "resumed.json").string();
  RunManifest file_manifest;
  Cycle cycle = 0;
  ASSERT_EQ(load_manifest(resume.resume_path, FileKind::kCheckpoint,
                          file_manifest, cycle),
            "");
  resume.manifest = file_manifest;
  const RunResult resumed = run(resume);
  ASSERT_EQ(resumed.exit_code, 0) << resumed.error;

  std::ifstream a(opts_.result_json_path), b(resume.result_json_path);
  const std::string fresh_json((std::istreambuf_iterator<char>(a)),
                               std::istreambuf_iterator<char>());
  const std::string resumed_json((std::istreambuf_iterator<char>(b)),
                                 std::istreambuf_iterator<char>());
  EXPECT_EQ(fresh_json, resumed_json);
  EXPECT_FALSE(fresh_json.empty());
}

}  // namespace
}  // namespace emx::snapshot
