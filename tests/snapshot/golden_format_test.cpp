// Format-stability contract: the current format version has a checked-in
// golden that decodes, resumes and byte-verifies in every build, and files
// of older versions are refused at read time with one clear message. The
// golden files under tests/snapshot/golden/ are checked in and never
// regenerated for their own version; a new one is added at each format
// bump (docs/CHECKPOINT.md records the recipe).
//
// tiny_v1 and tiny_v2 stay in the tree as rejection inputs: v2 changed the
// "sim" section's event-queue payload and v3 the fast network's in-flight
// packets, so neither can byte-verify against a rebuilt machine.
#include <gtest/gtest.h>

#include <string>

#include "snapshot/format.hpp"
#include "snapshot/runner.hpp"

#ifndef EMX_TEST_DATA_DIR
#error "EMX_TEST_DATA_DIR must point at the tests/ source directory"
#endif

namespace emx::snapshot {
namespace {

const char* golden_v1_path() {
  return EMX_TEST_DATA_DIR "/snapshot/golden/tiny_v1.emxsnap";
}

const char* golden_v2_path() {
  return EMX_TEST_DATA_DIR "/snapshot/golden/tiny_v2.emxsnap";
}

const char* golden_v3_path() {
  return EMX_TEST_DATA_DIR "/snapshot/golden/tiny_v3.emxsnap";
}

/// The recipe every golden was captured with (see docs/CHECKPOINT.md).
RunManifest golden_manifest() {
  RunManifest m;
  Cycle cycle = 0;
  EXPECT_EQ(load_manifest(golden_v3_path(), FileKind::kCheckpoint, m, cycle),
            "");
  return m;
}

void expect_predates(const std::string& err, std::uint32_t version) {
  EXPECT_NE(err.find("format v" + std::to_string(version) + " predates v3; "
                     "re-capture with this build"),
            std::string::npos)
      << err;
}

TEST(GoldenFormat, CurrentVersionHasACheckedInGolden) {
  // Bumping kFormatVersion obliges a new golden, captured with the recipe
  // in docs/CHECKPOINT.md; this is the tripwire that enforces it. The
  // tests below then resume and byte-verify it.
  const std::string path = std::string(EMX_TEST_DATA_DIR) +
                           "/snapshot/golden/tiny_v" +
                           std::to_string(kFormatVersion) + ".emxsnap";
  SnapshotFile file;
  ASSERT_EQ(file.read_file(path), "")
      << "format v" << kFormatVersion << " has no decodable golden";
  EXPECT_EQ(file.version, kFormatVersion);
}

TEST(GoldenFormat, V1SnapshotIsRejectedAtRead) {
  SnapshotFile file;
  expect_predates(file.read_file(golden_v1_path()), 1);
}

TEST(GoldenFormat, V2SnapshotIsRejectedAtRead) {
  SnapshotFile file;
  expect_predates(file.read_file(golden_v2_path()), 2);
}

TEST(GoldenFormat, V1ResumeRefusedWithReadableError) {
  RunOptions opts;
  opts.manifest = golden_manifest();
  opts.resume_path = golden_v1_path();
  const RunResult r = run(opts);
  // Usage-level refusal (exit 2), not a late verification failure (5):
  // the error must name the version and say what to do about it.
  EXPECT_EQ(r.exit_code, 2) << r.error;
  expect_predates(r.error, 1);
}

TEST(GoldenFormat, V2ResumeRefusedWithReadableError) {
  RunOptions opts;
  opts.manifest = golden_manifest();
  opts.resume_path = golden_v2_path();
  const RunResult r = run(opts);
  EXPECT_EQ(r.exit_code, 2) << r.error;
  expect_predates(r.error, 2);
}

TEST(GoldenFormat, OldVersionReplayRefusedWithReadableError) {
  for (const auto& [path, version] :
       {std::pair{golden_v1_path(), 1u}, std::pair{golden_v2_path(), 2u}}) {
    RunOptions opts;
    opts.manifest = golden_manifest();
    opts.replay_path = path;
    const RunResult r = run(opts);
    EXPECT_EQ(r.exit_code, 2) << r.error;
    expect_predates(r.error, version);
  }
}

TEST(GoldenFormat, CheckedInV3SnapshotDecodes) {
  SnapshotFile file;
  ASSERT_EQ(file.read_file(golden_v3_path()), "")
      << "the checked-in v3 golden snapshot no longer decodes";
  EXPECT_EQ(file.version, 3u);
  EXPECT_EQ(file.kind, FileKind::kCheckpoint);
  ASSERT_NE(file.find("manifest"), nullptr);
  EXPECT_NE(file.find("sim"), nullptr);
  EXPECT_NE(file.find("streams"), nullptr);
  EXPECT_NE(file.find("network"), nullptr);
  EXPECT_NE(file.find("pe0"), nullptr);
}

TEST(GoldenFormat, GoldenV3SnapshotResumesAndVerifies) {
  // The strongest compatibility statement for the current version: the
  // checked-in bytes still drive a full resume, and the byte-verification
  // at the checkpoint cycle still passes against today's encodings.
  RunManifest m;
  Cycle cycle = 0;
  ASSERT_EQ(load_manifest(golden_v3_path(), FileKind::kCheckpoint, m, cycle),
            "");
  EXPECT_EQ(m.app, "sort");
  EXPECT_EQ(m.size_per_proc, 16u);
  EXPECT_EQ(m.threads, 2u);
  EXPECT_EQ(m.config.proc_count, 4u);
  EXPECT_GT(cycle, 0u);

  RunOptions opts;
  opts.manifest = m;
  opts.resume_path = golden_v3_path();
  const RunResult r = run(opts);
  EXPECT_EQ(r.exit_code, 0) << r.error;
  EXPECT_TRUE(r.result_checked);
  EXPECT_TRUE(r.result_ok);
}

}  // namespace
}  // namespace emx::snapshot
