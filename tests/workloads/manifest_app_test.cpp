// Satellite contract: an unknown app name fails with the same readable
// registry-derived message whether it arrives via a fresh manifest or
// inside a resumed checkpoint — exit 2 both ways, never a crash.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "common/test_dir.hpp"
#include "snapshot/runner.hpp"
#include "snapshot/snapshot.hpp"
#include "workloads/registry.hpp"
#include "workloads/workload_suite.hpp"

namespace emx::workloads {
namespace {

TEST(ManifestApp, FreshRunRejectsUnknownApp) {
  snapshot::RunOptions opts;
  opts.manifest = test::tiny_manifest("bogus", 64, 2, 4);
  const snapshot::RunResult r = snapshot::run(opts);
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_EQ(r.error, unknown_app_message("bogus"));
}

TEST(ManifestApp, EmptyAppRejectedTheSameWay) {
  snapshot::RunOptions opts;
  opts.manifest = test::tiny_manifest("", 64, 2, 4);
  const snapshot::RunResult r = snapshot::run(opts);
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_EQ(r.error, unknown_app_message(""));
}

// The resume path: capture a real checkpoint, rewrite its embedded
// manifest to name an app this build does not know (the situation a
// checkpoint from a newer build creates), and resume. The failure must
// be the identical registry message, not a divergence report or crash.
TEST(ManifestApp, ResumedManifestRejectsUnknownApp) {
  const snapshot::RunManifest m = test::tiny_manifest("ptrchase", 64, 2, 4);
  snapshot::RunOptions ck;
  ck.manifest = m;
  ck.checkpoint_dir = emx::test::test_dir().string();
  std::filesystem::remove_all(ck.checkpoint_dir);
  {
    snapshot::RunOptions probe;
    probe.manifest = m;
    const snapshot::RunResult r = snapshot::run(probe);
    ASSERT_EQ(r.exit_code, 0) << r.error;
    ck.checkpoint_every = r.end_cycle / 2;
  }
  const snapshot::RunResult checkpointed = snapshot::run(ck);
  ASSERT_EQ(checkpointed.exit_code, 0) << checkpointed.error;
  ASSERT_FALSE(checkpointed.checkpoints_written.empty());
  const std::string& path = checkpointed.checkpoints_written.front();

  snapshot::SnapshotFile file;
  ASSERT_EQ(file.read_file(path), "");
  snapshot::RunManifest saved;
  Cycle cycle = 0;
  ASSERT_EQ(snapshot::read_header(file, saved, cycle), "");
  saved.app = "bogus";
  ser::Serializer s;
  saved.save(s);
  s.u64(cycle);
  bool rewrote = false;
  for (auto& sec : file.sections) {
    if (sec.name == "manifest") {
      sec.payload = s.data();
      rewrote = true;
    }
  }
  ASSERT_TRUE(rewrote);
  ASSERT_EQ(file.write_file(path), "");

  snapshot::RunOptions res;
  res.manifest = saved;  // agrees with the tampered file: past the
                         // diff gate, into the registry lookup
  res.resume_path = path;
  const snapshot::RunResult resumed = snapshot::run(res);
  EXPECT_EQ(resumed.exit_code, 2);
  EXPECT_EQ(resumed.error, unknown_app_message("bogus"));
  std::filesystem::remove_all(ck.checkpoint_dir);
}

}  // namespace
}  // namespace emx::workloads
