// Record-replay: a recording pins the run's *evolution* (periodic
// per-component digests), and replay pinpoints the first divergent
// component and cycle window when anything disagrees.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "common/test_dir.hpp"
#include "snapshot/record_replay.hpp"
#include "snapshot/runner.hpp"

namespace emx::snapshot {
namespace {

RunManifest tiny_sort() {
  RunManifest m;
  m.app = "sort";
  m.size_per_proc = 64;
  m.threads = 2;
  m.seed = 7;
  m.config.proc_count = 4;
  return m;
}

std::string record_run(const RunManifest& m, const char* tag,
                       Cycle digest_every) {
  const std::string path =
      emx::test::test_dir(std::string(tag) + ".emxsnap").string();
  RunOptions rec;
  rec.manifest = m;
  rec.record_path = path;
  rec.digest_every = digest_every;
  const RunResult r = run(rec);
  EXPECT_EQ(r.exit_code, 0) << r.error;
  return path;
}

TEST(RecordReplay, CleanReplayMatchesEveryFrame) {
  const RunManifest m = tiny_sort();
  const std::string path = record_run(m, "clean", 20000);

  RunOptions rep;
  rep.manifest = m;
  rep.replay_path = path;
  const RunResult r = run(rep);
  EXPECT_EQ(r.exit_code, 0) << r.error;
  std::remove(path.c_str());
}

TEST(RecordReplay, ReplayFollowsRecordedInterval) {
  // The replayer must pause on the *recording's* schedule even when the
  // caller passes a different --digest-every.
  const RunManifest m = tiny_sort();
  const std::string path = record_run(m, "interval", 15000);

  RunOptions rep;
  rep.manifest = m;
  rep.replay_path = path;
  rep.digest_every = 999;  // ignored for replay
  const RunResult r = run(rep);
  EXPECT_EQ(r.exit_code, 0) << r.error;
  std::remove(path.c_str());
}

TEST(RecordReplay, TamperedFrameNamesComponentAndWindow) {
  const RunManifest m = tiny_sort();
  const std::string path = record_run(m, "tamper", 20000);

  // Corrupt the first crc of the first frame (payload layout: u32 frame
  // count, then per frame u64 cycle + one u32 crc per component — so the
  // first crc lives at bytes 12..15). Component 0 is "sim".
  SnapshotFile file;
  ASSERT_EQ(file.read_file(path), "");
  Section* frames = nullptr;
  for (auto& sec : file.sections)
    if (sec.name == "frames") frames = &sec;
  ASSERT_NE(frames, nullptr);
  ASSERT_GT(frames->payload.size(), 15u);
  frames->payload[12] ^= 0x01;
  ASSERT_EQ(file.write_file(path), "");

  RunOptions rep;
  rep.manifest = m;
  rep.replay_path = path;
  const RunResult r = run(rep);
  EXPECT_EQ(r.exit_code, 5);
  EXPECT_NE(r.error.find("sim"), std::string::npos) << r.error;
  EXPECT_NE(r.error.find("between cycles"), std::string::npos) << r.error;
  std::remove(path.c_str());
}

TEST(RecordReplay, ReplayRejectsManifestMismatch) {
  const RunManifest m = tiny_sort();
  const std::string path = record_run(m, "mismatch", 20000);

  RunOptions rep;
  rep.manifest = m;
  rep.manifest.threads = 3;  // a different run than the one recorded
  rep.replay_path = path;
  const RunResult r = run(rep);
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.error.find("threads"), std::string::npos) << r.error;
  std::remove(path.c_str());
}

TEST(RecordReplay, FaultPlanRunsReplayCleanly) {
  RunManifest m = tiny_sort();
  m.config.fault.drop_rate = 0.05;
  m.config.fault.timeout_cycles = 2048;
  const std::string path = record_run(m, "fault", 20000);

  RunOptions rep;
  rep.manifest = m;
  rep.replay_path = path;
  const RunResult r = run(rep);
  EXPECT_EQ(r.exit_code, 0) << r.error;
  std::remove(path.c_str());
}

TEST(ReplayVerifier, RejectsWrongKindAndMalformedSections) {
  ReplayVerifier v;

  // A checkpoint is not a recording.
  SnapshotFile ckpt;
  ckpt.kind = FileKind::kCheckpoint;
  EXPECT_NE(v.open(ckpt), "");

  // A recording without its sections is malformed.
  SnapshotFile empty;
  empty.kind = FileKind::kRecording;
  EXPECT_NE(v.open(empty), "");

  // A frame table whose length disagrees with its count is malformed.
  SnapshotFile bad;
  bad.kind = FileKind::kRecording;
  Serializer man;
  RunManifest m = tiny_sort();
  m.save(man);
  man.u64(1000);  // interval
  bad.add("manifest", man);
  Serializer comps;
  comps.u32(1);
  comps.str("sim");
  bad.add("components", comps);
  Serializer frames;
  frames.u32(5);  // claims 5 frames, provides zero bytes of them
  bad.add("frames", frames);
  EXPECT_NE(v.open(bad), "");
}

TEST(ReplayVerifier, FinishReportsUnconsumedFrames) {
  // Build a valid 2-frame recording by hand, consume none, finish().
  SnapshotFile rec;
  rec.kind = FileKind::kRecording;
  Serializer man;
  RunManifest m = tiny_sort();
  m.save(man);
  man.u64(500);
  rec.add("manifest", man);
  Serializer comps;
  comps.u32(1);
  comps.str("sim");
  rec.add("components", comps);
  Serializer frames;
  frames.u32(2);
  frames.u64(500);
  frames.u32(0xAAAAAAAAu);
  frames.u64(1000);
  frames.u32(0xBBBBBBBBu);
  rec.add("frames", frames);

  ReplayVerifier v;
  ASSERT_EQ(v.open(rec), "");
  EXPECT_EQ(v.frame_count(), 2u);
  EXPECT_EQ(v.frames_checked(), 0u);
  EXPECT_NE(v.finish(1000), "");
}

}  // namespace
}  // namespace emx::snapshot
