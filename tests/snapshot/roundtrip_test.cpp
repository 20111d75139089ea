// The tentpole contract: save -> restore -> run is byte-identical.
//
// Every test drives the real runner (the same code path emx_run uses):
// a baseline run, a checkpointed run, and a resume from each checkpoint
// must agree on final cycle count, trace digest, result verdict and
// checker verdicts — with and without an active fault plan.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "common/test_dir.hpp"
#include "snapshot/runner.hpp"
#include "snapshot/snapshot.hpp"

namespace emx::snapshot {
namespace {

RunManifest tiny_sort() {
  RunManifest m;
  m.app = "sort";
  m.size_per_proc = 64;
  m.threads = 2;
  m.seed = 1;
  m.config.proc_count = 4;
  return m;
}

RunManifest tiny_fft() {
  RunManifest m;
  m.app = "fft";
  m.size_per_proc = 64;
  m.threads = 2;
  m.seed = 1;
  m.local_phase = true;
  m.config.proc_count = 4;
  return m;
}

std::string fresh_dir(const char* tag) {
  const std::string dir = emx::test::test_dir(tag).string();
  std::filesystem::remove_all(dir);
  return dir;
}

void expect_identical(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.exit_code, b.exit_code);
  EXPECT_EQ(a.end_cycle, b.end_cycle);
  EXPECT_EQ(a.trace_events, b.trace_events);
  EXPECT_EQ(a.trace_crc, b.trace_crc);
  EXPECT_EQ(a.result_ok, b.result_ok);
  EXPECT_EQ(a.report.events_processed, b.report.events_processed);
  EXPECT_EQ(a.report.total_cycles, b.report.total_cycles);
}

void roundtrip(const RunManifest& manifest, const char* tag) {
  RunOptions base;
  base.manifest = manifest;
  const RunResult baseline = run(base);
  ASSERT_EQ(baseline.exit_code, 0) << baseline.error;
  ASSERT_GT(baseline.end_cycle, 0u);

  // Checkpointing must not perturb the run (pausing the event loop is
  // observationally free).
  RunOptions ck = base;
  ck.checkpoint_every = baseline.end_cycle / 4;
  ck.checkpoint_dir = fresh_dir(tag);
  const RunResult checkpointed = run(ck);
  ASSERT_EQ(checkpointed.exit_code, 0) << checkpointed.error;
  expect_identical(baseline, checkpointed);
  ASSERT_GE(checkpointed.checkpoints_written.size(), 3u);

  // Resume from every checkpoint: state verification (exit 0, not 5)
  // proves the rebuilt machine is byte-identical at the pause point, and
  // the final stats prove the continuation is too.
  for (const std::string& path : checkpointed.checkpoints_written) {
    RunOptions res = base;
    res.resume_path = path;
    const RunResult resumed = run(res);
    ASSERT_EQ(resumed.exit_code, 0) << path << ": " << resumed.error;
    expect_identical(baseline, resumed);
  }
  std::filesystem::remove_all(ck.checkpoint_dir);
}

TEST(SnapshotRoundTrip, SortFaultFree) { roundtrip(tiny_sort(), "sort"); }

TEST(SnapshotRoundTrip, FftFaultFree) { roundtrip(tiny_fft(), "fft"); }

TEST(SnapshotRoundTrip, SortWithFaultPlan) {
  RunManifest m = tiny_sort();
  m.config.fault.drop_rate = 0.05;
  m.config.fault.duplicate_rate = 0.02;
  m.config.fault.timeout_cycles = 2048;
  roundtrip(m, "sort_fault");
}

TEST(SnapshotRoundTrip, SortWithCheckersArmed) {
  RunManifest m = tiny_sort();
  m.config.check.memcheck = true;
  m.config.check.race = true;
  m.config.check.lint = true;
  roundtrip(m, "sort_check");
}

TEST(SnapshotRoundTrip, JacobiWithTreeBarrier) {
  RunManifest m;
  m.app = "jacobi";
  m.size_per_proc = 32;
  m.threads = 2;
  m.iterations = 4;
  m.seed = 3;
  m.config.proc_count = 4;
  m.config.barrier = BarrierTopology::kTree;
  roundtrip(m, "jacobi");
}

// Runs the workload once to size a checkpoint interval that yields at
// least two checkpoints regardless of the tiny run's actual length.
Cycle third_of_run(const RunManifest& m) {
  RunOptions base;
  base.manifest = m;
  const RunResult r = run(base);
  EXPECT_EQ(r.exit_code, 0) << r.error;
  return r.end_cycle / 3;
}

TEST(SnapshotRoundTrip, TamperedCheckpointIsDivergence) {
  const RunManifest m = tiny_sort();
  RunOptions ck;
  ck.manifest = m;
  ck.checkpoint_every = third_of_run(m);
  ck.checkpoint_dir = fresh_dir("tamper");
  const RunResult checkpointed = run(ck);
  ASSERT_EQ(checkpointed.exit_code, 0) << checkpointed.error;
  ASSERT_FALSE(checkpointed.checkpoints_written.empty());
  const std::string& path = checkpointed.checkpoints_written.front();

  // Flip a byte inside pe0's saved state and re-encode (fresh CRCs, so
  // the container is valid — only the *state* lies). Resume must catch
  // it and name the section.
  SnapshotFile file;
  ASSERT_EQ(file.read_file(path), "");
  Section* pe0 = nullptr;
  for (auto& sec : file.sections)
    if (sec.name == "pe0") pe0 = &sec;
  ASSERT_NE(pe0, nullptr);
  ASSERT_FALSE(pe0->payload.empty());
  pe0->payload[pe0->payload.size() / 2] ^= 0x01;
  ASSERT_EQ(file.write_file(path), "");

  RunOptions res;
  res.manifest = m;
  res.resume_path = path;
  const RunResult resumed = run(res);
  EXPECT_EQ(resumed.exit_code, 5);
  EXPECT_NE(resumed.error.find("pe0"), std::string::npos) << resumed.error;
  std::filesystem::remove_all(ck.checkpoint_dir);
}

TEST(SnapshotRoundTrip, ResumeRejectsMismatchedManifest) {
  const RunManifest m = tiny_sort();
  RunOptions ck;
  ck.manifest = m;
  ck.checkpoint_every = third_of_run(m);
  ck.checkpoint_dir = fresh_dir("mismatch");
  const RunResult checkpointed = run(ck);
  ASSERT_EQ(checkpointed.exit_code, 0) << checkpointed.error;
  ASSERT_FALSE(checkpointed.checkpoints_written.empty());

  RunOptions res;
  res.manifest = m;
  res.manifest.seed = 999;  // not the run the checkpoint describes
  res.resume_path = checkpointed.checkpoints_written.front();
  const RunResult resumed = run(res);
  EXPECT_EQ(resumed.exit_code, 2);
  EXPECT_NE(resumed.error.find("seed"), std::string::npos) << resumed.error;
  std::filesystem::remove_all(ck.checkpoint_dir);
}

TEST(SnapshotRoundTrip, CheckpointsAreByteDeterministic) {
  // Two identical runs must produce byte-identical checkpoint files —
  // the property that lets CI diff snapshots across hosts.
  const RunManifest m = tiny_sort();
  RunOptions ck;
  ck.manifest = m;
  ck.checkpoint_every = third_of_run(m);
  ck.checkpoint_dir = fresh_dir("det_a");
  const RunResult a = run(ck);
  ASSERT_EQ(a.exit_code, 0) << a.error;
  ck.checkpoint_dir = fresh_dir("det_b");
  const RunResult b = run(ck);
  ASSERT_EQ(b.exit_code, 0) << b.error;
  ASSERT_EQ(a.checkpoints_written.size(), b.checkpoints_written.size());
  ASSERT_FALSE(a.checkpoints_written.empty());
  for (std::size_t i = 0; i < a.checkpoints_written.size(); ++i) {
    SnapshotFile fa, fb;
    ASSERT_EQ(fa.read_file(a.checkpoints_written[i]), "");
    ASSERT_EQ(fb.read_file(b.checkpoints_written[i]), "");
    EXPECT_EQ(fa.encode(), fb.encode()) << a.checkpoints_written[i];
  }
  std::filesystem::remove_all(fresh_dir("det_a"));
  std::filesystem::remove_all(fresh_dir("det_b"));
}

}  // namespace
}  // namespace emx::snapshot
