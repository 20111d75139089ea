// Shared contract suite for workload plugins: every registered app must
// hold the same guarantees — deterministic cycle counts, byte-identical
// checkpoint round-trips, verified results under fault injection. Each
// per-app test file instantiates these helpers at its own sizes.
#pragma once

#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "common/test_dir.hpp"
#include "snapshot/runner.hpp"
#include "snapshot/snapshot.hpp"

namespace emx::workloads::test {

inline snapshot::RunManifest tiny_manifest(const std::string& app,
                                           std::uint64_t size_per_proc,
                                           std::uint32_t threads,
                                           std::uint32_t procs) {
  snapshot::RunManifest m;
  m.app = app;
  m.size_per_proc = size_per_proc;
  m.threads = threads;
  m.seed = 1;
  m.config.proc_count = procs;
  return m;
}

/// One verified run through the real runner; returns the result.
inline snapshot::RunResult run_verified(const snapshot::RunManifest& m) {
  snapshot::RunOptions opts;
  opts.manifest = m;
  const snapshot::RunResult r = snapshot::run(opts);
  EXPECT_EQ(r.exit_code, 0) << r.error;
  EXPECT_TRUE(r.result_checked);
  EXPECT_TRUE(r.result_ok);
  return r;
}

/// Two identical runs must agree on every observable.
inline void expect_deterministic(const snapshot::RunManifest& m) {
  const snapshot::RunResult a = run_verified(m);
  const snapshot::RunResult b = run_verified(m);
  EXPECT_EQ(a.end_cycle, b.end_cycle);
  EXPECT_EQ(a.trace_events, b.trace_events);
  EXPECT_EQ(a.trace_crc, b.trace_crc);
}

/// Checkpoint the run, resume from every checkpoint, and require the
/// byte-verification to pass and the continuation to match the baseline
/// (the roundtrip contract from tests/snapshot/roundtrip_test.cpp).
inline void expect_roundtrip(const snapshot::RunManifest& m,
                             const char* tag) {
  snapshot::RunOptions base;
  base.manifest = m;
  const snapshot::RunResult baseline = snapshot::run(base);
  ASSERT_EQ(baseline.exit_code, 0) << baseline.error;
  ASSERT_GT(baseline.end_cycle, 0u);

  snapshot::RunOptions ck = base;
  ck.checkpoint_every = baseline.end_cycle / 3;
  ck.checkpoint_dir = emx::test::test_dir(tag).string();
  std::filesystem::remove_all(ck.checkpoint_dir);
  const snapshot::RunResult checkpointed = snapshot::run(ck);
  ASSERT_EQ(checkpointed.exit_code, 0) << checkpointed.error;
  EXPECT_EQ(baseline.end_cycle, checkpointed.end_cycle);
  EXPECT_EQ(baseline.trace_crc, checkpointed.trace_crc);
  ASSERT_GE(checkpointed.checkpoints_written.size(), 2u);

  for (const std::string& path : checkpointed.checkpoints_written) {
    snapshot::RunOptions res = base;
    res.resume_path = path;
    const snapshot::RunResult resumed = snapshot::run(res);
    ASSERT_EQ(resumed.exit_code, 0) << path << ": " << resumed.error;
    EXPECT_EQ(baseline.end_cycle, resumed.end_cycle);
    EXPECT_EQ(baseline.trace_events, resumed.trace_events);
    EXPECT_EQ(baseline.trace_crc, resumed.trace_crc);
    EXPECT_EQ(baseline.result_ok, resumed.result_ok);
  }
  std::filesystem::remove_all(ck.checkpoint_dir);
}

/// Drop + duplicate faults with the reliable transport on: the result
/// must still verify (exactly-once delivery makes the one-sided
/// invocation and split-phase traffic fault-tolerant).
inline void expect_fault_tolerant(snapshot::RunManifest m) {
  m.config.fault.drop_rate = 0.02;
  m.config.fault.duplicate_rate = 0.02;
  m.config.fault.timeout_cycles = 2048;
  m.config.watchdog_cycles = 4'000'000;
  const snapshot::RunResult r = run_verified(m);
  EXPECT_TRUE(r.report.fault_enabled);
}

}  // namespace emx::workloads::test
