// SpMV workload: bitwise correctness vs the host reference across
// (n, P, h) points, frozen default-size cycles, determinism,
// checkpoint/resume byte-identity, and fault tolerance.
#include <gtest/gtest.h>

#include "core/machine.hpp"
#include "workloads/spmv.hpp"
#include "workloads/workload_suite.hpp"

namespace emx::workloads {
namespace {

// No padding (procs is 64-bit, the tail an explicit zero): the ctest name
// carries gtest's raw-byte dump of this struct, and a padding hole would
// put uninitialised memory into it.
struct Point {
  std::uint64_t procs;
  std::uint64_t size_per_proc;
  std::uint32_t threads;
  std::uint32_t pad = 0;
};

class SpmvCorrectness : public ::testing::TestWithParam<Point> {};

TEST_P(SpmvCorrectness, MatchesHostReferenceBitwise) {
  const Point pt = GetParam();
  MachineConfig cfg;
  cfg.proc_count = pt.procs;
  Machine machine(cfg);
  SpmvParams params;
  params.n = pt.size_per_proc * pt.procs;
  params.threads = pt.threads;
  params.seed = 42;
  SpmvApp app(machine, params);
  app.setup();
  machine.run();
  EXPECT_TRUE(app.verify());
  // The integer-valued f32 construction makes the sum order irrelevant:
  // the match is exact, not within-epsilon.
  EXPECT_EQ(app.gather_y(), app.host_reference());
}

INSTANTIATE_TEST_SUITE_P(Sizes, SpmvCorrectness,
                         ::testing::Values(Point{2, 32, 1}, Point{4, 64, 2},
                                           Point{8, 32, 4}, Point{3, 48, 3}));

TEST(SpmvWorkload, FrozenDefaultCycles) {
  const auto m = test::tiny_manifest("spmv", 512, 4, 16);
  const auto r = test::run_verified(m);
  EXPECT_EQ(r.end_cycle, 136245u);
}

TEST(SpmvWorkload, Deterministic) {
  test::expect_deterministic(test::tiny_manifest("spmv", 64, 3, 4));
}

TEST(SpmvWorkload, CheckpointRoundTrip) {
  test::expect_roundtrip(test::tiny_manifest("spmv", 64, 2, 4), "spmv");
}

TEST(SpmvWorkload, FaultSweepSmoke) {
  test::expect_fault_tolerant(test::tiny_manifest("spmv", 64, 4, 4));
}

TEST(SpmvWorkload, SingleRowNnzStillVerifies) {
  // Degenerate matrix (one nonzero per row): the pairwise gather path
  // never fires and every gather takes the odd-leftover single read.
  MachineConfig cfg;
  cfg.proc_count = 4;
  Machine machine(cfg);
  SpmvParams params;
  params.n = 128;
  params.threads = 2;
  params.row_nnz = 1;
  params.seed = 9;
  SpmvApp app(machine, params);
  app.setup();
  machine.run();
  EXPECT_TRUE(app.verify());
}

}  // namespace
}  // namespace emx::workloads
