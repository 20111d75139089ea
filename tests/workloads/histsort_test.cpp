// Histogram-sort workload: sorted-output correctness vs a host
// std::sort across (n, P, h) points, frozen default-size cycles,
// determinism, checkpoint/resume byte-identity, and fault tolerance.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/machine.hpp"
#include "workloads/histsort.hpp"
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

class HistsortCorrectness : public ::testing::TestWithParam<Point> {};

TEST_P(HistsortCorrectness, ProducesTheGloballySortedSequence) {
  const Point pt = GetParam();
  MachineConfig cfg;
  cfg.proc_count = pt.procs;
  Machine machine(cfg);
  HistsortParams params;
  params.n = pt.size_per_proc * pt.procs;
  params.threads = pt.threads;
  params.seed = 42;
  HistsortApp app(machine, params);
  app.setup();
  machine.run();
  EXPECT_TRUE(app.verify());
  const std::vector<Word> sorted = app.gather_sorted();
  EXPECT_EQ(sorted, app.host_reference());
  EXPECT_TRUE(std::is_sorted(sorted.begin(), sorted.end()));
}

INSTANTIATE_TEST_SUITE_P(Sizes, HistsortCorrectness,
                         ::testing::Values(Point{2, 32, 1}, Point{4, 64, 2},
                                           Point{8, 32, 4}, Point{3, 48, 3}));

TEST(HistsortWorkload, BucketPartitionIsMonotone) {
  MachineConfig cfg;
  cfg.proc_count = 8;
  Machine machine(cfg);
  HistsortParams params;
  params.n = 64;
  HistsortApp app(machine, params);
  EXPECT_EQ(app.bucket_owner(0), 0u);
  EXPECT_EQ(app.bucket_owner(kHistsortKeyRange - 1), 7u);
  ProcId prev = 0;
  for (Word key = 0; key < kHistsortKeyRange;
       key += kHistsortKeyRange / 64) {
    const ProcId owner = app.bucket_owner(key);
    EXPECT_GE(owner, prev);
    EXPECT_LT(owner, 8u);
    prev = owner;
  }
}

TEST(HistsortWorkload, FrozenDefaultCycles) {
  const auto m = test::tiny_manifest("histsort", 512, 4, 16);
  const auto r = test::run_verified(m);
  EXPECT_EQ(r.end_cycle, 26498u);
}

TEST(HistsortWorkload, Deterministic) {
  test::expect_deterministic(test::tiny_manifest("histsort", 64, 3, 4));
}

TEST(HistsortWorkload, CheckpointRoundTrip) {
  test::expect_roundtrip(test::tiny_manifest("histsort", 64, 2, 4), "histsort");
}

TEST(HistsortWorkload, FaultSweepSmoke) {
  // The all-to-all one-sided scatter is the reliable transport's stress
  // case: a dropped append that was not retransmitted would deadlock
  // the drain (watchdog) or lose a key (verify).
  test::expect_fault_tolerant(test::tiny_manifest("histsort", 64, 4, 4));
}

TEST(HistsortWorkload, SinglePeDegeneratesToLocalSort) {
  MachineConfig cfg;
  cfg.proc_count = 1;
  Machine machine(cfg);
  HistsortParams params;
  params.n = 96;
  params.threads = 3;
  params.seed = 9;
  HistsortApp app(machine, params);
  app.setup();
  machine.run();
  EXPECT_TRUE(app.verify());
}

}  // namespace
}  // namespace emx::workloads
