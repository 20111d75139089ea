// Pointer-chase workload: final-node correctness vs the host reference
// across (n, P, h) points, frozen default-size cycles, determinism,
// checkpoint/resume byte-identity, and fault tolerance.
#include <gtest/gtest.h>

#include <set>

#include "core/machine.hpp"
#include "workloads/ptrchase.hpp"
#include "workloads/workload_suite.hpp"

namespace emx::workloads {
namespace {

// No padding (procs is 64-bit): the ctest name carries gtest's raw-byte
// dump of this struct, and a padding hole would put uninitialised memory
// into it.
struct Point {
  std::uint64_t procs;
  std::uint64_t size_per_proc;
  std::uint32_t threads;
  std::uint32_t hops;
};

class PtrchaseCorrectness : public ::testing::TestWithParam<Point> {};

TEST_P(PtrchaseCorrectness, MatchesHostReference) {
  const Point pt = GetParam();
  MachineConfig cfg;
  cfg.proc_count = pt.procs;
  Machine machine(cfg);
  PtrchaseParams params;
  params.n = pt.size_per_proc * pt.procs;
  params.threads = pt.threads;
  params.hops = pt.hops;
  params.seed = 42;
  PtrchaseApp app(machine, params);
  app.setup();
  machine.run();
  EXPECT_TRUE(app.verify());
  EXPECT_EQ(app.gather_finals(), app.host_reference());
}

INSTANTIATE_TEST_SUITE_P(Sizes, PtrchaseCorrectness,
                         ::testing::Values(Point{2, 32, 1, 16},
                                           Point{4, 64, 2, 64},
                                           Point{8, 32, 4, 96},
                                           Point{3, 16, 3, 48}));

TEST(PtrchaseWorkload, RingIsOneGlobalCycle) {
  // The Sattolo construction guarantees a single n-cycle: chasing n
  // links from any start must return to it, and no shorter prefix may.
  MachineConfig cfg;
  cfg.proc_count = 4;
  Machine machine(cfg);
  PtrchaseParams params;
  params.n = 64;
  params.threads = 1;
  params.hops = 64;  // exactly n: every stream ends at its start
  params.seed = 5;
  PtrchaseApp app(machine, params);
  app.setup();
  machine.run();
  ASSERT_TRUE(app.verify());
  const std::vector<Word> finals = app.gather_finals();
  ASSERT_EQ(finals.size(), 4u);
  for (ProcId pe = 0; pe < 4; ++pe) {
    EXPECT_EQ(finals[pe], app.start_node(pe, 0)) << "pe " << pe;
  }
}

TEST(PtrchaseWorkload, StreamsStartAtDistinctNodes) {
  MachineConfig cfg;
  cfg.proc_count = 4;
  Machine machine(cfg);
  PtrchaseParams params;
  params.n = 256;
  params.threads = 4;
  PtrchaseApp app(machine, params);
  std::set<Word> starts;
  for (ProcId pe = 0; pe < 4; ++pe) {
    for (std::uint32_t t = 0; t < params.threads; ++t) {
      starts.insert(app.start_node(pe, t));
    }
  }
  EXPECT_EQ(starts.size(), 16u);
}

TEST(PtrchaseWorkload, FrozenDefaultCycles) {
  const auto m = test::tiny_manifest("ptrchase", 256, 4, 16);
  const auto r = test::run_verified(m);
  EXPECT_EQ(r.end_cycle, 34813u);
}

TEST(PtrchaseWorkload, Deterministic) {
  test::expect_deterministic(test::tiny_manifest("ptrchase", 64, 3, 4));
}

TEST(PtrchaseWorkload, CheckpointRoundTrip) {
  test::expect_roundtrip(test::tiny_manifest("ptrchase", 64, 2, 4), "ptrchase");
}

TEST(PtrchaseWorkload, FaultSweepSmoke) {
  test::expect_fault_tolerant(test::tiny_manifest("ptrchase", 64, 4, 4));
}

}  // namespace
}  // namespace emx::workloads
