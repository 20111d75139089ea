// BFS workload: correctness vs the host reference across (n, P, h)
// points, frozen default-size cycles, determinism, checkpoint/resume
// byte-identity, and fault tolerance.
#include <gtest/gtest.h>

#include "core/machine.hpp"
#include "workloads/bfs.hpp"
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

class BfsCorrectness : public ::testing::TestWithParam<Point> {};

TEST_P(BfsCorrectness, MatchesHostReference) {
  const Point pt = GetParam();
  MachineConfig cfg;
  cfg.proc_count = pt.procs;
  Machine machine(cfg);
  BfsParams params;
  params.n = pt.size_per_proc * pt.procs;
  params.threads = pt.threads;
  params.seed = 42;
  BfsApp app(machine, params);
  app.setup();
  machine.run();
  EXPECT_TRUE(app.verify());
  EXPECT_EQ(app.gather_dist(), app.host_reference());
  EXPECT_GT(app.levels(), 0u);
  EXPECT_GT(app.remote_visits(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Sizes, BfsCorrectness,
                         ::testing::Values(Point{2, 32, 1}, Point{4, 64, 2},
                                           Point{8, 32, 4}, Point{3, 16, 6}));

TEST(BfsWorkload, FrozenDefaultCycles) {
  // The registry defaults (P=16, 512 vertices/PE, h=4, seed 1). Any
  // change to this count is a simulation-semantics change and must be
  // deliberate.
  const auto m = test::tiny_manifest("bfs", 512, 4, 16);
  const auto r = test::run_verified(m);
  EXPECT_EQ(r.end_cycle, 38002u);
}

TEST(BfsWorkload, Deterministic) {
  test::expect_deterministic(test::tiny_manifest("bfs", 64, 3, 4));
}

TEST(BfsWorkload, CheckpointRoundTrip) {
  test::expect_roundtrip(test::tiny_manifest("bfs", 64, 2, 4), "bfs");
}

TEST(BfsWorkload, FaultSweepSmoke) {
  test::expect_fault_tolerant(test::tiny_manifest("bfs", 64, 4, 4));
}

TEST(BfsWorkload, UnreachedVerticesStayUnreached) {
  // A degree-1 graph usually leaves part of the graph unreachable; the
  // verifier must agree with the host reference on exactly which part.
  MachineConfig cfg;
  cfg.proc_count = 4;
  Machine machine(cfg);
  BfsParams params;
  params.n = 128;
  params.threads = 2;
  params.degree = 1;
  params.seed = 9;
  BfsApp app(machine, params);
  app.setup();
  machine.run();
  EXPECT_TRUE(app.verify());
}

}  // namespace
}  // namespace emx::workloads
