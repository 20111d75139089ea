#include "apps/jacobi.hpp"

#include <gtest/gtest.h>

#include "core/machine.hpp"

namespace emx::apps {
namespace {

// No padding (procs is 64-bit): the ctest name carries gtest's raw-byte
// dump of this struct, and a padding hole would put uninitialised memory
// into it.
struct Case {
  std::uint64_t procs;
  std::uint64_t n;
  std::uint32_t threads;
  std::uint32_t iterations;
};

class JacobiSweep : public testing::TestWithParam<Case> {};

TEST_P(JacobiSweep, MatchesHostSweeps) {
  const Case& c = GetParam();
  MachineConfig cfg;
  cfg.proc_count = c.procs;
  Machine m(cfg);
  JacobiApp app(m, JacobiParams{.n = c.n,
                                .threads = c.threads,
                                .iterations = c.iterations});
  app.setup();
  m.run();
  EXPECT_LT(app.verify_error(), 1e-6)
      << "P=" << c.procs << " n=" << c.n << " h=" << c.threads
      << " iters=" << c.iterations;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, JacobiSweep,
    testing::Values(Case{1, 16, 1, 5}, Case{2, 16, 1, 8}, Case{2, 64, 2, 8},
                    Case{4, 64, 3, 10}, Case{8, 256, 4, 12},
                    Case{8, 64, 8, 6}, Case{16, 512, 2, 20},
                    Case{5, 40, 2, 7} /* non-power-of-two P, fast net */),
    [](const auto& info) {
      return "P" + std::to_string(info.param.procs) + "_n" +
             std::to_string(info.param.n) + "_h" +
             std::to_string(info.param.threads) + "_it" +
             std::to_string(info.param.iterations);
    });

TEST(Jacobi, ConvergesTowardLinearProfile) {
  // With fixed endpoints, Jacobi sweeps approach the linear interpolant.
  MachineConfig cfg;
  cfg.proc_count = 4;
  Machine m(cfg);
  JacobiApp app(m, JacobiParams{.n = 32, .threads = 2, .iterations = 4000});
  app.setup();
  // Fixed endpoints 0 and 1, noisy interior.
  m.memory(0).write_f32(app.cell_addr(0, 0), 0.0f);
  m.memory(3).write_f32(app.cell_addr(0, 7), 1.0f);
  m.run();
  const auto grid = app.gather();
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const double expect = static_cast<double>(i) / (grid.size() - 1);
    EXPECT_NEAR(grid[i], expect, 0.02) << "cell " << i;
  }
}

TEST(Jacobi, CommunicationIsTinyRelativeToComputation) {
  // The third point on the paper's computation-to-communication axis:
  // two halo words per PE per sweep — negligible next to m cells of
  // relaxation. Even h=1 shows a compute-dominated profile.
  MachineConfig cfg;
  cfg.proc_count = 8;
  Machine m(cfg);
  JacobiApp app(m, JacobiParams{.n = 8 * 2048, .threads = 1, .iterations = 4});
  app.setup();
  m.run();
  const auto report = m.report();
  const auto shares = report.shares();
  EXPECT_GT(shares.compute, 80.0);
  EXPECT_LT(shares.comm, 15.0);
  // Exactly one halo fetch (paired where possible) per PE per iteration.
  for (ProcId p = 0; p < 8; ++p) {
    const auto& pr = report.procs[p];
    const std::uint64_t halo_words = (p == 0 || p == 7) ? 1 : 2;
    EXPECT_EQ(pr.reads_issued, halo_words * 4) << "PE " << p;
  }
}

TEST(Jacobi, HaloPairUsesOneSuspensionPerSweep) {
  MachineConfig cfg;
  cfg.proc_count = 4;
  Machine m(cfg);
  JacobiApp app(m, JacobiParams{.n = 4 * 64, .threads = 1, .iterations = 6});
  app.setup();
  m.run();
  const auto report = m.report();
  // Interior PEs: both halos under one suspension (two-operand matching).
  EXPECT_EQ(report.procs[1].switches.remote_read, 6u);
  EXPECT_EQ(report.procs[1].reads_issued, 12u);
  // Boundary PEs: a single halo, still one suspension.
  EXPECT_EQ(report.procs[0].switches.remote_read, 6u);
  EXPECT_EQ(report.procs[0].reads_issued, 6u);
}

}  // namespace
}  // namespace emx::apps
