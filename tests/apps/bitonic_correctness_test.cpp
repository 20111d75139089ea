// Multithreaded bitonic sorting must actually sort — across processor
// counts, data sizes and thread counts (parameterized sweep).
#include <gtest/gtest.h>

#include "apps/bitonic.hpp"
#include "apps/verify.hpp"
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
  NetworkModel net;
};

std::string case_name(const testing::TestParamInfo<Case>& info) {
  const Case& c = info.param;
  return "P" + std::to_string(c.procs) + "_n" + std::to_string(c.n) + "_h" +
         std::to_string(c.threads) +
         (c.net == NetworkModel::kDetailed ? "_detailed" : "_fast");
}

class BitonicSweep : public testing::TestWithParam<Case> {};

TEST_P(BitonicSweep, SortsCorrectly) {
  const Case& c = GetParam();
  MachineConfig cfg;
  cfg.proc_count = c.procs;
  cfg.network = c.net;
  Machine machine(cfg);
  BitonicSortApp app(machine, BitonicParams{.n = c.n, .threads = c.threads});
  app.setup();
  machine.run();
  EXPECT_TRUE(app.verify())
      << "sort failed for P=" << c.procs << " n=" << c.n << " h=" << c.threads;
}

std::vector<Case> sweep_cases() {
  std::vector<Case> cases;
  for (std::uint32_t procs : {1u, 2u, 4u, 8u, 16u}) {
    for (std::uint64_t per_proc : {1ull, 2ull, 16ull, 64ull}) {
      for (std::uint32_t threads : {1u, 2u, 3u, 4u, 8u}) {
        cases.push_back(Case{procs, procs * per_proc, threads,
                             NetworkModel::kFast});
      }
    }
  }
  // A few detailed-network runs (slower, exact contention).
  cases.push_back(Case{4, 4 * 32, 2, NetworkModel::kDetailed});
  cases.push_back(Case{8, 8 * 64, 4, NetworkModel::kDetailed});
  cases.push_back(Case{16, 16 * 16, 3, NetworkModel::kDetailed});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, BitonicSweep, testing::ValuesIn(sweep_cases()),
                         case_name);

TEST(BitonicSort, LargerRunStaysSorted) {
  MachineConfig cfg;
  cfg.proc_count = 16;
  Machine machine(cfg);
  BitonicSortApp app(machine, BitonicParams{.n = 16 * 1024, .threads = 4});
  app.setup();
  machine.run();
  EXPECT_TRUE(app.verify());
  // All data read: n/P reads per PE per merge step, fixed (paper Fig. 9).
  const auto report = machine.report();
  const std::uint64_t steps = 4 * (4 + 1) / 2;  // log P = 4
  for (const auto& p : report.procs) {
    EXPECT_EQ(p.reads_issued, steps * 1024);
  }
}

TEST(BitonicSort, DuplicateValuesSortCorrectly) {
  MachineConfig cfg;
  cfg.proc_count = 8;
  Machine machine(cfg);
  BitonicSortApp app(machine, BitonicParams{.n = 8 * 32, .threads = 2});
  app.setup();
  // Overwrite the input with heavy duplicates.
  for (ProcId p = 0; p < 8; ++p) {
    for (std::uint64_t k = 0; k < 32; ++k) {
      machine.memory(p).write(app.buf_addr(0, k), static_cast<Word>((k * 7 + p) % 5));
    }
  }
  machine.run();
  const auto result = app.gather();
  EXPECT_TRUE(is_sorted_ascending(result));
}

TEST(BitonicSort, RejectsNonPowerOfTwoProcs) {
  MachineConfig cfg;
  cfg.proc_count = 6;
  cfg.network = NetworkModel::kFast;
  Machine machine(cfg);
  EXPECT_DEATH(
      { BitonicSortApp app(machine, BitonicParams{.n = 60, .threads = 1}); },
      "power-of-two");
}

}  // namespace
}  // namespace emx::apps
