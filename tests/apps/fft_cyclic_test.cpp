// Cyclic-distribution FFT: correct transform, inverted phase structure
// (communication last), same packet counts as the blocked layout.
#include <gtest/gtest.h>

#include "apps/fft.hpp"
#include "apps/fft_cyclic.hpp"
#include "core/machine.hpp"

namespace emx::apps {
namespace {

// No padding (procs is 64-bit, the tail an explicit zero): the ctest name
// carries gtest's raw-byte dump of this struct, and a padding hole would
// put uninitialised memory into it.
struct Case {
  std::uint64_t procs;
  std::uint64_t n;
  std::uint32_t threads;
  std::uint32_t pad = 0;
};

class CyclicFftSweep : public testing::TestWithParam<Case> {};

TEST_P(CyclicFftSweep, MatchesHostReference) {
  const Case& c = GetParam();
  MachineConfig cfg;
  cfg.proc_count = c.procs;
  Machine m(cfg);
  CyclicFftApp app(m, CyclicFftParams{.n = c.n, .threads = c.threads});
  app.setup();
  m.run();
  EXPECT_LT(app.verify_error(), 1e-5)
      << "P=" << c.procs << " n=" << c.n << " h=" << c.threads;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CyclicFftSweep,
    testing::Values(Case{1, 8, 1}, Case{2, 8, 1}, Case{2, 64, 2},
                    Case{4, 64, 3}, Case{8, 64, 2}, Case{8, 256, 4},
                    Case{16, 256, 5}, Case{16, 1024, 8}),
    [](const auto& info) {
      return "P" + std::to_string(info.param.procs) + "_n" +
             std::to_string(info.param.n) + "_h" +
             std::to_string(info.param.threads);
    });

TEST(CyclicFft, MatchesBlockedLayoutBitForBit) {
  // Same signal through both layouts: identical transforms (same float
  // operation order per element).
  constexpr std::uint64_t n = 512;
  constexpr std::uint32_t P = 8;
  MachineConfig cfg;
  cfg.proc_count = P;

  Machine mb(cfg);
  FftApp blocked(mb, FftParams{.n = n, .threads = 2, .seed = 77,
                               .include_local_phase = true});
  blocked.setup();
  mb.run();

  Machine mc(cfg);
  CyclicFftApp cyclic(mc, CyclicFftParams{.n = n, .threads = 2, .seed = 77});
  cyclic.setup();
  mc.run();

  const auto vb = blocked.gather();
  const auto vc = cyclic.gather();
  ASSERT_EQ(vb.size(), vc.size());
  for (std::size_t i = 0; i < vb.size(); ++i) {
    EXPECT_EQ(vb[i], vc[i]) << "point " << i;
  }
}

TEST(CyclicFft, SamePacketCountAsBlocked) {
  constexpr std::uint64_t n = 8 * 128;
  MachineConfig cfg;
  cfg.proc_count = 8;

  auto reads_of = [&](auto&& app_factory) {
    Machine m(cfg);
    auto app = app_factory(m);
    app.setup();
    m.run();
    std::uint64_t reads = 0;
    for (const auto& p : m.report().procs) reads += p.reads_issued;
    return reads;
  };
  const std::uint64_t blocked_reads = reads_of([&](Machine& m) {
    return FftApp(m, FftParams{.n = n, .threads = 2,
                               .include_local_phase = true});
  });
  const std::uint64_t cyclic_reads = reads_of([&](Machine& m) {
    return CyclicFftApp(m, CyclicFftParams{.n = n, .threads = 2});
  });
  EXPECT_EQ(blocked_reads, cyclic_reads)
      << "both layouts communicate log P iterations of 2 words per point";
}

TEST(CyclicFft, NoThreadSyncSwitches) {
  MachineConfig cfg;
  cfg.proc_count = 4;
  Machine m(cfg);
  CyclicFftApp app(m, CyclicFftParams{.n = 4 * 64, .threads = 4});
  app.setup();
  m.run();
  for (const auto& p : m.report().procs) {
    EXPECT_EQ(p.switches.thread_sync, 0u);
  }
}

}  // namespace
}  // namespace emx::apps
