// The multithreaded FFT must compute the actual transform. With the local
// phase included, the gathered (bit-reversed-order) output must match the
// host DIF reference to float rounding, across P, n and h.
#include <gtest/gtest.h>

#include "apps/fft.hpp"
#include "apps/host_reference.hpp"
#include "apps/verify.hpp"
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

std::string case_name(const testing::TestParamInfo<Case>& info) {
  return "P" + std::to_string(info.param.procs) + "_n" +
         std::to_string(info.param.n) + "_h" + std::to_string(info.param.threads);
}

class FftSweep : public testing::TestWithParam<Case> {};

TEST_P(FftSweep, MatchesHostReference) {
  const Case& c = GetParam();
  MachineConfig cfg;
  cfg.proc_count = c.procs;
  Machine machine(cfg);
  FftApp app(machine, FftParams{.n = c.n,
                                .threads = c.threads,
                                .include_local_phase = true});
  app.setup();
  machine.run();
  EXPECT_LT(app.verify_error(), 1e-5)
      << "FFT mismatch for P=" << c.procs << " n=" << c.n
      << " h=" << c.threads;
}

std::vector<Case> sweep_cases() {
  std::vector<Case> cases;
  for (std::uint32_t procs : {1u, 2u, 4u, 8u}) {
    for (std::uint64_t n_mult : {1ull, 4ull, 16ull}) {
      for (std::uint32_t threads : {1u, 2u, 3u, 4u}) {
        cases.push_back(Case{procs, procs * n_mult, threads});
      }
    }
  }
  cases.push_back(Case{16, 16 * 64, 5});
  cases.push_back(Case{16, 1024, 8});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, FftSweep, testing::ValuesIn(sweep_cases()),
                         case_name);

TEST(Fft, CommOnlyPhaseMatchesPartialReference) {
  // Without the local phase, the gathered data equals the reference after
  // exactly log P DIF iterations.
  constexpr std::uint32_t P = 8;
  constexpr std::uint64_t n = 8 * 16;
  MachineConfig cfg;
  cfg.proc_count = P;
  Machine machine(cfg);
  FftApp app(machine, FftParams{.n = n, .threads = 2});
  app.setup();
  machine.run();

  std::vector<std::complex<float>> expect = app.input();
  for (std::uint64_t size = n; size >= n / 4; size /= 2) {  // 3 = log P iters
    const std::uint64_t half = size / 2;
    for (std::uint64_t start = 0; start < n; start += size) {
      for (std::uint64_t k = 0; k < half; ++k) {
        const double ang = -2.0 * 3.14159265358979323846 *
                           static_cast<double>(k) / static_cast<double>(size);
        const std::complex<float> w(static_cast<float>(std::cos(ang)),
                                    static_cast<float>(std::sin(ang)));
        const auto a = expect[start + k];
        const auto b = expect[start + k + half];
        expect[start + k] = a + b;
        expect[start + k + half] = (a - b) * w;
      }
    }
  }
  EXPECT_LT(max_relative_error(app.gather(), expect), 1e-5);
}

TEST(Fft, ReadsTwoWordsPerPointPerIteration) {
  constexpr std::uint32_t P = 8;
  constexpr std::uint64_t n = 8 * 32;
  MachineConfig cfg;
  cfg.proc_count = P;
  Machine machine(cfg);
  FftApp app(machine, FftParams{.n = n, .threads = 4});
  app.setup();
  machine.run();
  const auto report = machine.report();
  for (const auto& p : report.procs) {
    EXPECT_EQ(p.reads_issued, 3u /*log P*/ * 32u /*m*/ * 2u /*re+im*/);
  }
}

TEST(Fft, NoThreadSyncSwitches) {
  // "No thread synchronization is required for FFT" (Figure 5 caption).
  MachineConfig cfg;
  cfg.proc_count = 4;
  Machine machine(cfg);
  FftApp app(machine, FftParams{.n = 4 * 64, .threads = 4});
  app.setup();
  machine.run();
  for (const auto& p : machine.report().procs) {
    EXPECT_EQ(p.switches.thread_sync, 0u);
  }
}

TEST(Fft, DcSignalTransformsToImpulse) {
  // A constant signal's DFT is an impulse at bin 0 — end-to-end sanity
  // beyond matching the reference implementation.
  constexpr std::uint64_t n = 64;
  MachineConfig cfg;
  cfg.proc_count = 4;
  Machine machine(cfg);
  FftApp app(machine, FftParams{.n = n, .threads = 2, .include_local_phase = true});
  app.setup();
  for (ProcId p = 0; p < 4; ++p) {
    for (std::uint64_t k = 0; k < n / 4; ++k) {
      machine.memory(p).write_f32(app.re_addr(0, k), 1.0f);
      machine.memory(p).write_f32(app.im_addr(0, k), 0.0f);
    }
  }
  machine.run();
  const auto out = app.gather();  // bit-reversed order; bin 0 stays at 0
  EXPECT_NEAR(out[0].real(), static_cast<float>(n), 1e-3);
  EXPECT_NEAR(out[0].imag(), 0.0f, 1e-3);
  for (std::size_t i = 1; i < out.size(); ++i) {
    EXPECT_NEAR(std::abs(out[i]), 0.0f, 1e-3) << "bin " << i;
  }
}

}  // namespace
}  // namespace emx::apps
