// Frozen digests: every registry app at its registry defaults (P=16,
// seed 1), plus the paper-scale P=64 sort, must end at the same cycle
// with the same trace event count and trace CRC as the recorded values.
// The trace CRC pins the order and payload of every event, so any change
// to the simulated schedule, however small, fails here — performance
// work on the event loop must keep these bytes exactly.
#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <string>

#include "snapshot/runner.hpp"
#include "workloads/registry.hpp"

namespace emx {
namespace {

struct Frozen {
  const char* app;
  std::uint32_t procs;
  std::uint32_t threads;  ///< 0: the registry default
  Cycle cycles;
  std::uint64_t trace_events;
  std::uint32_t trace_crc;
};

// Printed in test listings: the app and P, not the struct's raw bytes
// (whose padding would make the listing differ between builds).
void PrintTo(const Frozen& f, std::ostream* os) {
  *os << f.app << " P=" << f.procs;
}

std::string frozen_name(const testing::TestParamInfo<Frozen>& info) {
  std::string name = std::string(info.param.app) + "_p" +
                     std::to_string(info.param.procs);
  for (char& c : name)
    if (c == '-') c = '_';
  return name;
}

class FrozenDigest : public testing::TestWithParam<Frozen> {};

TEST_P(FrozenDigest, CyclesAndTraceDigestAreUnchanged) {
  const Frozen& f = GetParam();
  const workloads::Spec* spec = workloads::Registry::instance().find(f.app);
  ASSERT_NE(spec, nullptr) << f.app;
  snapshot::RunOptions opts;
  opts.manifest.app = f.app;
  opts.manifest.size_per_proc = spec->default_size_per_proc;
  opts.manifest.threads = f.threads != 0 ? f.threads : spec->default_threads;
  opts.manifest.iterations = 8;  // emx_run's default jacobi sweep count
  opts.manifest.seed = 1;
  opts.manifest.config.proc_count = f.procs;
  const snapshot::RunResult r = snapshot::run(opts);
  ASSERT_EQ(r.exit_code, 0) << r.error;
  EXPECT_TRUE(r.result_ok);
  EXPECT_EQ(r.end_cycle, f.cycles);
  EXPECT_EQ(r.trace_events, f.trace_events);
  EXPECT_EQ(r.trace_crc, f.trace_crc);
}

INSTANTIATE_TEST_SUITE_P(
    RegistryDefaults, FrozenDigest,
    testing::Values(
        Frozen{"sort", 16, 0, 472640, 497564, 0xae30af20u},
        Frozen{"fft", 16, 0, 1397612, 395439, 0x83f15764u},
        Frozen{"fft-cyclic", 16, 0, 1397625, 395442, 0x7c904407u},
        Frozen{"jacobi", 16, 0, 50650, 4908, 0x2b985fe3u},
        Frozen{"bfs", 16, 0, 38002, 334628, 0x0be016d0u},
        Frozen{"spmv", 16, 0, 136245, 228819, 0xd0ced549u},
        Frozen{"ptrchase", 16, 0, 34813, 62400, 0x134230efu},
        Frozen{"histsort", 16, 0, 26498, 40484, 0x882f3ca3u},
        // The paper-scale grid cell: P=64, h=8.
        Frozen{"sort", 64, 8, 955859, 4324374, 0xa11817dbu}),
    frozen_name);

}  // namespace
}  // namespace emx
