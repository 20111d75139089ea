// Randomized stress: many threads per PE executing random mixes of
// computes, remote reads (single/paired/block), writes, spawns and
// yields. Checks global invariants: the machine drains, every frame is
// reclaimed, packets are conserved, reads are all serviced, accounting
// tiles the timeline — for every seed, on both network models.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/machine.hpp"

namespace emx {
namespace {

// No padding (the tail is an explicit zero): the ctest name carries gtest's
// raw-byte dump of this struct, and a padding hole would put uninitialised
// memory into it.
struct StressCase {
  std::uint64_t seed;
  NetworkModel net;
  std::uint32_t pad = 0;
};

class StressRun : public testing::TestWithParam<StressCase> {};

TEST_P(StressRun, InvariantsHoldUnderChaos) {
  const StressCase& sc = GetParam();
  constexpr std::uint32_t kProcs = 8;
  MachineConfig cfg;
  cfg.proc_count = kProcs;
  cfg.network = sc.net;
  cfg.max_events = 50'000'000;  // livelock guard
  Machine m(cfg);

  // Child entry: a short burst of compute + one write.
  const auto child = m.register_entry([](rt::ThreadApi api, Word arg) -> rt::ThreadBody {
    co_await api.compute(1 + arg % 17);
    co_await api.remote_write(
        rt::GlobalAddr{static_cast<ProcId>(arg % kProcs),
                       rt::kReservedWords + 64 + arg % 32},
        arg);
  });

  // Worker entry: arg seeds a per-thread RNG driving a random op tape.
  const auto worker = m.register_entry(
      [child](rt::ThreadApi api, Word arg) -> rt::ThreadBody {
        Rng rng(arg);
        const int ops = 20 + static_cast<int>(rng.bounded(30));
        for (int i = 0; i < ops; ++i) {
          const ProcId peer = static_cast<ProcId>(rng.bounded(kProcs));
          const LocalAddr addr =
              rt::kReservedWords + static_cast<LocalAddr>(rng.bounded(32));
          switch (rng.bounded(6)) {
            case 0:
              co_await api.compute(1 + rng.bounded(40));
              break;
            case 1:
              (void)co_await api.remote_read(rt::GlobalAddr{peer, addr});
              break;
            case 2: {
              const ProcId peer2 = static_cast<ProcId>(rng.bounded(kProcs));
              (void)co_await api.remote_read_pair(
                  rt::GlobalAddr{peer, addr},
                  rt::GlobalAddr{peer2, addr + 1});
              break;
            }
            case 3:
              co_await api.remote_write(rt::GlobalAddr{peer, addr},
                                        static_cast<Word>(i));
              break;
            case 4:
              co_await api.remote_read_block(
                  rt::GlobalAddr{peer, addr},
                  rt::kReservedWords + 128 +
                      static_cast<LocalAddr>(rng.bounded(64)),
                  1 + static_cast<std::uint32_t>(rng.bounded(8)));
              break;
            case 5:
              if (rng.bounded(2)) {
                co_await api.spawn(peer, child, static_cast<Word>(rng.next_u32()));
              } else {
                co_await api.yield();
              }
              break;
          }
        }
      });

  std::uint32_t spawned = 0;
  Rng seeder(sc.seed);
  for (ProcId p = 0; p < kProcs; ++p) {
    const auto count = 2 + static_cast<std::uint32_t>(seeder.bounded(4));
    for (std::uint32_t t = 0; t < count; ++t) {
      m.spawn(p, worker, static_cast<Word>(seeder.next_u32()));
      ++spawned;
    }
  }
  m.run();  // panics internally on deadlock / leaked frames

  const MachineReport r = m.report();
  EXPECT_EQ(r.network.packets_injected, r.network.packets_delivered);
  std::uint64_t issued = 0, serviced = 0, accepted = 0;
  for (const auto& p : r.procs) {
    issued += p.reads_issued;
    serviced += p.dma_reads + p.dma_block_reads;
    accepted += p.packets_accepted;
    EXPECT_EQ(p.busy_total() + p.comm, r.total_cycles);
  }
  EXPECT_EQ(issued, serviced);
  EXPECT_EQ(accepted, r.network.packets_delivered);
  EXPECT_GT(spawned, 0u);

  // Frames: every worker, child and barrier handler reclaimed.
  for (ProcId p = 0; p < kProcs; ++p) {
    EXPECT_EQ(m.engine(p).frames().live(), 0u);
    EXPECT_GT(m.engine(p).frames().created(), 0u);
  }
}

std::vector<StressCase> cases() {
  std::vector<StressCase> out;
  for (std::uint64_t seed : {1ull, 2ull, 3ull, 42ull, 1234ull, 99999ull}) {
    out.push_back({seed, NetworkModel::kFast});
  }
  out.push_back({7ull, NetworkModel::kDetailed});
  out.push_back({8ull, NetworkModel::kDetailed});
  return out;
}

INSTANTIATE_TEST_SUITE_P(Seeds, StressRun, testing::ValuesIn(cases()),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param.seed) +
                                  (info.param.net == NetworkModel::kDetailed
                                       ? "_detailed"
                                       : "_fast");
                         });

}  // namespace
}  // namespace emx
