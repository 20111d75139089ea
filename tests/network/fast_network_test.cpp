#include "network/fast_network.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "network/omega_network.hpp"
#include "network/routing.hpp"
#include "sim/sim_context.hpp"

namespace emx::net {
namespace {

struct Collector {
  std::vector<Packet> delivered;
  std::vector<Cycle> times;
  sim::SimContext* sim = nullptr;
};
void collect(void* ctx, const Packet& p) {
  auto* c = static_cast<Collector*>(ctx);
  c->delivered.push_back(p);
  c->times.push_back(c->sim->now());
}

Packet make_packet(ProcId src, ProcId dst) {
  Packet p;
  p.kind = PacketKind::kRemoteWrite;
  p.src = src;
  p.dst = dst;
  return p;
}

TEST(FastNetwork, UncontendedLatencyMatchesDetailedModel) {
  for (std::uint32_t P : {2u, 8u, 64u}) {
    for (ProcId dst : {1u, P - 1}) {
      sim::SimContext sim_fast, sim_det;
      FastNetwork fast(sim_fast, P);
      OmegaNetwork detailed(sim_det, P);
      Collector cf{.sim = &sim_fast}, cd{.sim = &sim_det};
      fast.set_delivery(&collect, &cf);
      detailed.set_delivery(&collect, &cd);
      fast.inject(make_packet(0, dst));
      detailed.inject(make_packet(0, dst));
      sim_fast.run_until_idle();
      sim_det.run_until_idle();
      ASSERT_EQ(cf.times.size(), 1u);
      ASSERT_EQ(cd.times.size(), 1u);
      EXPECT_EQ(cf.times[0], cd.times[0]) << "P=" << P << " dst=" << dst;
    }
  }
}

TEST(FastNetwork, AcceptsNonPowerOfTwoProcessorCounts) {
  // The 80-PE prototype: hops = ceil(log2 80) = 7.
  sim::SimContext sim;
  FastNetwork net(sim, 80);
  Collector c{.sim = &sim};
  net.set_delivery(&collect, &c);
  net.inject(make_packet(0, 79));
  sim.run_until_idle();
  ASSERT_EQ(c.times.size(), 1u);
  EXPECT_EQ(c.times[0], 8u);  // 7 hops + 1
}

TEST(FastNetwork, HopTableMatchesShuffleRouting) {
  // Every pair at every power-of-two P up to 256 (the table's 64 KiB).
  for (std::uint32_t P = 1; P <= 256; P *= 2) {
    sim::SimContext sim;
    const FastNetwork net(sim, P);
    const ShuffleRouting routing(P);
    for (ProcId src = 0; src < P; ++src)
      for (ProcId dst = 0; dst < P; ++dst)
        ASSERT_EQ(net.hop_count(src, dst), routing.hop_count(src, dst))
            << "P=" << P << " " << src << "->" << dst;
  }
}

TEST(FastNetwork, HopTableIsCeilLog2OffPowerOfTwo) {
  sim::SimContext sim;
  const FastNetwork net(sim, 80);
  for (ProcId src = 0; src < 80; ++src)
    for (ProcId dst = 0; dst < 80; ++dst)
      ASSERT_EQ(net.hop_count(src, dst), src == dst ? 0u : 7u)
          << src << "->" << dst;
}

TEST(FastNetwork, EjectionPortSerialisesArrivals) {
  sim::SimContext sim;
  FastNetwork net(sim, 16);
  Collector c{.sim = &sim};
  net.set_delivery(&collect, &c);
  // Four different sources target PE 9 simultaneously.
  for (ProcId s : {1u, 2u, 3u, 4u}) net.inject(make_packet(s, 9));
  sim.run_until_idle();
  ASSERT_EQ(c.times.size(), 4u);
  for (std::size_t i = 1; i < c.times.size(); ++i) {
    EXPECT_GE(c.times[i] - c.times[i - 1], 2u);
  }
}

TEST(FastNetwork, InjectionPortLimitsSourceRate) {
  sim::SimContext sim;
  FastNetwork net(sim, 16);
  Collector c{.sim = &sim};
  net.set_delivery(&collect, &c);
  // One source sprays distinct destinations: departures every 2 cycles,
  // each arriving hops+1 cycles after its departure.
  const std::vector<ProcId> dests = {1u, 2u, 3u, 4u, 5u};
  for (ProcId d : dests) net.inject(make_packet(0, d));
  sim.run_until_idle();
  ASSERT_EQ(c.delivered.size(), dests.size());
  for (std::size_t i = 0; i < c.delivered.size(); ++i) {
    const ProcId d = c.delivered[i].dst;
    const std::size_t order = std::find(dests.begin(), dests.end(), d) -
                              dests.begin();
    EXPECT_EQ(c.times[i], 2 * order + net.hop_count(0, d) + 1)
        << "dst=" << d;
  }
}

TEST(FastNetwork, SelfDeliveryUsesLoopbackLatency) {
  sim::SimContext sim;
  FastNetwork net(sim, 4, /*self_latency=*/2);
  Collector c{.sim = &sim};
  net.set_delivery(&collect, &c);
  net.inject(make_packet(2, 2));
  sim.run_until_idle();
  ASSERT_EQ(c.times.size(), 1u);
  EXPECT_EQ(c.times[0], 2u);
  EXPECT_EQ(net.stats().self_deliveries, 1u);
}

}  // namespace
}  // namespace emx::net
