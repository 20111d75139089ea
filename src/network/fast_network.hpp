// Fast analytic network: O(1) work per packet.
//
// Latency = (hops + 1) cycles of virtual cut-through plus queuing at the
// source injection port and destination ejection port, each of which
// accepts one packet per 2 cycles. Interior fabric contention is not
// modelled (the endpoint ports dominate on the EM-X's lightly loaded
// shuffle fabric); tests validate agreement with OmegaNetwork.
// For power-of-two P the per-pair hop count matches the detailed
// shortest-path shuffle routing exactly; for other counts (the 80-PE
// prototype included) hops = ceil(log2 P). Both are precomputed into a
// P x P byte table at construction (64 KiB at P=256), so a packet's
// route costs one load.
//
// In-flight packets live in canonical queues rather than a pool: per-src
// self-loop FIFOs and per-dst fabric queues keyed by a monotonically
// increasing injection id. Ejection-port serialization makes per-dst
// arrivals strictly increasing, so deliveries pop the front in id order —
// and the snapshot encoding (format v3) is storage-order-independent.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/ring_buffer.hpp"
#include "network/network_iface.hpp"

namespace emx::net {

class FastNetwork final : public Network {
 public:
  FastNetwork(sim::SimContext& sim, std::uint32_t proc_count,
              Cycle self_latency = 2, Cycle port_interval = 2);

  void inject(const Packet& packet) override;
  unsigned hop_count(ProcId src, ProcId dst) const override {
    EMX_DCHECK(src < proc_count_ && dst < proc_count_, "proc id out of range");
    return hops_[std::size_t{src} * proc_count_ + dst];
  }
  std::string name() const override { return "omega-fast"; }

  void save_state(ser::Serializer& s) const override;

 private:
  static void self_deliver_event(void* ctx, std::uint64_t src, std::uint64_t);
  static void fabric_deliver_event(void* ctx, std::uint64_t id,
                                   std::uint64_t dst);

  sim::SimContext& sim_;
  std::uint32_t proc_count_;
  std::vector<std::uint8_t> hops_;  ///< hop_count(src, dst) at src * P + dst
  Cycle self_latency_;
  Cycle port_interval_;
  std::vector<Cycle> inject_free_;  ///< per-src injection port next-free
  std::vector<Cycle> eject_free_;   ///< per-dst ejection port next-free

  /// Pending self-loop packets per source PE, injection order (equal
  /// latency makes delivery order = injection order).
  std::vector<RingQueue<Packet>> self_q_;
  /// Pending fabric packets per destination PE with their canonical
  /// injection ids; arrivals are strictly increasing per destination, so
  /// deliveries pop the front.
  std::vector<RingQueue<std::pair<std::uint64_t, Packet>>> fabric_q_;
  std::uint64_t next_fabric_id_ = 0;
};

}  // namespace emx::net
