#include "network/fast_network.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace emx::net {

FastNetwork::FastNetwork(sim::SimContext& sim, std::uint32_t proc_count,
                         Cycle self_latency, Cycle port_interval)
    : sim_(sim),
      hops_(ceil_log2(proc_count)),
      routing_(is_power_of_two(proc_count)
                   ? std::optional<ShuffleRouting>(ShuffleRouting(proc_count))
                   : std::nullopt),
      self_latency_(self_latency),
      port_interval_(port_interval),
      inject_free_(proc_count, 0),
      eject_free_(proc_count, 0),
      self_q_(proc_count),
      fabric_q_(proc_count) {
  EMX_CHECK(proc_count > 0, "need at least one processor");
}

void FastNetwork::inject(const Packet& packet) {
  const Cycle now = sim_.now();
  ++stats_.packets_injected;

  if (packet.src == packet.dst) {
    ++stats_.self_deliveries;
    stats_.latency.add(static_cast<double>(self_latency_));
    self_q_[packet.src].push_back(packet);
    sim_.schedule(self_latency_, &FastNetwork::self_deliver_event, this,
                  packet.src, 0);
    return;
  }

  ++stats_.fabric_packets;
  const unsigned hops = hop_count(packet.src, packet.dst);
  // Injection port: one packet per port_interval cycles per source switch.
  const Cycle depart = std::max(now, inject_free_[packet.src]);
  inject_free_[packet.src] = depart + port_interval_;

  // Uncontended fabric transit: k hops in k+1 cycles (virtual cut-through).
  Cycle arrival = depart + hops + 1;

  // Ejection port at the destination also takes one packet per
  // port_interval cycles; later of fabric arrival and port availability.
  const Cycle eject_wait =
      eject_free_[packet.dst] > arrival ? eject_free_[packet.dst] - arrival : 0;
  arrival = std::max(arrival, eject_free_[packet.dst]);
  eject_free_[packet.dst] = arrival + port_interval_;

  // Same backlog metric as SwitchBox::reserve: queue depth behind a port
  // in units of its service interval, peak over both endpoint ports.
  const std::uint64_t backlog =
      std::max(depart - now, eject_wait) / port_interval_;
  stats_.peak_port_backlog = std::max(stats_.peak_port_backlog, backlog);

  stats_.contention_wait += (depart - now) + eject_wait;
  stats_.latency.add(static_cast<double>(arrival - now));

  // Ejection-port serialization just made this arrival strictly later
  // than every earlier arrival at this destination, so the per-dst queue
  // is FIFO in id order and the delivery event only needs the id.
  const std::uint64_t id = next_fabric_id_++;
  fabric_q_[packet.dst].emplace_back(id, packet);
  sim_.schedule_at(arrival, &FastNetwork::fabric_deliver_event, this, id,
                   packet.dst);
}

void FastNetwork::save_state(ser::Serializer& s) const {
  stats_.save(s);
  for (Cycle c : inject_free_) s.u64(c);
  for (Cycle c : eject_free_) s.u64(c);
  s.u64(next_fabric_id_);
  for (const auto& q : self_q_) {
    s.u32(static_cast<std::uint32_t>(q.size()));
    for (const Packet& p : q) p.save(s);
  }
  for (const auto& q : fabric_q_) {
    s.u32(static_cast<std::uint32_t>(q.size()));
    for (const auto& [id, p] : q) {
      s.u64(id);
      p.save(s);
    }
  }
}

void FastNetwork::self_deliver_event(void* ctx, std::uint64_t src64,
                                     std::uint64_t) {
  auto* self = static_cast<FastNetwork*>(ctx);
  const auto src = static_cast<ProcId>(src64);
  auto& q = self->self_q_[src];
  EMX_DCHECK(!q.empty(), "self delivery without a queued packet");
  const Packet packet = q.front();
  q.pop_front();
  self->deliver(packet);
}

void FastNetwork::fabric_deliver_event(void* ctx, std::uint64_t id,
                                       std::uint64_t dst64) {
  auto* self = static_cast<FastNetwork*>(ctx);
  const auto dst = static_cast<ProcId>(dst64);
  auto& q = self->fabric_q_[dst];
  EMX_DCHECK(!q.empty() && q.front().first == id,
             "fabric delivery out of id order");
  const Packet packet = q.front().second;
  q.pop_front();
  self->deliver(packet);
}

}  // namespace emx::net
