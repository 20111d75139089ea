#include "network/fast_network.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "network/routing.hpp"

namespace emx::net {

FastNetwork::FastNetwork(sim::SimContext& sim, std::uint32_t proc_count,
                         Cycle self_latency, Cycle port_interval)
    : sim_(sim),
      proc_count_(proc_count),
      self_latency_(self_latency),
      port_interval_(port_interval),
      inject_free_(proc_count, 0),
      eject_free_(proc_count, 0),
      self_q_(proc_count),
      fabric_q_(proc_count) {
  EMX_CHECK(proc_count > 0, "need at least one processor");
  if (is_power_of_two(proc_count)) {
    hops_ = ShuffleRouting(proc_count).hop_table();
  } else {
    hops_.assign(std::size_t{proc_count} * proc_count,
                 static_cast<std::uint8_t>(ceil_log2(proc_count)));
    for (ProcId p = 0; p < proc_count; ++p)
      hops_[std::size_t{p} * proc_count + p] = 0;
  }
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
  fabric_q_[packet.dst].push_back({id, packet});
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
    for (std::size_t i = 0; i < q.size(); ++i) q[i].save(s);
  }
  for (const auto& q : fabric_q_) {
    s.u32(static_cast<std::uint32_t>(q.size()));
    for (std::size_t i = 0; i < q.size(); ++i) {
      s.u64(q[i].first);
      q[i].second.save(s);
    }
  }
}

void FastNetwork::self_deliver_event(void* ctx, std::uint64_t src64,
                                     std::uint64_t) {
  auto* self = static_cast<FastNetwork*>(ctx);
  const auto src = static_cast<ProcId>(src64);
  auto& q = self->self_q_[src];
  EMX_DCHECK(!q.empty(), "self delivery without a queued packet");
  // Delivery never injects synchronously (packets leave through the OBU's
  // scheduled release), so the front slot stays put until it is popped.
  self->deliver(q.front());
  q.pop_front();
}

void FastNetwork::fabric_deliver_event(void* ctx, std::uint64_t id,
                                       std::uint64_t dst64) {
  auto* self = static_cast<FastNetwork*>(ctx);
  const auto dst = static_cast<ProcId>(dst64);
  auto& q = self->fabric_q_[dst];
  EMX_DCHECK(!q.empty() && q.front().first == id,
             "fabric delivery out of id order");
  self->deliver(q.front().second);
  q.pop_front();
}

}  // namespace emx::net
