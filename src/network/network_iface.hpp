// Abstract interface shared by the detailed and fast network models.
//
// A Network owns packet transit: the Machine injects a packet at the
// current simulation time and the network invokes the delivery handler at
// the (contention-adjusted) arrival cycle. Both implementations enforce
// the message non-overtaking rule per (src, dst) pair.
#pragma once

#include <cstdint>
#include <string>

#include "common/component.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "network/packet.hpp"
#include "sim/sim_context.hpp"

namespace emx::net {

struct NetworkStats {
  std::uint64_t packets_injected = 0;
  std::uint64_t packets_delivered = 0;
  std::uint64_t self_deliveries = 0;   ///< OBU->IBU loopback, no fabric
  std::uint64_t fabric_packets = 0;    ///< packets that crossed switches
  Cycle contention_wait = 0;           ///< cycles spent queued at ports
  /// Deepest queue observed behind any single port (packets): the
  /// cut-through buffering a physical fabric would need to avoid
  /// backpressure at this load.
  std::uint64_t peak_port_backlog = 0;
  RunningStat latency;                 ///< injection->delivery, cycles

  void save(ser::Serializer& s) const {
    s.u64(packets_injected);
    s.u64(packets_delivered);
    s.u64(self_deliveries);
    s.u64(fabric_packets);
    s.u64(contention_wait);
    s.u64(peak_port_backlog);
    latency.save(s);
  }
};

/// Called when a packet reaches its destination switch's ejection port;
/// sim.now() equals the arrival cycle during the call.
using DeliveryFn = void (*)(void* ctx, const Packet& packet);

/// One delivery-table slot: the handler for packets addressed to one PE.
/// Devirtualizes the hot path — the network calls the destination's
/// handler directly instead of funnelling every packet through a single
/// machine-wide dispatch callback.
struct DeliveryEndpoint {
  DeliveryFn fn = nullptr;
  void* ctx = nullptr;
};

/// The network is the "network" component: its snapshot section is the
/// model's counters, port timelines and in-flight packets (decorators
/// prepend theirs; the Machine registers the outermost network only).
class Network : public Component {
 public:
  /// Single-callback delivery: every ejected packet goes through one
  /// handler. Used by decorators to interpose on the wrapped fabric.
  void set_delivery(DeliveryFn fn, void* ctx) {
    deliver_fn_ = fn;
    deliver_ctx_ = ctx;
  }

  /// Per-destination delivery: packet.dst indexes `table` (size `count`).
  /// Takes precedence over set_delivery(); the table must outlive the
  /// network. Set by the Machine on the outermost network.
  void set_delivery_table(const DeliveryEndpoint* table, std::uint32_t count) {
    table_ = table;
    table_count_ = count;
  }

  /// Hands a packet to the network at sim.now(). The packet is copied.
  virtual void inject(const Packet& packet) = 0;

  /// Uncontended switch-to-switch hop count for this topology.
  virtual unsigned hop_count(ProcId src, ProcId dst) const = 0;

  virtual std::string name() const = 0;

  /// Virtual so decorators (fault::FaultyNetwork) can expose the wrapped
  /// fabric's counters instead of their own.
  virtual const NetworkStats& stats() const { return stats_; }

  /// Serializes the model's full dynamic state: counters, port timelines,
  /// and every in-flight packet. Decorators prepend their own state and
  /// forward to the wrapped fabric.
  void save_state(ser::Serializer& s) const override { stats_.save(s); }

  const char* component_name() const override { return "network"; }

 protected:
  void deliver(const Packet& packet) {
    ++stats_.packets_delivered;
    if (table_ != nullptr) {
      EMX_DCHECK(packet.dst < table_count_, "packet to unknown PE");
      const DeliveryEndpoint& e = table_[packet.dst];
      e.fn(e.ctx, packet);
      return;
    }
    EMX_CHECK(deliver_fn_ != nullptr, "network delivery handler unset");
    deliver_fn_(deliver_ctx_, packet);
  }

  NetworkStats stats_;

 private:
  const DeliveryEndpoint* table_ = nullptr;
  std::uint32_t table_count_ = 0;
  DeliveryFn deliver_fn_ = nullptr;
  void* deliver_ctx_ = nullptr;
};

}  // namespace emx::net
