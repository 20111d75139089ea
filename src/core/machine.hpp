// emx::Machine — the assembled EM-X multiprocessor.
//
// Owns the simulation context, the Omega network, and P EMC-Y processing
// elements; provides the public API applications build on:
//
//   MachineConfig cfg;  cfg.proc_count = 16;
//   Machine m(cfg);
//   auto entry = m.register_entry([](rt::ThreadApi api, Word arg)
//       -> rt::ThreadBody { co_await api.compute(10); });
//   m.configure_barrier(/*threads per PE*/ 2);
//   m.spawn(0, entry, 42);
//   m.run();
//   MachineReport r = m.report();
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "analysis/checker.hpp"
#include "common/component.hpp"
#include "common/rng_registry.hpp"
#include "core/config.hpp"
#include "core/instrumentation.hpp"
#include "fault/faulty_network.hpp"
#include "network/network_iface.hpp"
#include "proc/emcy.hpp"
#include "runtime/thread_api.hpp"
#include "sim/sim_context.hpp"
#include "trace/trace.hpp"

namespace emx::isa {
struct Program;
}

namespace emx {

class Machine {
 public:
  explicit Machine(MachineConfig config, trace::TraceSink* sink = nullptr);
  ~Machine();

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  const MachineConfig& config() const { return config_; }

  /// Every stateful unit of this machine, in serialization order: "sim",
  /// "streams", "network", then "fault"/"checker"/"trace" when armed,
  /// then "pe0".."peN". Snapshot capture/verify, record-replay digests,
  /// crash dumps, stall diagnosis and report aggregation all iterate
  /// this one list.
  const ComponentRegistry& components() const { return components_; }

  /// The sealed component named `name`; panics (with the known names) if
  /// the registry is not sealed yet or no such component exists. The
  /// workload registry resolves each plugin's metrics component through
  /// this at build time — a plugin naming a unit that never made it into
  /// the sealed registry fails loudly instead of reporting into the void.
  const Component* sealed_component(const std::string& name) const;
  sim::SimContext& sim() { return sim_; }
  const sim::SimContext& sim() const { return sim_; }
  net::Network& network() { return *network_; }
  const net::Network& network() const { return *network_; }
  bool fault_enabled() const { return faulty_ != nullptr; }
  const fault::FaultDomain& fault_domain() const { return fault_domain_; }
  bool check_enabled() const { return checker_ != nullptr; }
  /// The armed checker hub, or null when config.check is all-off.
  const analysis::CheckContext* checker() const { return checker_.get(); }
  proc::Emcy& pe(ProcId p);
  const proc::Emcy& pe(ProcId p) const;
  proc::Memory& memory(ProcId p) { return pe(p).memory(); }
  rt::ThreadEngine& engine(ProcId p) { return pe(p).engine(); }

  /// Every pseudo-random stream of this run, by name. Apps draw their
  /// workload streams here ("workload.<app>"); the fault plan's stream is
  /// adopted as "fault.plan" — so one registry serializes them all.
  rng::StreamRegistry& streams() { return streams_; }
  const rng::StreamRegistry& streams() const { return streams_; }

  /// Registers a spawnable thread entry; returns its entry id.
  std::uint32_t register_entry(rt::EntryFn fn) { return registry_.add(std::move(fn)); }

  /// Records an ISA program registered on this machine
  /// (isa::register_program calls this). The static verifier gates a run
  /// by walking exactly this list — coroutine-native entries have no
  /// instruction stream to analyse and are not recorded.
  void note_isa_program(std::shared_ptr<const isa::Program> program);

  /// Every recorded ISA program, in registration order.
  const std::vector<std::shared_ptr<const isa::Program>>& isa_programs() const {
    return isa_programs_;
  }

  /// Sets the number of threads that join the iteration barrier on every
  /// PE. Must be called before any thread reaches the barrier.
  void configure_barrier(std::uint32_t participants_per_pe);

  /// Schedules a thread invocation on `proc` at cycle `at` (host-side
  /// seeding of the computation).
  void spawn(ProcId proc, std::uint32_t entry, Word arg, Cycle at = 0);

  /// Runs the simulation to completion (event queue drained). Panics if
  /// threads remain suspended (deadlock / lost wake-up) or if the event
  /// budget (config.max_events) is exceeded. When config.watchdog_cycles
  /// is armed, a non-quiescent stall instead ends the run with
  /// watchdog_fired() set and a diagnosis in place of the panics.
  void run();

  /// Runs until the next event would land past `pause_at` (checkpoint /
  /// record / resume runs). Returns true when paused — the caller may
  /// snapshot and call run_to() again (or with 0 to finish). Returns
  /// false when the run completed: end-of-run checks have executed
  /// exactly as in run(), and calling again is an error.
  bool run_to(Cycle pause_at);

  bool ran() const { return ran_; }
  Cycle end_cycle() const { return end_cycle_; }

  /// True when the progress watchdog cut the run short (armed via
  /// config.watchdog_cycles). end_cycle() is then the stall-detection
  /// point, not quiescence, and the liveness panics were skipped so the
  /// diagnosis could be built.
  bool watchdog_fired() const { return watchdog_fired_; }
  const std::string& watchdog_diagnosis() const { return watchdog_diagnosis_; }

  /// Builds the measurement report. Valid after run().
  MachineReport report() const;

 private:
  static void delivery_thunk(void* ctx, const net::Packet& packet);
  static void mem_probe_thunk(void* ctx, LocalAddr addr, std::uint32_t words);
  static void late_schedule_thunk(void* ctx, Cycle target, Cycle now);
  static void outage_begin_event(void* ctx, std::uint64_t pe, std::uint64_t end);
  static void outage_end_event(void* ctx, std::uint64_t pe, std::uint64_t);
  void build_watchdog_diagnosis(bool quiescent);
  /// End-of-run bookkeeping shared by run() and run_to(): watchdog
  /// diagnosis, quiescence checks, liveness panics, ledger invariants.
  void finish_run(sim::StopReason stop);

  /// Stable per-PE context for the Memory write probe.
  struct MemProbe {
    analysis::CheckContext* checker = nullptr;
    ProcId pe = 0;
  };

  MachineConfig config_;
  sim::SimContext sim_;
  std::unique_ptr<net::Network> network_;
  fault::FaultyNetwork* faulty_ = nullptr;  ///< aliases network_ when armed
  fault::FaultDomain fault_domain_;
  std::unique_ptr<analysis::CheckContext> checker_;  ///< null unless armed
  std::vector<MemProbe> mem_probes_;  ///< one per PE, checker runs only
  rng::StreamRegistry streams_;
  rt::EntryRegistry registry_;
  std::vector<std::shared_ptr<const isa::Program>> isa_programs_;
  std::vector<std::unique_ptr<proc::Emcy>> pes_;
  /// Reliability channels, one per PE, constructed only when the fault
  /// plan is armed with recovery on. The PEs see them as ChannelHooks.
  std::vector<std::unique_ptr<fault::ReliableChannel>> channels_;
  /// Per-destination delivery table handed to the outermost network:
  /// unchecked runs jump straight into Emcy::accept; checked runs route
  /// through delivery_thunk so the checker observes every ejection.
  std::vector<net::DeliveryEndpoint> delivery_;
  ComponentRegistry components_;
  trace::TraceSink* sink_;

  std::uint32_t barrier_entry_central_ = 0;
  std::uint32_t barrier_entry_tree_ = 0;
  std::uint32_t barrier_count_ = 0;  ///< central coordinator join count
  std::vector<rt::BarrierNode> tree_nodes_;

  Cycle end_cycle_ = 0;
  bool ran_ = false;
  bool watchdog_fired_ = false;
  std::string watchdog_diagnosis_;
};

}  // namespace emx
