#include "core/machine.hpp"

#include <algorithm>
#include <cstdio>

#include "common/assert.hpp"
#include "network/fast_network.hpp"
#include "network/omega_network.hpp"
#include "runtime/barrier.hpp"
#include "runtime/global_addr.hpp"

namespace emx {

namespace {

ProcId tree_parent(ProcId p) { return (p - 1) / 2; }

// --- iteration-barrier coordinator bodies -------------------------------
// These run as real EM-X threads: join packets are thread invocations and
// the coordinator's work consumes its EXU cycles, so central-coordinator
// serialisation is modelled faithfully.

rt::ThreadBody central_join_body(Machine* m, std::uint32_t* count,
                                 rt::ThreadApi api, Word sense) {
  co_await api.compute(2);  // counter load/increment/compare
  if (++*count == m->config().proc_count) {
    *count = 0;
    // Release: one remote write per PE sets its sense flag; the writes
    // are serviced by each PE's by-pass DMA.
    for (ProcId p = 0; p < m->config().proc_count; ++p) {
      co_await api.remote_write(
          rt::GlobalAddr{p, rt::barrier_flag_addr(static_cast<std::uint8_t>(sense))},
          1);
    }
  }
}

rt::ThreadBody tree_release_body(Machine* m, std::uint32_t release_entry,
                                 rt::ThreadApi api, Word sense) {
  co_await api.compute(1);
  api.local_write(rt::barrier_flag_addr(static_cast<std::uint8_t>(sense)), 1);
  const ProcId p = api.proc();
  const ProcId left = 2 * p + 1;
  const ProcId right = 2 * p + 2;
  if (left < m->config().proc_count) co_await api.spawn(left, release_entry, sense);
  if (right < m->config().proc_count) co_await api.spawn(right, release_entry, sense);
}

rt::ThreadBody tree_join_body(std::vector<rt::BarrierNode>* nodes,
                              std::uint32_t join_entry, std::uint32_t release_entry,
                              rt::ThreadApi api, Word sense) {
  co_await api.compute(2);
  const ProcId p = api.proc();
  rt::BarrierNode& node = (*nodes)[p];
  if (++node.count == node.expected) {
    node.count = 0;
    if (p == 0) {
      // Root: begin the downward release wave on ourselves.
      co_await api.spawn(0, release_entry, sense);
    } else {
      co_await api.spawn(tree_parent(p), join_entry, sense);
    }
  }
}

}  // namespace

Machine::Machine(MachineConfig config, trace::TraceSink* sink)
    : config_(config), sink_(sink) {
  config_.validate();

  switch (config_.network) {
    case NetworkModel::kDetailed:
      network_ = std::make_unique<net::OmegaNetwork>(
          sim_, config_.proc_count, config_.self_loop_cycles,
          config_.port_interval_cycles);
      break;
    case NetworkModel::kFast:
      network_ = std::make_unique<net::FastNetwork>(
          sim_, config_.proc_count, config_.self_loop_cycles,
          config_.port_interval_cycles);
      break;
  }
  if (config_.fault.enabled()) {
    // Decorate the fabric: faults are injected at the sender's NIC and
    // checksums verified at the receiver's, whichever model is inside.
    auto faulty = std::make_unique<fault::FaultyNetwork>(
        sim_, std::move(network_), config_.proc_count, config_.fault,
        fault_domain_, sink_);
    faulty_ = faulty.get();
    network_ = std::move(faulty);
  }
  // Ejection routing is per-destination: the delivery table installed at
  // the end of this constructor (after the PEs exist) replaces the old
  // single machine-wide callback.
  if (faulty_ != nullptr) {
    // One registry covers every stream: snapshots capture the plan's
    // decision stream alongside the app workload streams.
    streams_.adopt("fault.plan", &faulty_->mutable_plan().rng());
  }

  // Runtime-internal entries (ids are stable: registered before any app).
  barrier_entry_central_ = registry_.add(
      [this](rt::ThreadApi api, Word sense) -> rt::ThreadBody {
        return central_join_body(this, &barrier_count_, api, sense);
      });
  const std::uint32_t release_entry = registry_.add(
      [this](rt::ThreadApi api, Word sense) -> rt::ThreadBody {
        // This lambda's own entry id is barrier_entry_tree_ - 1 (it is
        // registered immediately before the tree join entry).
        return tree_release_body(this, barrier_entry_tree_ - 1, api, sense);
      });
  barrier_entry_tree_ = registry_.add(
      [this, release_entry](rt::ThreadApi api, Word sense) -> rt::ThreadBody {
        return tree_join_body(&tree_nodes_, barrier_entry_tree_,
                              release_entry, api, sense);
      });
  EMX_CHECK(barrier_entry_tree_ == release_entry + 1,
            "entry id layout changed; fix tree_release_body's child entry");

  pes_.reserve(config_.proc_count);
  for (ProcId p = 0; p < config_.proc_count; ++p) {
    pes_.push_back(std::make_unique<proc::Emcy>(sim_, config_, p, *network_,
                                                registry_, sink_));
    // fault.reliability=false leaves the lossy plan armed but the
    // recovery protocol off — the deliberately-unrecoverable machine the
    // watchdog tests exercise.
    if (faulty_ != nullptr && config_.fault.reliability) {
      auto& pe = *pes_.back();
      channels_.push_back(std::make_unique<fault::ReliableChannel>(
          sim_, config_.fault, p, pe.obu(), pe.engine().exu(), fault_domain_,
          config_.packet_gen_cycles, sink_));
      pe.attach_channel(channels_.back().get());
    }
  }

  if (faulty_ != nullptr) {
    for (const auto& w : config_.fault.outages) {
      sim_.schedule_at(w.begin, &Machine::outage_begin_event, this, w.pe, w.end);
      sim_.schedule_at(w.end, &Machine::outage_end_event, this, w.pe, 0);
    }
  }

  if (config_.check.enabled()) {
    checker_ = std::make_unique<analysis::CheckContext>(
        config_.check, sim_, config_.proc_count, config_.memory_words,
        rt::kReservedWords);
    // Everything registered so far is runtime plumbing; apps come later.
    checker_->set_runtime_entry_limit(static_cast<std::uint32_t>(registry_.size()));
    mem_probes_.resize(config_.proc_count);
    for (ProcId p = 0; p < config_.proc_count; ++p) {
      pes_[p]->engine().set_checker(checker_.get());
      mem_probes_[p] = MemProbe{checker_.get(), p};
      pes_[p]->memory().set_write_probe(&Machine::mem_probe_thunk,
                                        &mem_probes_[p]);
    }
    if (config_.check.lint)
      sim_.set_late_schedule_hook(&Machine::late_schedule_thunk, checker_.get());
  }

  // Delivery table: with no checker armed, a packet ejecting from the
  // fabric jumps straight into its destination PE's accept() — no
  // machine-wide dispatch hop on the hottest path. A checker reinstates
  // the hop so it observes every ejection.
  delivery_.resize(config_.proc_count);
  for (ProcId p = 0; p < config_.proc_count; ++p) {
    delivery_[p] = checker_ != nullptr
                       ? net::DeliveryEndpoint{&Machine::delivery_thunk, this}
                       : net::DeliveryEndpoint{&proc::Emcy::accept_thunk,
                                               pes_[p].get()};
  }
  network_->set_delivery_table(delivery_.data(),
                               static_cast<std::uint32_t>(delivery_.size()));

  // Component registry: registration order IS the snapshot section order
  // (append-only; see common/component.hpp). assert_covers is the
  // completeness tripwire — a stateful unit built above but missing here
  // panics now instead of silently dropping out of snapshots, replay
  // digests, crash dumps and the stall diagnosis.
  components_.add(&sim_);
  components_.add(&streams_);
  components_.add(network_.get());
  if (faulty_ != nullptr) components_.add(&fault_domain_);
  if (checker_ != nullptr) components_.add(checker_.get());
  if (auto* digest = dynamic_cast<Component*>(sink_); digest != nullptr)
    components_.add(digest);
  for (const auto& pe : pes_) components_.add(pe.get());
  components_.seal();
  components_.assert_covers(
      {&sim_, &streams_, network_.get(), faulty_ != nullptr ? &fault_domain_ : nullptr,
       checker_.get(), pes_.empty() ? nullptr : pes_.front().get(),
       pes_.empty() ? nullptr : pes_.back().get()});
}

Machine::~Machine() {
  // PEs go first: their frame pools destroy the coroutine frames of
  // threads a run left suspended, and those frames may still point into
  // the network, channels, barrier nodes and checker torn down below.
  pes_.clear();
}

namespace {

std::string pe_range_message(ProcId p, std::size_t count) {
  return "Machine::pe(" + std::to_string(p) +
         "): processor id out of range — this machine has " +
         std::to_string(count) + " PEs (valid ids 0.." +
         std::to_string(count == 0 ? 0 : count - 1) + ")";
}

}  // namespace

proc::Emcy& Machine::pe(ProcId p) {
  EMX_CHECK(p < pes_.size(), pe_range_message(p, pes_.size()));
  return *pes_[p];
}

const Component* Machine::sealed_component(const std::string& name) const {
  EMX_CHECK(components_.sealed(),
            "sealed_component('" + name + "') before the registry sealed");
  const Component* c = components_.find(name);
  std::string known;
  if (c == nullptr) {
    for (const Component* item : components_.items()) {
      if (!known.empty()) known += ", ";
      known += item->component_name();
    }
  }
  EMX_CHECK(c != nullptr, "no sealed component named '" + name +
                              "' (known components: " + known + ")");
  return c;
}

const proc::Emcy& Machine::pe(ProcId p) const {
  EMX_CHECK(p < pes_.size(), pe_range_message(p, pes_.size()));
  return *pes_[p];
}

void Machine::note_isa_program(std::shared_ptr<const isa::Program> program) {
  EMX_CHECK(program != nullptr, "note_isa_program: null program");
  isa_programs_.push_back(std::move(program));
}

void Machine::configure_barrier(std::uint32_t participants_per_pe) {
  EMX_CHECK(participants_per_pe > 0, "barrier needs at least one participant");
  if (config_.barrier == BarrierTopology::kCentral) {
    for (auto& pe : pes_) {
      pe->engine().set_barrier(0, barrier_entry_central_, participants_per_pe);
    }
    return;
  }
  tree_nodes_.assign(config_.proc_count, rt::BarrierNode{});
  for (ProcId p = 0; p < config_.proc_count; ++p) {
    std::uint32_t expected = 1;  // this PE's own local join
    if (2 * p + 1 < config_.proc_count) ++expected;
    if (2 * p + 2 < config_.proc_count) ++expected;
    tree_nodes_[p].expected = expected;
    pes_[p]->engine().set_barrier(p, barrier_entry_tree_, participants_per_pe);
  }
}

void Machine::spawn(ProcId proc, std::uint32_t entry, Word arg, Cycle at) {
  EMX_CHECK(!ran_, "spawn after run()");
  pe(proc).engine().schedule_invocation(at, entry, arg);
}

void Machine::run() {
  EMX_CHECK(!ran_, "Machine::run() called twice");
  if (config_.watchdog_cycles > 0) sim_.arm_watchdog(config_.watchdog_cycles);
  const sim::StopReason stop = sim_.run_until_idle(config_.max_events);
  finish_run(stop);
}

bool Machine::run_to(Cycle pause_at) {
  EMX_CHECK(!ran_, "Machine::run_to() after the run completed");
  if (config_.watchdog_cycles > 0) sim_.arm_watchdog(config_.watchdog_cycles);
  const sim::StopReason stop = sim_.run_until_idle(config_.max_events, pause_at);
  if (stop == sim::StopReason::kPaused) return true;
  finish_run(stop);
  return false;
}

void Machine::finish_run(sim::StopReason stop) {
  end_cycle_ = sim_.now();
  ran_ = true;
  watchdog_fired_ = stop == sim::StopReason::kWatchdog;
  if (watchdog_fired_) {
    // Non-quiescent stall: events (timers, barrier polls) keep firing but
    // nothing makes progress. Build the diagnosis and let the checker's
    // wait-graph scan name the stuck threads; the quiescence panics below
    // would only obscure what the diagnosis explains.
    build_watchdog_diagnosis(/*quiescent=*/false);
    if (checker_ != nullptr) checker_->on_quiesce();
    return;
  }
  if (checker_ != nullptr) checker_->on_quiesce();
  if (config_.watchdog_cycles > 0) {
    // An unrecoverable hang can also *quiesce*: a thread suspended on a
    // reply that will never come leaves nothing in the event queue, so
    // the machine drains instead of spinning. With the watchdog armed,
    // convert that into the same bounded, diagnosed stop rather than
    // panicking below.
    bool hung = false;
    for (const auto& pe : pes_)
      hung = hung || pe->engine().frames().live() != 0;
    if (hung) {
      watchdog_fired_ = true;
      build_watchdog_diagnosis(/*quiescent=*/true);
      return;
    }
  }
  if (checker_ == nullptr || !checker_->stuck_reported()) {
    // When the deadlock checker has already named the stuck threads, skip
    // the panic so its diagnostics reach the report.
    for (const auto& pe : pes_) {
      EMX_CHECK(pe->engine().frames().live() == 0,
                "simulation drained with live threads (deadlock or lost wake)");
    }
  }
  if (checker_ != nullptr) checker_->leak_scan();
  if (faulty_ != nullptr) {
    // Reliability invariant: every injected recoverable fault was healed —
    // no request is still outstanding and every damaged request completed.
    for (const auto& pe : pes_) {
      EMX_CHECK(pe->channel() == nullptr || pe->channel()->idle(),
                "run drained with requests still outstanding in a channel");
    }
    EMX_CHECK(fault_domain_.pending_losses() == 0,
              "an injected fault was never recovered");
    const auto& fr = fault_domain_.report();
    EMX_CHECK(fr.recovered == fr.injected_recoverable,
              "fault ledger out of balance");
  }
}

void Machine::outage_begin_event(void* ctx, std::uint64_t pe,
                                 std::uint64_t end) {
  auto* self = static_cast<Machine*>(ctx);
  const auto p = static_cast<ProcId>(pe);
  if (self->sink_ != nullptr)
    self->sink_->on_event(trace::TraceEvent{self->sim_.now(), p, kInvalidThread,
                                            trace::EventType::kOutageBegin,
                                            end});
  self->pes_[p]->begin_outage();
}

void Machine::outage_end_event(void* ctx, std::uint64_t pe, std::uint64_t) {
  auto* self = static_cast<Machine*>(ctx);
  const auto p = static_cast<ProcId>(pe);
  if (self->sink_ != nullptr)
    self->sink_->on_event(trace::TraceEvent{self->sim_.now(), p, kInvalidThread,
                                            trace::EventType::kOutageEnd, 0});
  self->pes_[p]->end_outage();
}

void Machine::build_watchdog_diagnosis(bool quiescent) {
  std::string& d = watchdog_diagnosis_;
  char buf[192];
  if (quiescent) {
    std::snprintf(buf, sizeof buf,
                  "watchdog: machine quiesced at cycle %llu with threads "
                  "still suspended — nothing left to run\n",
                  static_cast<unsigned long long>(sim_.now()));
  } else {
    std::snprintf(buf, sizeof buf,
                  "watchdog: no forward progress since cycle %llu "
                  "(window %llu cycles), stopped at cycle %llu\n",
                  static_cast<unsigned long long>(sim_.last_progress()),
                  static_cast<unsigned long long>(config_.watchdog_cycles),
                  static_cast<unsigned long long>(sim_.now()));
  }
  d += buf;
  // Every unit appends what it is waiting on: the PEs their live-thread /
  // outstanding-request blocks, the fault domain its loss ledger.
  for (const Component* c : components_.items()) c->describe_stall(d, quiescent);
}

void Machine::delivery_thunk(void* ctx, const net::Packet& packet) {
  // Checked runs only (see the delivery table in the constructor):
  // unchecked runs route from the fabric straight into Emcy::accept,
  // which notes watchdog progress itself.
  auto* self = static_cast<Machine*>(ctx);
  EMX_DCHECK(packet.dst < self->pes_.size(), "packet to unknown PE");
  self->checker_->on_deliver(packet.dst, packet);
  self->pes_[packet.dst]->accept(packet);
}

void Machine::mem_probe_thunk(void* ctx, LocalAddr addr, std::uint32_t words) {
  const auto* probe = static_cast<const MemProbe*>(ctx);
  probe->checker->on_raw_write(probe->pe, addr, words);
}

void Machine::late_schedule_thunk(void* ctx, Cycle target, Cycle now) {
  static_cast<analysis::CheckContext*>(ctx)->on_late_schedule(target, now);
}

MachineReport Machine::report() const {
  EMX_CHECK(ran_, "report() before run()");
  MachineReport r;
  // total_cycles first: the PEs compute their idle time against it in
  // the contribute pass below.
  r.total_cycles = end_cycle_;
  r.clock_hz = config_.clock_hz;
  r.network = network_->stats();
  r.events_processed = sim_.events_processed();
  r.procs.reserve(pes_.size());
  // One registry walk replaces the old hand-rolled per-unit blocks: each
  // PE appends its ProcReport (registration order == PE order), the
  // fault domain fills the ledger half of FaultReport, the checker its
  // findings.
  for (const Component* c : components_.items()) c->contribute(r);
  // The per-PE channel activity sums are typed (ChannelStats), so the
  // aggregation stays here rather than behind the Component interface.
  for (const auto& channel : channels_) {
    const auto& cs = channel->stats();
    r.fault.reads_tracked += cs.reads_tracked;
    r.fault.msgs_tracked += cs.msgs_tracked;
    r.fault.timeouts += cs.timeouts;
    r.fault.retries += cs.retries;
    r.fault.msg_retransmits += cs.msg_retransmits;
    r.fault.acks_sent += cs.acks_sent;
    r.fault.dup_replies_suppressed += cs.dup_replies_suppressed;
    r.fault.dup_msgs_suppressed += cs.dup_msgs_suppressed;
    r.fault.dup_acks_ignored += cs.dup_acks_ignored;
    r.fault.reads_recovered += cs.reads_recovered;
    r.fault.msgs_recovered += cs.msgs_recovered;
    r.fault.fence_holds += cs.fence_holds;
    r.fault.worst_recovery_cycles =
        std::max(r.fault.worst_recovery_cycles, cs.worst_recovery_cycles);
    r.fault.peak_outstanding =
        std::max(r.fault.peak_outstanding, cs.peak_outstanding);
  }
  r.watchdog_fired = watchdog_fired_;
  r.watchdog_diagnosis = watchdog_diagnosis_;
  return r;
}

}  // namespace emx
