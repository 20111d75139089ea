// Ablation: fault recovery cost vs. thread count — drop rate x threads.
//
// The reliability protocol turns a lost split-phase read into extra
// latency (timeout + retransmit round-trip). Latency is exactly what
// fine-grain multithreading exists to hide (paper §1): with enough
// threads per PE the EXU keeps running other work while a damaged read
// recovers, so the slowdown from a lossy fabric should shrink as h
// grows. This bench sweeps drop rate x threads on sorting and reports
// the slowdown over the fault-free run at the same h, plus the recovery
// traffic that produced it.
#include <cstdio>

#include "bench_util.hpp"
#include "common/cli.hpp"
#include "common/table.hpp"
#include "core/experiment.hpp"

using namespace emx;
using namespace emx::bench;

namespace {

/// The one table knob this bench takes: the fault plan's RNG seed.
bool is_fault_seed(const snapshot::Knob& k) {
  snapshot::RunManifest m;
  return k.field(m) == snapshot::Knob::Field(&m.config.fault.seed);
}

}  // namespace

int main(int argc, char** argv) {
  CliFlags flags;
  flags.define("procs", "16", "processor count")
      .define("size-per-proc", "512", "elements per processor")
      .define("threads", "1,2,4,8", "thread counts to sweep")
      .define("drop-rates", "0,2,5,10", "drop rates to sweep, permille")
      .define("timeout", std::to_string(fault::FaultConfig{}.timeout_cycles),
              "read retransmit timeout, cycles")
      .define("csv", "false", "emit CSV");
  snapshot::define_flags(flags, snapshot::RunManifest{}, is_fault_seed);
  flags.parse(argc, argv);

  const auto procs = static_cast<std::uint32_t>(flags.integer("procs"));
  const std::uint64_t n =
      procs * static_cast<std::uint64_t>(flags.integer("size-per-proc"));

  std::printf("Ablation: packet-drop recovery vs multithreading depth\n");
  std::printf("P=%u n=%s timeout=%lld\n", procs, size_label(n).c_str(),
              static_cast<long long>(flags.integer("timeout")));

  MachineConfig base = knob_machine(flags, is_fault_seed);
  base.proc_count = procs;
  base.fault.timeout_cycles = static_cast<Cycle>(flags.integer("timeout"));

  for (auto rate_pm : flags.int_list("drop-rates")) {
    MachineConfig cfg = base;
    cfg.fault.drop_rate = static_cast<double>(rate_pm) / 1000.0;
    // Recovery traffic split by packet class: reads ride the timeout +
    // retransmit path ("rd-retx"), while writes/invokes add ACK packets
    // and their own retransmits ("msg-retx", "acks").
    Table table({"threads", "cycles", "fault-free", "slowdown", "dropped",
                 "rd-retx", "msg-retx", "acks", "dups-culled",
                 "worst recovery"});
    for (auto h64 : flags.int_list("threads")) {
      const auto h = static_cast<std::uint32_t>(h64);
      const MachineReport clean = run_sort(base, n, h);
      const MachineReport faulted = run_sort(cfg, n, h);
      const double slowdown = static_cast<double>(faulted.total_cycles) /
                              static_cast<double>(clean.total_cycles);
      const auto& f = faulted.fault;
      table.add_row(
          {std::to_string(h), Table::cell(faulted.total_cycles),
           Table::cell(clean.total_cycles), Table::cell(slowdown),
           Table::cell(f.injected[static_cast<std::size_t>(
               fault::FaultKind::kDrop)]),
           Table::cell(f.retries), Table::cell(f.msg_retransmits),
           Table::cell(f.acks_sent),
           Table::cell(f.dup_replies_suppressed + f.dup_msgs_suppressed +
                       f.dup_acks_ignored),
           Table::cell(f.worst_recovery_cycles)});
    }
    char title[64];
    std::snprintf(title, sizeof title, "sorting, drop rate %.1f%%",
                  static_cast<double>(rate_pm) / 10.0);
    print_panel(title, table, flags.boolean("csv"));
  }
  return 0;
}
