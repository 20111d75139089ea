#include "core/config.hpp"

#include <cstdio>

#include "common/assert.hpp"

namespace emx {

std::string MachineConfig::problem() const {
  if (proc_count < 1) return "procs must be >= 1 (at least one processor)";
  if (network == NetworkModel::kDetailed && !is_power_of_two(proc_count))
    return "network=detailed (the Omega network) needs a power-of-two "
           "procs, not " + std::to_string(proc_count);
  if (memory_words < 1024) return "per-PE memory unrealistically small";
  if (!(clock_hz > 0)) return "clock must be positive";
  if (ibu_fifo_depth == 0 || obu_fifo_depth == 0)
    return "FIFO depth must be positive";
  if (packet_gen_cycles < 1) return "packet generation takes at least a cycle";
  if (barrier_poll_interval < 1) return "poll-interval must be >= 1 cycle";
  for (const auto& w : fault.outages)
    if (w.pe >= proc_count)
      return "fault-outage names pe " + std::to_string(w.pe) +
             " but the machine has " + std::to_string(proc_count) + " PEs";
  return fault.problem();
}

void MachineConfig::validate() const {
  const std::string why = problem();
  EMX_CHECK(why.empty(), why);
}

MachineConfig MachineConfig::paper_machine(std::uint32_t procs) {
  MachineConfig cfg;
  cfg.proc_count = procs;
  cfg.network = NetworkModel::kDetailed;
  cfg.validate();
  return cfg;
}

MachineConfig MachineConfig::emx_prototype() {
  MachineConfig cfg;
  cfg.proc_count = 80;
  cfg.network = NetworkModel::kFast;
  cfg.validate();
  return cfg;
}

std::string MachineConfig::summary() const {
  char buf[512];
  std::snprintf(
      buf, sizeof buf,
      "EM-X machine: P=%u, %.0f MHz, mem=%zu words/PE, net=%s, "
      "read-service=%s, switch=%llu+%llu cycles, dma=%llu cycles",
      proc_count, clock_hz / 1e6, memory_words,
      network == NetworkModel::kDetailed ? "omega-detailed" : "omega-fast",
      read_service == ReadServiceMode::kBypassDma ? "bypass-dma" : "exu-thread(EM-4)",
      static_cast<unsigned long long>(switch_save_cycles),
      static_cast<unsigned long long>(mu_dispatch_cycles),
      static_cast<unsigned long long>(dma_service_cycles));
  std::string out = buf;
  if (fault.enabled()) {
    char fb[256];
    std::snprintf(fb, sizeof fb,
                  ", faults(seed=%llu drop=%g dup=%g corrupt=%g jitter<=%llu "
                  "timeout=%llu)",
                  static_cast<unsigned long long>(fault.seed), fault.drop_rate,
                  fault.duplicate_rate, fault.corrupt_rate,
                  static_cast<unsigned long long>(fault.jitter_max_cycles),
                  static_cast<unsigned long long>(fault.timeout_cycles));
    out += fb;
    if (!fault.outages.empty()) {
      char ob[64];
      std::snprintf(ob, sizeof ob, ", outages=%zu", fault.outages.size());
      out += ob;
    }
    if (!fault.reliability) out += ", reliability=OFF";
  }
  if (watchdog_cycles != 0) {
    char wb[64];
    std::snprintf(wb, sizeof wb, ", watchdog=%llu",
                  static_cast<unsigned long long>(watchdog_cycles));
    out += wb;
  }
  return out;
}

}  // namespace emx
