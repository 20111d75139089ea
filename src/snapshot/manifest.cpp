#include "snapshot/manifest.hpp"

#include <string>

#include "common/json.hpp"
#include "snapshot/knobs.hpp"

namespace emx::snapshot {

void RunManifest::save(Serializer& s) const {
  s.str(app);
  s.u64(size_per_proc);
  s.u32(threads);
  s.u32(iterations);
  s.u64(seed);
  s.boolean(block_reads);
  s.boolean(local_phase);

  s.u32(config.proc_count);
  s.u64(config.memory_words);
  s.u8(static_cast<std::uint8_t>(config.network));
  s.u8(static_cast<std::uint8_t>(config.read_service));
  s.u8(static_cast<std::uint8_t>(config.barrier));
  s.u64(config.ibu_fifo_depth);
  s.u64(config.obu_fifo_depth);
  s.f64(config.clock_hz);
  s.u64(config.packet_gen_cycles);
  s.u64(config.local_mem_cycles);
  s.u64(config.obu_cycles);
  s.u64(config.switch_save_cycles);
  s.u64(config.mu_dispatch_cycles);
  s.u64(config.match_store_cycles);
  s.u64(config.dma_service_cycles);
  s.u64(config.dma_interval_cycles);
  s.u64(config.dma_block_word_cycles);
  s.u64(config.exu_read_service_cycles);
  s.u64(config.self_loop_cycles);
  s.u64(config.port_interval_cycles);
  s.u64(config.barrier_poll_interval);
  s.u64(config.barrier_check_cycles);
  s.boolean(config.priority_replies);

  const auto& f = config.fault;
  s.u64(f.seed);
  s.f64(f.drop_rate);
  s.f64(f.duplicate_rate);
  s.f64(f.corrupt_rate);
  s.u64(f.jitter_max_cycles);
  s.u32(static_cast<std::uint32_t>(f.stalls.size()));
  for (const auto& w : f.stalls) {
    s.u32(w.src);
    s.u32(w.dst);
    s.u64(w.begin);
    s.u64(w.end);
  }
  s.u32(static_cast<std::uint32_t>(f.scheduled.size()));
  for (const auto& sch : f.scheduled) {
    s.u64(sch.nth);
    s.u8(static_cast<std::uint8_t>(sch.kind));
    s.boolean(sch.filtered);
    s.u8(static_cast<std::uint8_t>(sch.only));
  }
  s.u32(static_cast<std::uint32_t>(f.outages.size()));
  for (const auto& w : f.outages) {
    s.u32(w.pe);
    s.u64(w.begin);
    s.u64(w.end);
  }
  s.boolean(f.reliability);
  s.u64(f.timeout_cycles);
  s.u32(f.backoff_mult);
  s.u32(f.max_retries);

  s.boolean(config.check.memcheck);
  s.boolean(config.check.race);
  s.boolean(config.check.deadlock);
  s.boolean(config.check.lint);

  s.u64(config.max_events);
  s.u64(config.watchdog_cycles);
}

bool RunManifest::load(Deserializer& d) {
  app = d.str();
  size_per_proc = d.u64();
  threads = d.u32();
  iterations = d.u32();
  seed = d.u64();
  block_reads = d.boolean();
  local_phase = d.boolean();

  config.proc_count = d.u32();
  config.memory_words = d.u64();
  config.network = static_cast<NetworkModel>(d.u8());
  config.read_service = static_cast<ReadServiceMode>(d.u8());
  config.barrier = static_cast<BarrierTopology>(d.u8());
  config.ibu_fifo_depth = d.u64();
  config.obu_fifo_depth = d.u64();
  config.clock_hz = d.f64();
  config.packet_gen_cycles = d.u64();
  config.local_mem_cycles = d.u64();
  config.obu_cycles = d.u64();
  config.switch_save_cycles = d.u64();
  config.mu_dispatch_cycles = d.u64();
  config.match_store_cycles = d.u64();
  config.dma_service_cycles = d.u64();
  config.dma_interval_cycles = d.u64();
  config.dma_block_word_cycles = d.u64();
  config.exu_read_service_cycles = d.u64();
  config.self_loop_cycles = d.u64();
  config.port_interval_cycles = d.u64();
  config.barrier_poll_interval = d.u64();
  config.barrier_check_cycles = d.u64();
  config.priority_replies = d.boolean();

  auto& f = config.fault;
  f.seed = d.u64();
  f.drop_rate = d.f64();
  f.duplicate_rate = d.f64();
  f.corrupt_rate = d.f64();
  f.jitter_max_cycles = d.u64();
  // A corrupt count must not balloon allocation: each entry has a known
  // wire size, so counts are capped by the remaining payload.
  std::uint32_t n = d.u32();
  if (n > d.remaining() / 24) return false;
  f.stalls.clear();
  for (std::uint32_t i = 0; i < n; ++i) {
    fault::StallWindow w;
    w.src = d.u32();
    w.dst = d.u32();
    w.begin = d.u64();
    w.end = d.u64();
    f.stalls.push_back(w);
  }
  n = d.u32();
  if (n > d.remaining() / 11) return false;
  f.scheduled.clear();
  for (std::uint32_t i = 0; i < n; ++i) {
    fault::ScheduledFault sch;
    sch.nth = d.u64();
    sch.kind = static_cast<fault::FaultKind>(d.u8());
    sch.filtered = d.boolean();
    sch.only = static_cast<net::PacketKind>(d.u8());
    f.scheduled.push_back(sch);
  }
  n = d.u32();
  if (n > d.remaining() / 20) return false;
  f.outages.clear();
  for (std::uint32_t i = 0; i < n; ++i) {
    fault::OutageWindow w;
    w.pe = d.u32();
    w.begin = d.u64();
    w.end = d.u64();
    f.outages.push_back(w);
  }
  f.reliability = d.boolean();
  f.timeout_cycles = d.u64();
  f.backoff_mult = d.u32();
  f.max_retries = d.u32();

  config.check.memcheck = d.boolean();
  config.check.race = d.boolean();
  config.check.deadlock = d.boolean();
  config.check.lint = d.boolean();

  config.max_events = d.u64();
  config.watchdog_cycles = d.u64();
  return d.ok();
}

std::string RunManifest::diff(const RunManifest& other) const {
  std::string out;
  const auto field = [&out](const std::string& name, const std::string& a,
                            const std::string& b) {
    if (a != b) out += "  " + name + ": " + a + " vs " + b + "\n";
  };
  const auto u64_field = [&field](const std::string& name, std::uint64_t a,
                                  std::uint64_t b) {
    field(name, std::to_string(a), std::to_string(b));
  };

  for (const Knob& k : knobs()) field(k.name, k.text(*this), k.text(other));

  u64_field("memory-words", config.memory_words, other.config.memory_words);
  u64_field("ibu-fifo-depth", config.ibu_fifo_depth, other.config.ibu_fifo_depth);
  u64_field("obu-fifo-depth", config.obu_fifo_depth, other.config.obu_fifo_depth);
  field("clock-hz", json::Value::real(config.clock_hz).dump(),
        json::Value::real(other.config.clock_hz).dump());
  u64_field("packet-gen", config.packet_gen_cycles, other.config.packet_gen_cycles);
  u64_field("local-mem", config.local_mem_cycles, other.config.local_mem_cycles);
  u64_field("obu", config.obu_cycles, other.config.obu_cycles);
  u64_field("mu-dispatch", config.mu_dispatch_cycles,
            other.config.mu_dispatch_cycles);
  u64_field("match-store", config.match_store_cycles,
            other.config.match_store_cycles);
  u64_field("dma-block-word", config.dma_block_word_cycles,
            other.config.dma_block_word_cycles);
  u64_field("exu-read-service", config.exu_read_service_cycles,
            other.config.exu_read_service_cycles);
  u64_field("self-loop", config.self_loop_cycles, other.config.self_loop_cycles);
  u64_field("port-interval", config.port_interval_cycles,
            other.config.port_interval_cycles);
  u64_field("barrier-check", config.barrier_check_cycles,
            other.config.barrier_check_cycles);

  // The fault plan's window lists: their lengths, then each entry.
  const auto entries = [&](const std::string& name, const auto& a,
                           const auto& b) {
    u64_field(name + "-count", a.size(), b.size());
    for (std::size_t i = 0; a.size() == b.size() && i < a.size(); ++i)
      if (!(a[i] == b[i]))
        out += "  " + name + "[" + std::to_string(i) + "]: entries differ\n";
  };
  entries("fault-stall", config.fault.stalls, other.config.fault.stalls);
  entries("fault-scheduled", config.fault.scheduled,
          other.config.fault.scheduled);
  entries(kFaultOutageFlag, config.fault.outages, other.config.fault.outages);
  u64_field("fault-backoff-mult", config.fault.backoff_mult,
            other.config.fault.backoff_mult);
  u64_field("max-events", config.max_events, other.config.max_events);
  return out;
}

}  // namespace emx::snapshot
