#include "fault/fault_plan.hpp"

#include <cstdio>

#include "common/assert.hpp"

namespace emx::fault {

const char* to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kDrop:
      return "DROP";
    case FaultKind::kDuplicate:
      return "DUPLICATE";
    case FaultKind::kCorrupt:
      return "CORRUPT";
    case FaultKind::kDelay:
      return "DELAY";
    case FaultKind::kStall:
      return "STALL";
    case FaultKind::kPeOutage:
      return "PE_OUTAGE";
  }
  return "?";
}

std::string FaultConfig::problem() const {
  char buf[96];
  const auto bad_rate = [&buf](const char* fmt, double rate) {
    if (rate >= 0.0 && rate <= 1.0) return false;
    std::snprintf(buf, sizeof buf, fmt, rate);
    return true;
  };
  if (bad_rate("fault-drop-rate=%g is out of [0,1]", drop_rate) ||
      bad_rate("fault-dup-rate=%g is out of [0,1]", duplicate_rate) ||
      bad_rate("fault-corrupt-rate=%g is out of [0,1]", corrupt_rate))
    return buf;
  if (drop_rate + duplicate_rate + corrupt_rate > 1.0) {
    std::snprintf(buf, sizeof buf,
                  "fault rates sum to %g; drop+dup+corrupt must not exceed 1",
                  drop_rate + duplicate_rate + corrupt_rate);
    return buf;
  }
  if (timeout_cycles < 1) return "fault-timeout must be >= 1 cycle";
  if (backoff_mult < 1) return "backoff multiplier must be at least 1";
  if (max_retries < 1) return "fault-max-retries must be >= 1 retransmit";
  for (const auto& w : stalls)
    if (w.end < w.begin) return "stall window ends before it begins";
  for (const auto& s : scheduled) {
    if (s.nth < 1) return "scheduled faults count packets from 1";
    if (s.filtered && s.only == net::PacketKind::kLocalWake)
      return "local wakes never enter the fabric; cannot schedule faults "
             "on them";
  }
  for (const auto& w : outages)
    if (w.end <= w.begin) return "outage window must span at least one cycle";
  return "";
}

void FaultConfig::validate() const {
  const std::string why = problem();
  EMX_CHECK(why.empty(), why);
}

std::uint32_t packet_checksum(const net::Packet& packet) {
  // Fletcher-style fold over everything a real link CRC would cover; the
  // checksum field itself is excluded so stamping is idempotent.
  std::uint64_t h = 0x9E3779B97F4A7C15ull;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
  };
  mix(packet.addr);
  mix(packet.data);
  mix((static_cast<std::uint64_t>(packet.src) << 32) | packet.dst);
  mix((static_cast<std::uint64_t>(static_cast<std::uint8_t>(packet.kind)) << 8) |
      static_cast<std::uint8_t>(packet.priority));
  mix((static_cast<std::uint64_t>(packet.cont_thread) << 32) | packet.cont_tag);
  mix((static_cast<std::uint64_t>(packet.cont_slot) << 32) | packet.block_len);
  mix(packet.req_seq);
  mix(packet.chan_seq);
  auto folded = static_cast<std::uint32_t>(h ^ (h >> 32));
  return folded == 0 ? 1u : folded;
}

FaultPlan::FaultPlan(const FaultConfig& config)
    : config_(config), rng_(config.seed) {
  config_.validate();
}

FaultDecision FaultPlan::decide(const net::Packet& packet, Cycle now) {
  FaultDecision d;

  // Stall windows hold any packet entering a downed link.
  for (const auto& w : config_.stalls) {
    const bool src_hit = w.src == kAnyProc || w.src == packet.src;
    const bool dst_hit = w.dst == kAnyProc || w.dst == packet.dst;
    if (src_hit && dst_hit && now >= w.begin && now < w.end)
      d.stall_until = std::max(d.stall_until, w.end);
  }

  if (is_tracked_kind(packet.kind)) {
    ++tracked_seen_;
    ++kind_seen_[static_cast<std::uint8_t>(packet.kind)];
    // Exact scheduled faults take precedence over the probability roll
    // (the roll is still consumed, keeping the stream aligned whether or
    // not a schedule entry matched). Filtered entries count only packets
    // of their own kind.
    bool scheduled_hit = false;
    for (const auto& s : config_.scheduled) {
      if (s.filtered) {
        if (s.only != packet.kind ||
            s.nth != kind_seen_[static_cast<std::uint8_t>(packet.kind)])
          continue;
      } else if (s.nth != tracked_seen_) {
        continue;
      }
      scheduled_hit = true;
      switch (s.kind) {
        case FaultKind::kDrop:
          d.drop = true;
          break;
        case FaultKind::kDuplicate:
          d.duplicate = true;
          break;
        case FaultKind::kCorrupt:
          d.corrupt = true;
          break;
        case FaultKind::kDelay:
        case FaultKind::kStall:
          d.stall_until = std::max(d.stall_until, now + config_.timeout_cycles / 2);
          break;
        case FaultKind::kPeOutage:
          // Outages are window-scheduled (FaultConfig::outages), not
          // per-packet; a schedule entry naming one is a no-op here.
          break;
      }
    }
    const double roll = rng_.next_double();
    if (!scheduled_hit) {
      if (roll < config_.drop_rate) {
        d.drop = true;
      } else if (roll < config_.drop_rate + config_.duplicate_rate) {
        d.duplicate = true;
      } else if (roll <
                 config_.drop_rate + config_.duplicate_rate + config_.corrupt_rate) {
        d.corrupt = true;
      }
    }
    if (d.corrupt) d.corrupt_bit = static_cast<std::uint32_t>(rng_.bounded(32));
  }

  if (config_.jitter_max_cycles > 0 && !d.drop)
    d.jitter = rng_.bounded(config_.jitter_max_cycles + 1);

  return d;
}

}  // namespace emx::fault
