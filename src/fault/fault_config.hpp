// Configuration of the deterministic fault-injection subsystem.
//
// The EM-X paper assumes a perfect fabric: every 2-word packet arrives
// intact, exactly once. FaultConfig describes a controlled departure from
// that assumption — a seeded plan of packet drops, duplications, payload
// corruptions, per-link stall windows and bounded latency jitter, applied
// at the Network boundary by fault::FaultyNetwork — plus the knobs of the
// reliability protocol (fault::RetryAgent) that recovers from them.
//
// Determinism contract: the same FaultConfig (seed included) on the same
// machine configuration and workload produces a byte-identical run.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "network/packet.hpp"

namespace emx::fault {

/// Wildcard endpoint for stall windows ("any source"/"any destination").
inline constexpr ProcId kAnyProc = 0xFFFFFFFFu;

/// What the plan does to one packet. Also the trace payload of
/// trace::EventType::kFaultInject and the FaultReport breakdown key.
enum class FaultKind : std::uint8_t {
  kDrop = 0,       ///< packet vanishes in the fabric
  kDuplicate = 1,  ///< packet is delivered twice
  kCorrupt = 2,    ///< payload bit flipped; checksum catches it at ejection
  kDelay = 3,      ///< bounded extra latency (jitter), FIFO per link
  kStall = 4,      ///< link unavailable for a cycle window
  kPeOutage = 5,   ///< transient fail-stop: a PE's NIC is dead for a window
};
inline constexpr std::size_t kFaultKindCount = 6;

const char* to_string(FaultKind kind);

/// A link outage: packets injected on (src, dst) during [begin, end) are
/// held and enter the fabric at `end` (in injection order). kAnyProc
/// matches every endpoint.
struct StallWindow {
  ProcId src = kAnyProc;
  ProcId dst = kAnyProc;
  Cycle begin = 0;
  Cycle end = 0;
  bool operator==(const StallWindow&) const = default;
};

/// A scheduled (exact, probability-free) fault: hit the nth eligible
/// fabric packet, counting from 1 in injection order. Used by tests and
/// targeted experiments where a rate would be a blunt instrument. When
/// `filtered` is set, only packets of kind `only` are counted — e.g.
/// "drop the first barrier-join invoke" is {1, kDrop, true, kInvoke}.
struct ScheduledFault {
  std::uint64_t nth = 0;
  FaultKind kind = FaultKind::kDrop;
  bool filtered = false;
  net::PacketKind only = net::PacketKind::kRemoteReadReq;
  bool operator==(const ScheduledFault&) const = default;
};

/// A transient fail-stop outage: processor `pe`'s NIC is dead during
/// [begin, end) — nothing is injected or ejected, fabric packets queued
/// in its IBU are flushed and new thread dispatches freeze. At `end` the
/// PE resumes from its memory state; peers' retransmits (and its own)
/// repair the lost in-flight traffic.
struct OutageWindow {
  ProcId pe = 0;
  Cycle begin = 0;
  Cycle end = 0;
  bool operator==(const OutageWindow&) const = default;
};

struct FaultConfig {
  // --- fault plan (what the fabric does wrong) ---
  std::uint64_t seed = 0xFAB17u;  ///< drives every probabilistic decision
  double drop_rate = 0.0;         ///< P(drop) per eligible packet
  double duplicate_rate = 0.0;    ///< P(duplicate) per eligible packet
  double corrupt_rate = 0.0;      ///< P(payload corruption) per eligible packet
  /// Extra latency jitter: each fabric packet independently gains a
  /// uniform 0..jitter_max_cycles delay (0 disables). Per-(src,dst) FIFO
  /// order is preserved so the non-overtaking rule still holds.
  Cycle jitter_max_cycles = 0;
  std::vector<StallWindow> stalls;
  std::vector<ScheduledFault> scheduled;
  std::vector<OutageWindow> outages;

  // --- reliability protocol (how the runtime recovers) ---
  /// Arms the end-to-end ReliableChannel on every PE: sequence numbers +
  /// retransmit timers on reads, and seq/ack/dedup on side-effecting
  /// messages (writes, invokes, barrier joins). Turning this off while a
  /// lossy plan is armed deliberately produces an unrecoverable machine —
  /// the progress watchdog's test bed.
  bool reliability = true;
  /// Cycles a split-phase read waits for its reply before retransmitting.
  /// Must comfortably exceed the loaded round-trip; spurious timeouts are
  /// safe (duplicate replies are suppressed) but waste fabric bandwidth.
  Cycle timeout_cycles = 4096;
  /// Timeout multiplier per successive retransmit of one request.
  std::uint32_t backoff_mult = 2;
  /// Retransmits allowed per request before the machine panics (a fault
  /// the protocol cannot recover from is a modelling bug, not bad luck).
  std::uint32_t max_retries = 10;

  /// The subsystem is armed only when the plan can actually do something;
  /// otherwise the machine runs the seed-identical fault-free hot path
  /// (no decorator, no sequence numbers, no timers).
  bool enabled() const {
    return drop_rate > 0.0 || duplicate_rate > 0.0 || corrupt_rate > 0.0 ||
           jitter_max_cycles > 0 || !stalls.empty() || !scheduled.empty() ||
           !outages.empty();
  }

  /// "" when the plan is usable; otherwise the first out-of-range rate
  /// or degenerate protocol knob, named as its emx_run flag.
  std::string problem() const;
  /// Panics with problem() when it is not "".
  void validate() const;
};

}  // namespace emx::fault
