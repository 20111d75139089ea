// Event tracing: optional, zero-cost when disabled. Used to reproduce the
// paper's Figure 4 / Figure 5 execution timelines and by tests that assert
// on event ordering.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/component.hpp"
#include "common/types.hpp"
#include "common/serializer.hpp"

namespace emx::trace {

enum class EventType : std::uint8_t {
  kThreadInvoke,   ///< a thread begins execution (MU invocation)
  kThreadEnd,      ///< a thread ran to completion
  kReadIssue,      ///< split-phase remote read request sent
  kReadReturn,     ///< read reply dispatched; thread resumes
  kWriteIssue,     ///< remote write packet sent
  kSpawnIssue,     ///< thread invocation packet sent
  kSuspendRead,    ///< thread suspended on an outstanding read
  kSuspendGate,    ///< thread suspended on the ordered-merge gate
  kSuspendBarrier, ///< thread suspended at the iteration barrier
  kSuspendYield,   ///< explicit thread switch (requeued behind the FIFO)
  kGateWake,       ///< gate predecessor woke this thread
  kBarrierPoll,    ///< barrier flag re-check (iteration-sync switch)
  kBarrierPass,    ///< thread passed the iteration barrier
  kComputeBegin,   ///< start of a charged computation span
  kComputeEnd,
  kFaultInject,    ///< the fault plan perturbed a packet (info: kind|seq<<8)
  kReadTimeout,    ///< an outstanding request's retransmit timer fired
  kReadRetry,      ///< the saved read request was retransmitted
  kMsgRetransmit,  ///< a write/invoke was retransmitted (info: req_seq)
  kAckSend,        ///< receiver NIC acknowledged a message (info: req_seq)
  kOutageBegin,    ///< PE entered fail-stop outage (info: end cycle)
  kOutageEnd,      ///< PE resumed from outage
};

const char* to_string(EventType type);

struct TraceEvent {
  Cycle cycle = 0;
  ProcId proc = 0;
  ThreadId thread = kInvalidThread;
  EventType type = EventType::kThreadInvoke;
  std::uint64_t info = 0;  ///< type-specific payload (address, cycles, peer)
};

/// Receives every trace event from the engines; implementations must be
/// cheap — they run inside the simulation loop.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void on_event(const TraceEvent& event) = 0;
};

/// Records everything into a vector (tests, Gantt rendering).
class VectorTraceSink final : public TraceSink {
 public:
  void on_event(const TraceEvent& event) override { events_.push_back(event); }
  const std::vector<TraceEvent>& events() const { return events_; }
  void clear() { events_.clear(); }

  /// Events of one type, in time order (the vector is already time-sorted
  /// because the simulator emits monotonically).
  std::vector<TraceEvent> filtered(EventType type) const;
  std::vector<TraceEvent> for_proc(ProcId proc) const;

 private:
  std::vector<TraceEvent> events_;
};

/// Folds every event into a running CRC (optionally forwarding to another
/// sink). The snapshot subsystem uses it to pin the *entire* trace stream
/// in a few bytes: two runs are trace-identical iff (count, crc) match.
/// The "trace" component (when installed as the machine's sink): its
/// snapshot section pins the digest of every event emitted so far, so a
/// resumed run must re-emit the identical trace prefix.
///
/// Each event is encoded as a 25-byte little-endian record (cycle, proc,
/// thread, type, info) into a ~4 KiB block, and the block is CRC'd when
/// it fills: CRC-32 chains over concatenation, so the digest equals one
/// CRC per record while the kernel sees long inputs. crc() and save()
/// hash the partial block first, so every read sees every event.
class DigestSink final : public TraceSink, public Component {
 public:
  static constexpr std::size_t kRecordBytes = 25;
  /// 164 records: 4100 bytes, whose quarter lanes are 1024 bytes.
  static constexpr std::size_t kBlockBytes = 164 * kRecordBytes;

  explicit DigestSink(TraceSink* next = nullptr) : next_(next) {}

  void on_event(const TraceEvent& event) override {
    std::uint8_t* r = block_ + fill_;
    put_le(r, event.cycle, 8);
    put_le(r + 8, event.proc, 4);
    put_le(r + 12, event.thread, 4);
    r[16] = static_cast<std::uint8_t>(event.type);
    put_le(r + 17, event.info, 8);
    fill_ += kRecordBytes;
    if (fill_ == kBlockBytes) flush();
    ++count_;
    if (next_ != nullptr) next_->on_event(event);
  }

  std::uint64_t count() const { return count_; }
  std::uint32_t crc() const {
    flush();
    return crc_;
  }

  void save(snapshot::Serializer& s) const {
    s.u64(count_);
    s.u32(crc());
  }

  // --- Component ---
  const char* component_name() const override { return "trace"; }
  void save_state(ser::Serializer& s) const override { save(s); }

 private:
  static void put_le(std::uint8_t* out, std::uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i) out[i] = static_cast<std::uint8_t>(v >> (8 * i));
  }

  /// Hashes the buffered records into crc_; the digest is unchanged by
  /// when this runs, so const readers may call it.
  void flush() const {
    crc_ = snapshot::crc32(block_, fill_, crc_);
    fill_ = 0;
  }

  TraceSink* next_;
  std::uint64_t count_ = 0;
  mutable std::uint32_t crc_ = 0;
  mutable std::size_t fill_ = 0;
  mutable std::uint8_t block_[kBlockBytes] = {};
};

}  // namespace emx::trace
