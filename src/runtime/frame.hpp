// Activation frames / thread records.
//
// Invoking a function allocates an operand segment as an activation frame
// (paper §2.3); frames form a tree, not a stack. The simulator's
// ThreadRecord is that frame: it owns the coroutine handle (the thread's
// code + saved registers) plus the split-phase continuation slots. A
// FramePool recycles records with stable addresses (deque-backed).
#pragma once

#include <cstdint>
#include <deque>
#include <string>

#include "common/types.hpp"
#include "runtime/task.hpp"
#include "common/serializer.hpp"

namespace emx::rt {

enum class ThreadState : std::uint8_t {
  kFree,             ///< record not allocated
  kRunning,          ///< currently on the EXU (or mid-dispatch)
  kSuspendedRead,    ///< waiting for a remote read reply
  kSuspendedGate,    ///< waiting on an ordered-merge gate
  kSuspendedBarrier, ///< waiting at the iteration barrier
  kSuspendedYield,   ///< explicit thread switch; requeued behind the FIFO
};

const char* to_string(ThreadState state);

struct ThreadRecord {
  ThreadId id = kInvalidThread;
  ThreadId parent = kInvalidThread;  ///< frames form a tree (paper §2.3)
  ThreadState state = ThreadState::kFree;
  ThreadBody::Handle coro{};

  /// Split-phase read continuation: replies write their operand slot and
  /// the tag guards against stale packets. Paired reads (two-operand
  /// direct matching) resume only when both slots have arrived.
  Word reply_value = 0;   ///< operand slot 0
  Word reply_value2 = 0;  ///< operand slot 1 (paired reads)
  std::uint8_t replies_pending = 0;
  std::uint32_t pending_tag = 0;

  /// Free-list linkage when state == kFree.
  ThreadId next_free = kInvalidThread;
};

/// Per-PE pool of activation frames. The tree depth ("level of thread
/// activation and suspension") is limited only by memory, as on the EM-X.
class FramePool {
 public:
  FramePool() = default;
  /// Destroys the coroutine frame of every record still live: threads a
  /// run left suspended (deadlock, watchdog stop, early exit) own frames
  /// nothing else will reclaim.
  ~FramePool();
  FramePool(const FramePool&) = delete;
  FramePool& operator=(const FramePool&) = delete;

  ThreadRecord& alloc(ThreadId parent);
  void free(ThreadRecord& record);

  ThreadRecord& get(ThreadId id);
  const ThreadRecord& get(ThreadId id) const;

  std::uint64_t created() const { return created_; }
  std::uint64_t live() const { return live_; }
  std::uint64_t peak_live() const { return peak_live_; }

  /// Appends one line per live (non-free) record, in slot order
  /// (deterministic), for the watchdog's hang diagnosis.
  void append_live(std::string& out) const;

  /// Serializes pool counters plus every record's architectural state in
  /// slot order. The coroutine handle (the thread's code position and
  /// saved locals) is NOT serializable — that is the reason restore works
  /// by deterministic replay; everything around the handle is still
  /// pinned byte-for-byte here.
  void save(ser::Serializer& s) const {
    s.u64(created_);
    s.u64(live_);
    s.u64(peak_live_);
    s.u32(static_cast<std::uint32_t>(records_.size()));
    for (const ThreadRecord& r : records_) {
      s.u32(r.id);
      s.u32(r.parent);
      s.u8(static_cast<std::uint8_t>(r.state));
      s.u32(r.reply_value);
      s.u32(r.reply_value2);
      s.u8(r.replies_pending);
      s.u32(r.pending_tag);
      s.u32(r.next_free);
    }
  }

 private:
  std::deque<ThreadRecord> records_;  // stable addresses
  ThreadId free_head_ = kInvalidThread;
  std::uint64_t created_ = 0;
  std::uint64_t live_ = 0;
  std::uint64_t peak_live_ = 0;
};

}  // namespace emx::rt
