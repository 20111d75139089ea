// Deterministic discrete-event queue.
//
// Events are plain structs with a free-function handler (no std::function,
// no per-event allocation — Per.14/Per.16). Ties in time are broken by
// insertion sequence so simulation is bit-reproducible.
//
// Events may be cancelled after scheduling (used by the reliability
// protocol's retransmit timers): cancellation sets an O(1) tombstone bit
// addressed by event id; the dead record is discarded when the cursor
// reaches it *without* being dispatched and without advancing the
// simulation clock, so pending timers for already-completed requests
// never stretch the end-of-run time. A live-tombstone counter keeps the
// common case (nothing cancelled) free of per-pop bookkeeping.
//
// Storage is a timing wheel with a far-future overflow heap. Nearly every
// event in this machine is scheduled a handful of cycles out (OBU handoff
// 1, fabric transit ~4-10, DMA ~16), so the wheel — one FIFO bucket per
// cycle over a kWheelBuckets-cycle horizon — absorbs them with O(1) push
// and pop and no comparison sorting at all: within a cycle, append order
// IS seq order, because seq is monotonic in push time. Events beyond the
// horizon (watchdog windows, retransmit timeouts) go to a small 4-ary
// min-heap on (time, seq) and migrate into the wheel when the cursor's
// horizon reaches them, inserted by seq among any direct-pushed records
// for the same cycle. The pop sequence is therefore the exact (time, seq)
// total order a comparison heap would produce — bit-identical simulation,
// a fraction of the data movement.
#pragma once

#include <cstdint>
#include <vector>

#include "common/assert.hpp"
#include "common/serializer.hpp"
#include "common/types.hpp"

namespace emx::sim {

/// Event handler: receives the opaque context plus two payload words.
using EventFn = void (*)(void* ctx, std::uint64_t a, std::uint64_t b);

struct Event {
  Cycle time = 0;
  std::uint64_t seq = 0;  ///< insertion order; total order with time
  EventFn fn = nullptr;
  void* ctx = nullptr;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
};

/// Translates event handler/context pointers to stable ids for
/// serialization. Pointers differ across processes, so a snapshot stores
/// (fn_id, ctx_id) pairs; a table built the same way in the loading
/// process maps them back. Machine-level snapshots skip the table (ids
/// 0) because checkpoints restore by deterministic replay, not by
/// re-materializing events — the table exists so unit tests can prove
/// the queue itself round-trips exactly.
class EventFnTable {
 public:
  /// Registers a handler/context pair; returns its stable id (>= 1).
  /// Registering the same pair twice returns the same id.
  std::uint32_t register_fn(EventFn fn, void* ctx);

  /// Id for a pair, or 0 when unregistered.
  std::uint32_t id_of(EventFn fn, void* ctx) const;
  /// Pair for an id; id must be a value register_fn() returned.
  EventFn fn_of(std::uint32_t id) const;
  void* ctx_of(std::uint32_t id) const;
  std::size_t count() const { return entries_.size(); }

 private:
  struct Entry {
    EventFn fn = nullptr;
    void* ctx = nullptr;
  };
  std::vector<Entry> entries_;  // index + 1 == id
};

/// Priority queue on (time, seq): timing wheel + far-future 4-ary heap.
class EventQueue {
 public:
  EventQueue() : wheel_(kWheelBuckets) {}

  /// True when no *live* (non-cancelled) event remains.
  bool empty() const { return records_ == tomb_live_; }
  std::size_t size() const { return records_ - tomb_live_; }
  std::uint64_t total_pushed() const { return next_seq_; }

  /// Returns the event's id, usable with cancel().
  std::uint64_t push(Cycle time, EventFn fn, void* ctx, std::uint64_t a,
                     std::uint64_t b) {
    EMX_DCHECK(fn != nullptr, "event without handler");
    const std::uint64_t id = next_seq_++;
    // An empty queue lets the cursor jump straight to the new event's
    // cycle — the wheel never scans across a gap no event occupies.
    if (records_ == 0) cursor_ = time;
    insert(Event{time, id, fn, ctx, a, b});
    ++records_;
    return id;
  }

  /// Marks a scheduled-but-not-yet-fired event as dead: one bit set in a
  /// bitmap indexed by event id (memory cost: 1 bit per event ever
  /// pushed, reclaimed on clear()). The id must come from push() and the
  /// event must still be in the queue; cancelling twice is a no-op.
  void cancel(std::uint64_t id);

  /// Requires !empty(); skips over cancelled records. The cursor advance
  /// only discards records that could never be observed (consumed
  /// buckets, tombstones), so logical const-ness holds even though the
  /// storage mutates.
  const Event& top() const { return const_cast<EventQueue*>(this)->peek_live(); }

  Event pop() {
    Event& ev = peek_live();
    const Event out = ev;
    ++wheel_[out.time & (kWheelBuckets - 1)].head;
    --records_;
    --wheel_records_;
    return out;
  }

  void clear();

  /// Serializes the queue's *logical* state, canonically: the sequence
  /// counter, then every live record sorted by seq. Cancelled records are
  /// dead by definition and are not written, so the bytes are a pure
  /// function of logical state — independent of wheel position, bucket
  /// layout, and cancel/pop interleaving. With a table, each record
  /// carries its (fn, ctx) id so load() can re-materialize it; without
  /// one, fn ids are written as 0 and the payload still pins
  /// times/seqs/args — a strong digest for the restore-verify path,
  /// which never re-materializes events.
  void save(ser::Serializer& s, const EventFnTable* table) const;

  /// Restores a queue saved *with* a table. Returns false when the
  /// payload is malformed or references a handler the table lacks.
  bool load(ser::Deserializer& d, const EventFnTable& table);

 private:
  /// Wheel horizon in cycles; power of two (bucket = time & mask).
  static constexpr std::size_t kWheelBuckets = 1024;

  /// One wheel slot = all pending events for a single cycle, in seq
  /// order. head marks the consumed prefix; the vector is reset when the
  /// cursor moves past the cycle, so capacity is recycled lap over lap.
  struct Bucket {
    std::vector<Event> events;
    std::size_t head = 0;
  };

  static bool later(const Event& lhs, const Event& rhs) {
    if (lhs.time != rhs.time) return lhs.time > rhs.time;
    return lhs.seq > rhs.seq;
  }

  /// Routes a record to its wheel bucket or the far heap, lowering the
  /// cursor first if the record's cycle is below it. Caller maintains
  /// records_. Inline for the common case, an in-horizon record that
  /// sorts last in its bucket; insert_slow() handles the rest.
  void insert(const Event& ev) {
    if (ev.time >= cursor_ && ev.time < cursor_ + kWheelBuckets) {
      Bucket& b = wheel_[ev.time & (kWheelBuckets - 1)];
      if (b.events.empty() || b.events.back().seq < ev.seq) {
        b.events.push_back(ev);
        ++wheel_records_;
        return;
      }
    }
    insert_slow(ev);
  }
  void insert_slow(const Event& ev);
  /// Pulls the cursor back to `new_cursor` and re-homes every stored
  /// wheel record against the shifted window.
  void rehome(Cycle new_cursor);
  /// Moves far-heap records whose time entered the wheel horizon into
  /// their buckets (seq-sorted insert among direct-pushed records).
  void migrate_due();
  /// Advances the cursor (discarding tombstoned records) to the next
  /// live event and returns it. Requires !empty(). Inline when the
  /// cursor's bucket already holds it; advance() does the walking.
  Event& peek_live() {
    EMX_DCHECK(!empty(), "peek into empty event queue");
    Bucket& b = wheel_[cursor_ & (kWheelBuckets - 1)];
    if (b.head < b.events.size() &&
        (tomb_live_ == 0 || !tombstoned(b.events[b.head].seq)))
      return b.events[b.head];
    return advance();
  }
  Event& advance();

  void far_sift_up(std::size_t i);
  void far_sift_down(std::size_t i);
  Event far_pop_front();

  bool tombstoned(std::uint64_t id) const {
    const std::size_t w = static_cast<std::size_t>(id >> 6);
    return w < tomb_bits_.size() &&
           ((tomb_bits_[w] >> (id & 63u)) & 1u) != 0;
  }

  std::vector<Bucket> wheel_;
  std::vector<Event> far_;  ///< 4-ary min-heap; times >= cursor_ + horizon
  Cycle cursor_ = 0;        ///< no live record has time < cursor_
  std::size_t records_ = 0;        ///< stored records, wheel + far
  std::size_t wheel_records_ = 0;  ///< stored records in the wheel
  std::vector<std::uint64_t> tomb_bits_;  ///< 1 bit per event id
  std::size_t tomb_live_ = 0;  ///< cancelled records still stored
  std::uint64_t next_seq_ = 0;
};

}  // namespace emx::sim
