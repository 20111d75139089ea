#include "sim/event_queue.hpp"

#include <algorithm>
#include <utility>

#include "common/assert.hpp"

namespace emx::sim {

std::uint32_t EventFnTable::register_fn(EventFn fn, void* ctx) {
  const std::uint32_t existing = id_of(fn, ctx);
  if (existing != 0) return existing;
  entries_.push_back(Entry{fn, ctx});
  return static_cast<std::uint32_t>(entries_.size());
}

std::uint32_t EventFnTable::id_of(EventFn fn, void* ctx) const {
  for (std::size_t i = 0; i < entries_.size(); ++i)
    if (entries_[i].fn == fn && entries_[i].ctx == ctx)
      return static_cast<std::uint32_t>(i + 1);
  return 0;
}

EventFn EventFnTable::fn_of(std::uint32_t id) const {
  EMX_CHECK(id >= 1 && id <= entries_.size(), "unknown event fn id");
  return entries_[id - 1].fn;
}

void* EventFnTable::ctx_of(std::uint32_t id) const {
  EMX_CHECK(id >= 1 && id <= entries_.size(), "unknown event fn id");
  return entries_[id - 1].ctx;
}

void EventQueue::insert_slow(const Event& ev) {
  // top() advances the cursor across event-free gaps; a push back into
  // such a gap (run_until / paused runs — never the dispatch hot loop,
  // where the cursor always sits at the last popped event's cycle) pulls
  // the wheel back to the new event's cycle.
  if (ev.time < cursor_) rehome(ev.time);
  if (ev.time < cursor_ + kWheelBuckets) {
    // Direct pushes arrive in seq order (seq is monotonic in push time)
    // and append in insert(). Only far-heap migration can deliver an
    // out-of-order seq, and it inserts at the right spot.
    Bucket& b = wheel_[ev.time & (kWheelBuckets - 1)];
    const auto at = std::lower_bound(
        b.events.begin() + static_cast<std::ptrdiff_t>(b.head),
        b.events.end(), ev,
        [](const Event& x, const Event& y) { return x.seq < y.seq; });
    b.events.insert(at, ev);
    ++wheel_records_;
  } else {
    far_.push_back(ev);
    far_sift_up(far_.size() - 1);
  }
}

void EventQueue::rehome(Cycle new_cursor) {
  // Lowering the cursor shifts the wheel's window; records whose cycle
  // no longer fits re-route (possibly to the far heap). All stored wheel
  // records have time >= the old cursor > new_cursor, so the reinsertion
  // cannot recurse. Cold path by construction.
  std::vector<Event> pending;
  pending.reserve(wheel_records_);
  for (Bucket& b : wheel_) {
    for (std::size_t i = b.head; i < b.events.size(); ++i)
      pending.push_back(b.events[i]);
    b.events.clear();
    b.head = 0;
  }
  wheel_records_ = 0;
  cursor_ = new_cursor;
  for (const Event& ev : pending) insert(ev);
}

void EventQueue::cancel(std::uint64_t id) {
  const std::size_t w = static_cast<std::size_t>(id >> 6);
  if (w >= tomb_bits_.size()) tomb_bits_.resize(w + 1, 0);
  const std::uint64_t mask = std::uint64_t{1} << (id & 63u);
  if ((tomb_bits_[w] & mask) != 0) return;  // double-cancel is a no-op
  tomb_bits_[w] |= mask;
  ++tomb_live_;
}

void EventQueue::migrate_due() {
  while (!far_.empty() && far_.front().time < cursor_ + kWheelBuckets) {
    const Event ev = far_pop_front();
    insert(ev);
  }
}

Event& EventQueue::advance() {
  for (;;) {
    if (wheel_records_ == 0) {
      // Nothing within the horizon: jump the cursor to the far heap's
      // next due cycle instead of scanning empty buckets.
      cursor_ = far_.front().time;
      migrate_due();
      continue;
    }
    Bucket& b = wheel_[cursor_ & (kWheelBuckets - 1)];
    while (b.head < b.events.size()) {
      Event& ev = b.events[b.head];
      if (!tombstoned(ev.seq)) return ev;
      // Cancelled: discard in place, never dispatched.
      tomb_bits_[static_cast<std::size_t>(ev.seq >> 6)] &=
          ~(std::uint64_t{1} << (ev.seq & 63u));
      --tomb_live_;
      --records_;
      --wheel_records_;
      ++b.head;
    }
    b.events.clear();
    b.head = 0;
    ++cursor_;
    migrate_due();
  }
}

void EventQueue::clear() {
  for (Bucket& b : wheel_) {
    b.events.clear();
    b.head = 0;
  }
  far_.clear();
  cursor_ = 0;
  records_ = 0;
  wheel_records_ = 0;
  tomb_bits_.clear();
  tomb_live_ = 0;
  next_seq_ = 0;
}

void EventQueue::save(ser::Serializer& s, const EventFnTable* table) const {
  s.u64(next_seq_);
  // Canonical order: live records sorted by seq. seq values are unique,
  // so the order is total and independent of storage layout.
  std::vector<const Event*> live;
  live.reserve(size());
  for (const Bucket& b : wheel_)
    for (std::size_t i = b.head; i < b.events.size(); ++i)
      if (!tombstoned(b.events[i].seq)) live.push_back(&b.events[i]);
  for (const Event& ev : far_)
    if (!tombstoned(ev.seq)) live.push_back(&ev);
  std::sort(live.begin(), live.end(),
            [](const Event* a, const Event* b) { return a->seq < b->seq; });
  s.u32(static_cast<std::uint32_t>(live.size()));
  for (const Event* ev : live) {
    s.u64(ev->time);
    s.u64(ev->seq);
    s.u32(table != nullptr ? table->id_of(ev->fn, ev->ctx) : 0);
    s.u64(ev->a);
    s.u64(ev->b);
  }
}

bool EventQueue::load(ser::Deserializer& d, const EventFnTable& table) {
  clear();
  next_seq_ = d.u64();
  const std::uint32_t live_count = d.u32();
  std::vector<Event> loaded;
  loaded.reserve(live_count);
  Cycle min_time = 0;
  for (std::uint32_t i = 0; i < live_count; ++i) {
    Event ev;
    ev.time = d.u64();
    ev.seq = d.u64();
    const std::uint32_t fn_id = d.u32();
    ev.a = d.u64();
    ev.b = d.u64();
    if (!d.ok() || fn_id == 0 || fn_id > table.count()) return false;
    ev.fn = table.fn_of(fn_id);
    ev.ctx = table.ctx_of(fn_id);
    if (loaded.empty() || ev.time < min_time) min_time = ev.time;
    loaded.push_back(ev);
  }
  // Records arrive seq-sorted, not time-sorted: start the cursor at the
  // earliest record's cycle, then route each through the normal insert
  // path. Seq-sorted insertion keeps every bucket in seq order, and
  // save() re-canonicalizes regardless — round-trips are byte-stable.
  cursor_ = min_time;
  for (const Event& ev : loaded) {
    insert(ev);
    ++records_;
  }
  return d.ok();
}

void EventQueue::far_sift_up(std::size_t i) {
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!later(far_[parent], far_[i])) break;
    std::swap(far_[parent], far_[i]);
    i = parent;
  }
}

void EventQueue::far_sift_down(std::size_t i) {
  const std::size_t n = far_.size();
  for (;;) {
    const std::size_t first_child = 4 * i + 1;
    if (first_child >= n) return;
    const std::size_t last_child = std::min(first_child + 4, n);
    std::size_t smallest = i;
    for (std::size_t c = first_child; c < last_child; ++c)
      if (later(far_[smallest], far_[c])) smallest = c;
    if (smallest == i) return;
    std::swap(far_[i], far_[smallest]);
    i = smallest;
  }
}

Event EventQueue::far_pop_front() {
  Event out = far_.front();
  far_.front() = far_.back();
  far_.pop_back();
  if (!far_.empty()) far_sift_down(0);
  return out;
}

}  // namespace emx::sim
