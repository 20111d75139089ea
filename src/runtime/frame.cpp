#include "runtime/frame.hpp"

#include <cstdio>

#include "common/assert.hpp"

namespace emx::rt {

const char* to_string(ThreadState state) {
  switch (state) {
    case ThreadState::kFree:
      return "FREE";
    case ThreadState::kRunning:
      return "RUNNING";
    case ThreadState::kSuspendedRead:
      return "SUSP_READ";
    case ThreadState::kSuspendedGate:
      return "SUSP_GATE";
    case ThreadState::kSuspendedBarrier:
      return "SUSP_BARRIER";
    case ThreadState::kSuspendedYield:
      return "SUSP_YIELD";
  }
  return "?";
}

FramePool::~FramePool() {
  for (ThreadRecord& rec : records_)
    if (rec.coro) rec.coro.destroy();
}

ThreadRecord& FramePool::alloc(ThreadId parent) {
  ThreadRecord* rec;
  if (free_head_ != kInvalidThread) {
    rec = &records_[free_head_];
    free_head_ = rec->next_free;
  } else {
    records_.emplace_back();
    rec = &records_.back();
    rec->id = static_cast<ThreadId>(records_.size() - 1);
  }
  EMX_DCHECK(rec->state == ThreadState::kFree, "allocating a live frame");
  rec->parent = parent;
  rec->state = ThreadState::kRunning;
  rec->coro = {};
  rec->reply_value = 0;
  rec->reply_value2 = 0;
  rec->replies_pending = 0;
  rec->pending_tag = 0;
  rec->next_free = kInvalidThread;
  ++created_;
  ++live_;
  peak_live_ = live_ > peak_live_ ? live_ : peak_live_;
  return *rec;
}

void FramePool::free(ThreadRecord& record) {
  EMX_DCHECK(record.state != ThreadState::kFree, "double free of frame");
  if (record.coro) {
    record.coro.destroy();
    record.coro = {};
  }
  record.state = ThreadState::kFree;
  record.next_free = free_head_;
  free_head_ = record.id;
  EMX_DCHECK(live_ > 0, "frame underflow");
  --live_;
}

ThreadRecord& FramePool::get(ThreadId id) {
  EMX_DCHECK(id < records_.size(), "thread id out of range");
  return records_[id];
}

const ThreadRecord& FramePool::get(ThreadId id) const {
  EMX_DCHECK(id < records_.size(), "thread id out of range");
  return records_[id];
}

void FramePool::append_live(std::string& out) const {
  for (const ThreadRecord& rec : records_) {
    if (rec.state == ThreadState::kFree) continue;
    char buf[96];
    std::snprintf(buf, sizeof buf,
                  "    thread=%u %s replies_pending=%u tag=%u\n", rec.id,
                  to_string(rec.state), rec.replies_pending, rec.pending_tag);
    out += buf;
  }
}

}  // namespace emx::rt
