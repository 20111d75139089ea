#include "sim/sim_context.hpp"

namespace emx::sim {

void SimContext::dispatch_one() {
  const Event ev = queue_.pop();
  EMX_DCHECK(ev.time >= now_, "event time went backwards");
  now_ = ev.time;
  ++processed_;
  ev.fn(ev.ctx, ev.a, ev.b);
}

StopReason SimContext::run_until_idle(std::uint64_t max_events, Cycle pause_at) {
  while (!queue_.empty()) {
    if (pause_at != 0 && queue_.top().time > pause_at) return StopReason::kPaused;
    dispatch_one();
    if (max_events != 0 && processed_ >= max_events) {
      EMX_CHECK(false, "simulation exceeded event budget (possible livelock)");
    }
    if (watchdog_window_ != 0 && now_ - last_progress_ > watchdog_window_)
      return StopReason::kWatchdog;
  }
  return StopReason::kIdle;
}

void SimContext::run_until(Cycle deadline) {
  while (!queue_.empty() && queue_.top().time <= deadline) {
    dispatch_one();
  }
  if (now_ < deadline && queue_.empty()) {
    now_ = deadline;
  }
}

void SimContext::reset() {
  now_ = 0;
  processed_ = 0;
  last_progress_ = 0;
  queue_.clear();
}

void SimContext::save(ser::Serializer& s, const EventFnTable* table) const {
  s.u64(now_);
  s.u64(processed_);
  s.u64(watchdog_window_);
  s.u64(last_progress_);
  queue_.save(s, table);
}

bool SimContext::load(ser::Deserializer& d, const EventFnTable& table) {
  now_ = d.u64();
  processed_ = d.u64();
  watchdog_window_ = d.u64();
  last_progress_ = d.u64();
  return d.ok() && queue_.load(d, table);
}

}  // namespace emx::sim
