// The simulation context: global clock plus the event queue. One context
// per simulated Machine; the simulator is single-threaded and deterministic.
#pragma once

#include <cstdint>

#include "common/assert.hpp"
#include "common/component.hpp"
#include "common/types.hpp"
#include "sim/event_queue.hpp"

namespace emx::sim {

/// Why run_until_idle() returned.
enum class StopReason {
  kIdle,      ///< the event queue drained (normal quiescence)
  kWatchdog,  ///< armed watchdog saw no forward progress for its window
  kPaused,    ///< reached a requested pause cycle with events still pending
};

/// The "sim" component: its snapshot section is the clock, watchdog
/// ledger and event queue; it contributes the event count to the report.
class SimContext final : public Component {
 public:
  /// Observer for events scheduled into the past (analysis runs only).
  /// When set, such an event is reported and clamped to `now` instead of
  /// tripping the debug assertion — the checker turns a latent scheduling
  /// bug into a diagnostic rather than a crash.
  using LateScheduleHook = void (*)(void* ctx, Cycle target, Cycle now);

  Cycle now() const { return now_; }
  std::uint64_t events_processed() const { return processed_; }

  void set_late_schedule_hook(LateScheduleHook hook, void* ctx) {
    late_hook_ = hook;
    late_ctx_ = ctx;
  }

  /// Schedules `fn(ctx, a, b)` `delay` cycles from now; returns an event
  /// id accepted by cancel().
  std::uint64_t schedule(Cycle delay, EventFn fn, void* ctx, std::uint64_t a = 0,
                         std::uint64_t b = 0) {
    return queue_.push(now_ + delay, fn, ctx, a, b);
  }

  /// Schedules at an absolute cycle (must not be in the past).
  std::uint64_t schedule_at(Cycle time, EventFn fn, void* ctx, std::uint64_t a = 0,
                            std::uint64_t b = 0) {
    if (time < now_ && late_hook_ != nullptr) {
      late_hook_(late_ctx_, time, now_);
      time = now_;
    }
    EMX_DCHECK(time >= now_, "scheduling into the past");
    return queue_.push(time, fn, ctx, a, b);
  }

  /// Cancels a scheduled-but-not-yet-fired event. The event is discarded
  /// without running and without advancing the clock; it does not count
  /// toward events_processed(). Cancelling an already-fired id is a bug.
  void cancel(std::uint64_t event_id) { queue_.cancel(event_id); }

  bool idle() const { return queue_.empty(); }

  /// Arms the progress watchdog: run_until_idle() stops with
  /// StopReason::kWatchdog once more than `window` cycles pass without a
  /// note_progress() call while events are still pending — the signature
  /// of a non-quiescent stall (timers and polls keep the queue busy but
  /// no thread executes and no packet lands). 0 disarms.
  void arm_watchdog(Cycle window) { watchdog_window_ = window; }

  /// Marks forward progress (a thread ran, a DMA serviced a packet, a
  /// fabric delivery landed). Cheap enough for hot paths: one store.
  void note_progress() { last_progress_ = now_; }

  Cycle last_progress() const { return last_progress_; }

  /// Runs events until the queue drains or the armed watchdog trips.
  /// `max_events` guards against runaway simulations (0 = unlimited).
  ///
  /// `pause_at` (0 = never) makes the loop return StopReason::kPaused
  /// *before* dispatching the first event with time > pause_at: the
  /// clock stays at the last dispatched event's time and every event at
  /// or before the pause cycle has fired. The boundary depends only on
  /// event times, so two runs of the same program pause in identical
  /// states — the property checkpointing and record-replay build on.
  StopReason run_until_idle(std::uint64_t max_events = 0, Cycle pause_at = 0);

  /// Runs events with time <= `deadline`; clock ends at
  /// min(deadline, last event time).
  void run_until(Cycle deadline);

  /// Resets clock and queue (for test reuse).
  void reset();

  /// Serializes clock, counters, and the queue. Machine snapshots pass
  /// no fn table (see EventQueue::save); the queue payload still pins
  /// every pending time/seq/arg.
  void save(ser::Serializer& s, const EventFnTable* table) const;

  /// Restores state saved with a table. Returns false on a malformed
  /// payload or unknown handler id.
  bool load(ser::Deserializer& d, const EventFnTable& table);

  // --- Component ---
  const char* component_name() const override { return "sim"; }
  void save_state(ser::Serializer& s) const override { save(s, nullptr); }

 private:
  void dispatch_one();

  Cycle now_ = 0;
  std::uint64_t processed_ = 0;
  Cycle watchdog_window_ = 0;  ///< 0 = disarmed
  Cycle last_progress_ = 0;
  EventQueue queue_;
  LateScheduleHook late_hook_ = nullptr;
  void* late_ctx_ = nullptr;
};

}  // namespace emx::sim
