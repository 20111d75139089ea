// Host wall-clock abstraction for the job core.
//
// The simulator proper never reads wall time (scripts/check_determinism.sh
// enforces it): simulated cycles are the only clock a deterministic run
// may consult. The job core is different — it schedules *processes*,
// so per-job timeouts and retry backoff are genuinely wall-clock
// concerns. Keeping the clock behind this interface does two things:
// the one sanctioned wall-clock read in src/ lives in a single
// annotated translation unit (clock.cpp), and tests drive timeout /
// backoff schedules with a fake clock instead of sleeping.
//
// None of the times read here may influence simulated state or sweep
// *results* — only when workers start, die and retry. The aggregate is
// byte-identical whatever the clock says; that property is what the
// chaos CI job asserts.
#pragma once

#include <cstdint>

namespace emx::jobs {

class Clock {
 public:
  virtual ~Clock() = default;
  /// Monotonic milliseconds since an arbitrary epoch.
  virtual std::int64_t now_ms() = 0;
  /// Blocks for `ms` (a fake clock may just advance itself).
  virtual void sleep_ms(std::int64_t ms) = 0;
};

/// The process-wide monotonic clock.
Clock& real_clock();

}  // namespace emx::jobs
