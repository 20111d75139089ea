#include "jobs/clock.hpp"

#include <chrono>
#include <thread>

namespace emx::jobs {

namespace {

class RealClock final : public Clock {
 public:
  std::int64_t now_ms() override {
    using namespace std::chrono;
    return duration_cast<milliseconds>(steady_clock::now().time_since_epoch()).count();  // determinism-ok: job-core process scheduling, never simulated state
  }
  void sleep_ms(std::int64_t ms) override {
    if (ms > 0) std::this_thread::sleep_for(std::chrono::milliseconds(ms));
  }
};

}  // namespace

Clock& real_clock() {
  static RealClock clock;
  return clock;
}

}  // namespace emx::jobs
