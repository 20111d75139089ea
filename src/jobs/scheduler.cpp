#include "jobs/scheduler.hpp"

namespace emx::jobs {

json::Value TenantTable::summary() const {
  json::Value v = json::Value::object();
  for (const auto& [tenant, s] : stats_) {
    json::Value t = json::Value::object();
    t.set("running", json::Value::integer(s.running));
    t.set("submitted",
          json::Value::integer(static_cast<std::int64_t>(s.submitted)));
    t.set("finished",
          json::Value::integer(static_cast<std::int64_t>(s.finished)));
    v.set(tenant, std::move(t));
  }
  return v;
}

std::size_t pick_next(const std::vector<ExecView>& queued,
                      const TenantTable& tenants, unsigned max_per_tenant) {
  std::size_t best = kNoPick;
  unsigned best_share = 0;
  for (std::size_t i = 0; i < queued.size(); ++i) {
    const ExecView& e = queued[i];
    const unsigned share = tenants.running(e.tenant);
    if (max_per_tenant > 0 && share >= max_per_tenant) continue;
    if (best == kNoPick) {
      best = i;
      best_share = share;
      continue;
    }
    const ExecView& b = queued[best];
    if (e.priority != b.priority) {
      if (e.priority > b.priority) {
        best = i;
        best_share = share;
      }
    } else if (share != best_share) {
      if (share < best_share) {
        best = i;
        best_share = share;
      }
    } else if (e.seq < b.seq) {
      best = i;
      best_share = share;
    }
  }
  return best;
}

std::size_t pick_victim(const std::vector<ExecView>& running, int priority) {
  std::size_t victim = kNoPick;
  for (std::size_t i = 0; i < running.size(); ++i) {
    const ExecView& e = running[i];
    if (e.priority >= priority) continue;  // only strictly lower yields
    if (victim == kNoPick) {
      victim = i;
      continue;
    }
    const ExecView& v = running[victim];
    if (e.priority < v.priority ||
        (e.priority == v.priority && e.seq > v.seq))
      victim = i;
  }
  return victim;
}

}  // namespace emx::jobs
