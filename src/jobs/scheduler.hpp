// Pure scheduling policy for the job core: who runs next, who gets
// preempted, and the per-tenant accounting both decisions read. No I/O,
// no clocks — just orderings over views of the execution table, so every
// decision is unit-testable in isolation and deterministic given the
// same inputs.
//
// Multi-tenancy is the smallest kind that is still honest: every submit
// names a tenant, the table counts what each tenant has running and has
// ever submitted/finished, and admission uses the running counts for
// fair share — among queued work of equal priority, the tenant with the
// least running work goes first, so one chatty tenant cannot starve the
// rest at its own priority level. There is no authentication: the
// tenant string is a scheduling label. A sweep submits every cell as one
// tenant at one priority, which makes admission plain FIFO.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/json.hpp"

namespace emx::jobs {

constexpr int kMinPriority = 0;
constexpr int kMaxPriority = 9;

class TenantTable {
 public:
  void on_submit(const std::string& tenant) { ++stats_[tenant].submitted; }
  void on_start(const std::string& tenant) { ++stats_[tenant].running; }
  void on_stop(const std::string& tenant) {
    auto it = stats_.find(tenant);
    if (it != stats_.end() && it->second.running > 0) --it->second.running;
  }
  void on_finish(const std::string& tenant) { ++stats_[tenant].finished; }

  unsigned running(const std::string& tenant) const {
    const auto it = stats_.find(tenant);
    return it == stats_.end() ? 0 : it->second.running;
  }

  /// {"<tenant>":{"running":N,"submitted":N,"finished":N},...} for the
  /// daemon's `list` response; tenants in name order (std::map) so the
  /// line is deterministic.
  json::Value summary() const;

 private:
  struct Stats {
    unsigned running = 0;
    std::uint64_t submitted = 0;
    std::uint64_t finished = 0;
  };
  std::map<std::string, Stats> stats_;
};

/// What the policy needs to know about one execution (a deduplicated
/// unit of work; several jobs may be attached to it).
struct ExecView {
  std::string key;
  std::string tenant;
  int priority = 0;       ///< effective: max over attached live jobs
  std::uint64_t seq = 0;  ///< admission order (first submit wins)
};

constexpr std::size_t kNoPick = static_cast<std::size_t>(-1);

/// Index into `queued` of the next execution to start, or kNoPick.
/// Order: priority descending, then fair share (tenant with fewer
/// running executions first), then admission order. Tenants already at
/// `max_per_tenant` running executions are skipped (0 = no cap).
std::size_t pick_next(const std::vector<ExecView>& queued,
                      const TenantTable& tenants, unsigned max_per_tenant);

/// Index into `running` of the execution to preempt so work of
/// `priority` can run, or kNoPick when nothing running is strictly
/// lower-priority. Picks the lowest effective priority; among equals,
/// the youngest admission (least likely to have deep checkpoint state,
/// and deterministic either way).
std::size_t pick_victim(const std::vector<ExecView>& running, int priority);

}  // namespace emx::jobs
