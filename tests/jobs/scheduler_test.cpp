// Scheduling policy in isolation: priority beats fair share beats
// admission order for admission; preemption only ever sacrifices
// strictly lower-priority work, youngest first.
#include "jobs/scheduler.hpp"

#include <vector>

#include <gtest/gtest.h>

namespace emx::jobs {
namespace {

ExecView ev(const char* key, const char* tenant, int priority,
            std::uint64_t seq) {
  return ExecView{key, tenant, priority, seq};
}

TEST(PickNextTest, HighestPriorityWins) {
  TenantTable tenants;
  const std::vector<ExecView> q = {ev("a", "t1", 2, 1), ev("b", "t1", 7, 2),
                                   ev("c", "t1", 5, 3)};
  EXPECT_EQ(pick_next(q, tenants, 0), 1u);
}

TEST(PickNextTest, FairShareBreaksPriorityTies) {
  TenantTable tenants;
  tenants.on_start("busy");
  tenants.on_start("busy");
  tenants.on_start("idle");
  // Same priority: the tenant with less running work goes first, even
  // though the busy tenant submitted earlier.
  const std::vector<ExecView> q = {ev("a", "busy", 5, 1),
                                   ev("b", "idle", 5, 2)};
  EXPECT_EQ(pick_next(q, tenants, 0), 1u);
}

TEST(PickNextTest, AdmissionOrderBreaksFullTies) {
  TenantTable tenants;
  const std::vector<ExecView> q = {ev("a", "t1", 5, 9), ev("b", "t2", 5, 4),
                                   ev("c", "t1", 5, 7)};
  EXPECT_EQ(pick_next(q, tenants, 0), 1u);
}

TEST(PickNextTest, TenantCapSkips) {
  TenantTable tenants;
  tenants.on_start("capped");
  // A higher-priority exec whose tenant is at cap yields to the rest.
  const std::vector<ExecView> q = {ev("a", "capped", 9, 1),
                                   ev("b", "other", 1, 2)};
  EXPECT_EQ(pick_next(q, tenants, 1), 1u);
  // No cap: the priority order reasserts itself.
  EXPECT_EQ(pick_next(q, tenants, 0), 0u);
  // Everyone capped: nothing to pick.
  tenants.on_start("other");
  EXPECT_EQ(pick_next(q, tenants, 1), kNoPick);
  EXPECT_EQ(pick_next({}, tenants, 0), kNoPick);
}

TEST(PickVictimTest, OnlyStrictlyLowerPriorityIsPreemptable) {
  const std::vector<ExecView> running = {ev("a", "t1", 5, 1),
                                         ev("b", "t1", 3, 2)};
  // Equal priority never preempts: no churn among peers.
  EXPECT_EQ(pick_victim(running, 3), kNoPick);
  // Strictly higher does, and takes the lowest-priority victim.
  EXPECT_EQ(pick_victim(running, 4), 1u);
  EXPECT_EQ(pick_victim(running, 9), 1u);
  EXPECT_EQ(pick_victim({}, 9), kNoPick);
}

TEST(PickVictimTest, YoungestOfEqualPrioritiesGoesFirst) {
  const std::vector<ExecView> running = {ev("a", "t1", 2, 4),
                                         ev("b", "t2", 2, 9),
                                         ev("c", "t3", 2, 6)};
  // Same (lowest) priority everywhere: the youngest admission — the
  // one with the least checkpoint state to lose — is the victim.
  EXPECT_EQ(pick_victim(running, 5), 1u);
}

}  // namespace
}  // namespace emx::jobs
