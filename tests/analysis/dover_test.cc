// Tests for D-over's shared decision rules (analysis/dover.h): the
// processor-demand feasibility check against an EDF simulation, the
// importance ratio, and the strict takeover test.
#include "analysis/dover.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.h"
#include "sim/edf.h"

namespace tsf::analysis::dover {
namespace {

using common::Duration;
using common::TimePoint;

// Differential property: for jobs all released at `now`, the demand check
// says "feasible" exactly when non-firm EDF from `now` misses no deadline.
// Deadlines are drawn from a few whole time units so ties are common.
TEST(DemandFeasible, AgreesWithEdfSimulationOnSimultaneousReleases) {
  common::Rng rng(2024);
  const TimePoint now = TimePoint::origin() + Duration::time_units(5);
  int feasible_sets = 0, infeasible_sets = 0;
  for (int trial = 0; trial < 500; ++trial) {
    const auto n = static_cast<int>(rng.uniform_i64(1, 8));
    std::vector<sim::DynJob> jobs;
    std::vector<Demand> set;
    for (int i = 0; i < n; ++i) {
      sim::DynJob j;
      j.name = "j" + std::to_string(i);
      j.release = now;
      j.cost = Duration::ticks(rng.uniform_i64(1, 4000));
      j.deadline = now + Duration::time_units(rng.uniform_i64(1, 12));
      set.push_back({j.deadline, j.cost});
      jobs.push_back(std::move(j));
    }
    const bool feasible = demand_feasible(now, set);
    const sim::DynResult edf = sim::simulate_edf(jobs);
    SCOPED_TRACE("trial " + std::to_string(trial));
    EXPECT_EQ(feasible, edf.missed == 0);
    (feasible ? feasible_sets : infeasible_sets)++;
  }
  // Both verdicts are exercised.
  EXPECT_GT(feasible_sets, 50);
  EXPECT_GT(infeasible_sets, 50);
}

TEST(DemandFeasible, SoftDeadlineAlwaysPasses) {
  const TimePoint now = TimePoint::origin();
  std::vector<Demand> set = {
      {TimePoint::never(), Duration::time_units(100)},
      {now + Duration::time_units(3), Duration::time_units(3)},
  };
  EXPECT_TRUE(demand_feasible(now, set));
  set.push_back({now + Duration::time_units(3), Duration::ticks(1)});
  EXPECT_FALSE(demand_feasible(now, set));
}

TEST(DemandFeasible, EmptySetIsFeasible) {
  EXPECT_TRUE(demand_feasible(TimePoint::origin(), {}));
}

TEST(ImportanceRatio, Table) {
  struct Case {
    const char* name;
    std::vector<ValueCost> jobs;
    double k;
  };
  const Case cases[] = {
      {"empty set", {}, 1.0},
      {"one job", {{6.0, 2.0}}, 1.0},
      {"uniform density", {{2.0, 2.0}, {5.0, 5.0}}, 1.0},
      {"max over min density", {{4.0, 4.0}, {14.0, 9.0}, {9.0, 1.0}}, 9.0},
      {"zero cost skipped", {{1.0, 1.0}, {50.0, 0.0}, {3.0, 1.0}}, 3.0},
      {"only zero cost", {{5.0, 0.0}}, 1.0},
      {"non-positive density", {{0.0, 1.0}, {3.0, 1.0}}, 1.0},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const double k = importance_ratio(c.jobs);
    EXPECT_DOUBLE_EQ(k, c.k);
    EXPECT_GE(k, 1.0);
  }
}

TEST(TakesOver, StrictlyGreaterThanOnePlusSqrtKTimesPrivilegedValue) {
  // k = 4: the challenger must beat 3x the privileged value.
  EXPECT_FALSE(takes_over(12.0, 4.0, 4.0));  // equal value: no takeover
  EXPECT_TRUE(takes_over(12.5, 4.0, 4.0));
  EXPECT_FALSE(takes_over(11.0, 4.0, 4.0));
  // k = 1 doubles; an equal value never wins, whatever the set is worth.
  EXPECT_FALSE(takes_over(2.0, 1.0, 1.0));
  EXPECT_TRUE(takes_over(2.5, 1.0, 1.0));
  // k below 1 is read as 1; an empty privileged set loses to any value.
  EXPECT_FALSE(takes_over(2.0, 1.0, 0.25));
  EXPECT_TRUE(takes_over(0.5, 0.0, 1.0));
}

}  // namespace
}  // namespace tsf::analysis::dover
