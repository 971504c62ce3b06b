// Extension: the RTSS simulator's three scheduling policies under load.
//
// §5 lists Preemptive Fixed Priority, EDF and D-OVER. Firm-deadline job
// sets are swept from underload to 2x overload; EDF collapses under
// overload (the domino effect), D-OVER keeps a guaranteed fraction of the
// achievable value. Exits non-zero unless D-OVER accrues at least firm
// EDF's value at every load.
#include <cstdio>
#include <iostream>
#include <string>

#include "common/rng.h"
#include "common/table.h"
#include "sim/dover.h"
#include "sim/edf.h"

namespace {

using namespace tsf;
using common::Duration;
using common::TimePoint;

std::vector<sim::DynJob> make_job_set(double load, common::Rng& rng,
                                      int count) {
  // Jobs of mean cost 3tu arriving with inter-arrival mean 3/load; firm
  // deadline = release + cost * uniform(1.5, 3).
  std::vector<sim::DynJob> jobs;
  TimePoint t = TimePoint::origin();
  for (int i = 0; i < count; ++i) {
    const double gap = rng.uniform(0.0, 2.0) * 3.0 / load;
    t += Duration::from_tu(gap);
    sim::DynJob j;
    j.name = "j" + std::to_string(i);
    j.release = t;
    j.cost = Duration::from_tu(rng.uniform(1.0, 5.0));
    j.deadline = j.release + Duration::from_tu(j.cost.to_tu() *
                                               rng.uniform(1.5, 3.0));
    j.value = j.cost.to_tu();  // uniform value density (k = 1)
    jobs.push_back(std::move(j));
  }
  return jobs;
}

}  // namespace

int main() {
  std::cout << "=== Extension: RTSS policies under overload (firm jobs) ===\n"
            << "(200 jobs per point, 10 seeds; value = cost, k = 1)\n\n";
  common::TextTable t;
  t.add_row({"load", "EDF value %", "D-OVER value %", "EDF misses",
             "D-OVER misses"});
  std::string behind;  // loads where D-OVER accrued less than firm EDF
  for (const double load : {0.5, 0.8, 1.0, 1.2, 1.5, 2.0}) {
    double edf_value = 0, dover_value = 0, offered = 0;
    std::size_t edf_missed = 0, dover_missed = 0;
    for (std::uint64_t seed = 0; seed < 10; ++seed) {
      common::Rng rng(1983 + seed);
      const auto jobs = make_job_set(load, rng, 200);
      offered += sim::total_value(jobs);
      sim::EdfOptions firm;
      firm.firm = true;
      const auto edf = sim::simulate_edf(jobs, firm);
      const auto dover = sim::simulate_dover(jobs);
      edf_value += edf.total_value;
      dover_value += dover.total_value;
      edf_missed += edf.missed;
      dover_missed += dover.missed;
    }
    char l[64];
    std::snprintf(l, sizeof l, "%.1f", load);
    if (dover_value < edf_value) behind += std::string(" ") + l;
    t.add_row({l, common::fmt_fixed(100.0 * edf_value / offered, 1),
               common::fmt_fixed(100.0 * dover_value / offered, 1),
               std::to_string(edf_missed), std::to_string(dover_missed)});
  }
  std::cout << t.to_string()
            << "\nReading: neither policy is loss-free even below load 1,"
               " since random arrivals bunch into transient overloads."
               " D-OVER accrues at least firm EDF's value at every load:"
               " firm EDF wastes work on jobs it then abandons while D-OVER"
               " abandons early and completes what it starts, and the gap"
               " widens with load.\n";
  if (!behind.empty()) {
    std::cerr << "FAIL: D-OVER accrued less value than firm EDF at load"
              << behind << "\n";
    return 1;
  }
  return 0;
}
