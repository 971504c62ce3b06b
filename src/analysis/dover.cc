#include "analysis/dover.h"

#include <algorithm>
#include <cmath>

namespace tsf::analysis::dover {

double importance_ratio(std::span<const ValueCost> jobs) {
  double dmin = 0.0, dmax = 0.0;
  bool any = false;
  for (const ValueCost& j : jobs) {
    if (j.cost <= 0.0) continue;
    const double density = j.value / j.cost;
    dmin = any ? std::min(dmin, density) : density;
    dmax = any ? std::max(dmax, density) : density;
    any = true;
  }
  return any && dmin > 0.0 ? std::max(1.0, dmax / dmin) : 1.0;
}

bool takes_over(double challenger_value, double privileged_value, double k) {
  return challenger_value >
         (1.0 + std::sqrt(std::max(1.0, k))) * privileged_value;
}

bool demand_feasible(common::TimePoint now, std::span<Demand> set) {
  std::sort(set.begin(), set.end(), [](const Demand& a, const Demand& b) {
    return a.deadline < b.deadline;
  });
  common::TimePoint t = now;
  for (const Demand& d : set) {
    t += d.demand;
    if (!d.deadline.is_never() && t > d.deadline) return false;
  }
  return true;
}

}  // namespace tsf::analysis::dover
