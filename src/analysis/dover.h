// D-OVER (Koren & Shasha, 1995): optimal on-line scheduling of overloaded
// firm-deadline systems, the third RTSS policy (§5). Its decision rules
// live here once; the simulator policy (sim/dover.h) and the exec path's
// pending-queue discipline (core/dover_queue.h) apply them, each under its
// own time model.
//
//  - The admitted ("privileged") set is served EDF and kept feasible: a job
//    joins it, on arrival or later in EDF order, whenever demand_feasible
//    still holds with it added; otherwise it waits.
//  - When a waiting job reaches its latest start time (LST: deadline minus
//    remaining demand) it takes over if takes_over holds against the whole
//    privileged set, which is then demoted to waiting; otherwise it is
//    abandoned. The (1 + sqrt(k)) factor, k the importance ratio, yields
//    D-OVER's optimal competitive factor 1/(1+sqrt(k))^2.
//  - Simplification vs the paper: demoted jobs re-enter through the same
//    LST rule, not through the original's ready-group bookkeeping.
#pragma once

#include <span>

#include "common/annotations.h"
#include "common/time.h"

namespace tsf::analysis::dover {

// One job's value and cost (in tu), the inputs of its value density.
struct ValueCost {
  double value = 0.0;
  double cost = 0.0;
};

// k = max/min value density (value / cost) over `jobs`. Jobs with cost
// <= 0 carry no density and are skipped. Always >= 1; 1 when no job is
// left or a density is not positive.
TSF_NO_ALLOC
double importance_ratio(std::span<const ValueCost> jobs);

// The LST overload decision: does a challenger worth `challenger_value`
// take over from a privileged set worth `privileged_value`, under
// importance ratio k? Strict: an equal value does not take over.
TSF_NO_ALLOC
bool takes_over(double challenger_value, double privileged_value, double k);

// One job of a candidate privileged set: its absolute deadline (never() =
// soft, always met) and the service it still demands.
struct Demand {
  common::TimePoint deadline;
  common::Duration demand;
};

// Processor-demand feasibility: served EDF from `now`, does every job meet
// its deadline? Sorts `set` into EDF order in place; the caller owns the
// buffer, so a hot path reuses its capacity instead of allocating.
TSF_NO_ALLOC
bool demand_feasible(common::TimePoint now, std::span<Demand> set);

}  // namespace tsf::analysis::dover
