#include "sim/dover.h"

#include <algorithm>

#include "analysis/dover.h"
#include "common/diag.h"

namespace tsf::sim {

using common::Duration;
using common::TimePoint;

namespace {

struct Live {
  std::size_t index;
  Duration remaining;
  bool privileged = false;
};

}  // namespace

DynResult simulate_dover(std::vector<DynJob> jobs) {
  DynResult result;
  result.outcomes.resize(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    result.outcomes[i].name = jobs[i].name;
  }
  std::vector<analysis::dover::ValueCost> densities;
  for (const auto& j : jobs) {
    densities.push_back({j.effective_value(), j.cost.to_tu()});
  }
  const double k = analysis::dover::importance_ratio(densities);

  std::vector<std::size_t> order(jobs.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return jobs[a].release < jobs[b].release;
                   });

  std::vector<Live> live;          // privileged + waiting
  std::vector<std::size_t> waiting;  // positions in live, EDF order
  std::size_t next = 0;
  TimePoint now = TimePoint::origin();

  auto lst = [&](const Live& l) -> TimePoint {
    return jobs[l.index].deadline - l.remaining;
  };
  // Would the privileged set stay feasible on its remaining demand if the
  // job at `cand_pos` joined it?
  std::vector<analysis::dover::Demand> demand;
  auto admissible = [&](std::size_t cand_pos) {
    demand.clear();
    for (std::size_t i = 0; i < live.size(); ++i) {
      if (live[i].privileged || i == cand_pos) {
        demand.push_back({jobs[live[i].index].deadline, live[i].remaining});
      }
    }
    return analysis::dover::demand_feasible(now, demand);
  };

  while (next < order.size() || !live.empty()) {
    // Admit arrivals; each becomes privileged if the set stays feasible.
    while (next < order.size() && jobs[order[next]].release <= now) {
      live.push_back(Live{order[next], jobs[order[next]].cost, false});
      live.back().privileged = admissible(live.size() - 1);
      ++next;
    }
    // Re-admit waiting jobs (EDF order) while feasible — covers both the
    // idle case and slack freed by completions.
    waiting.clear();
    for (std::size_t i = 0; i < live.size(); ++i) {
      if (!live[i].privileged) waiting.push_back(i);
    }
    std::sort(waiting.begin(), waiting.end(),
              [&](std::size_t a, std::size_t b) {
                return jobs[live[a].index].deadline <
                       jobs[live[b].index].deadline;
              });
    for (std::size_t w : waiting) {
      if (admissible(w)) live[w].privileged = true;
    }

    if (live.empty()) {
      TSF_ASSERT(next < order.size(), "D-OVER ran out of work unexpectedly");
      now = jobs[order[next]].release;
      continue;
    }

    // Run the earliest-deadline privileged job.
    std::size_t run_pos = live.size();
    for (std::size_t i = 0; i < live.size(); ++i) {
      if (!live[i].privileged) continue;
      if (run_pos == live.size() ||
          jobs[live[i].index].deadline < jobs[live[run_pos].index].deadline) {
        run_pos = i;
      }
    }

    // Next decision point: completion, arrival, or the earliest LST of a
    // waiting job.
    TimePoint t = TimePoint::never();
    if (run_pos < live.size()) t = now + live[run_pos].remaining;
    if (next < order.size()) t = common::min(t, jobs[order[next]].release);
    TimePoint first_lst = TimePoint::never();
    for (const auto& l : live) {
      if (!l.privileged) first_lst = common::min(first_lst, lst(l));
    }
    t = common::min(t, common::max(first_lst, now));
    TSF_ASSERT(!t.is_never(), "D-OVER has no next event");

    if (run_pos < live.size() && t > now) {
      live[run_pos].remaining -= (t - now);
    }
    now = t;

    // Completion?
    if (run_pos < live.size() && live[run_pos].remaining.is_zero()) {
      auto& out = result.outcomes[live[run_pos].index];
      out.completed = true;
      out.completion = now;
      out.value_obtained = jobs[live[run_pos].index].effective_value();
      result.total_value += out.value_obtained;
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(run_pos));
      continue;
    }

    // LST interrupts for waiting jobs.
    for (std::size_t i = live.size(); i-- > 0;) {
      if (live[i].privileged || lst(live[i]) > now) continue;
      double privileged_value = 0.0;
      for (const auto& p : live) {
        if (p.privileged) privileged_value += jobs[p.index].effective_value();
      }
      const double challenger = jobs[live[i].index].effective_value();
      if (analysis::dover::takes_over(challenger, privileged_value, k)) {
        // Takeover: demote everyone, promote the challenger. Demoted jobs
        // whose LST has now passed will be abandoned on the next sweep.
        for (auto& l : live) l.privileged = false;
        live[i].privileged = true;
      } else {
        result.outcomes[live[i].index].abandoned = true;
        ++result.missed;
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
      }
    }
  }
  return result;
}

}  // namespace tsf::sim
