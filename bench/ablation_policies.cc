// Extension: the full policy spectrum on the paper's workloads.
//
// §2 surveys background servicing ("the easiest way ... does not offer
// satisfying response times"), the Polling Server, the Deferrable Server
// and the Sporadic Server. The paper implements PS and DS; this bench adds
// the background baseline and the SS extension on identical workloads with
// a periodic load (tau1/tau2 from Table 1) so background service actually
// competes with something. A thin cell-enumerator over exp::run_cell (16
// cells).
#include <cstdio>
#include <iostream>

#include "common/table.h"
#include "exp/tables.h"

int main() {
  using namespace tsf;
  using common::Duration;
  using common::TimePoint;
  std::cout << "=== Extension: server policy comparison (executions) ===\n"
            << "(paper sets + Table 1's periodic tasks tau1(2,6), tau2(1,6);"
               " background server runs below them)\n\n";

  common::TextTable t;
  t.add_row({"set", "policy", "AART", "AIR", "ASR"});
  for (const auto& set : {exp::PaperSet{1, 0}, exp::PaperSet{2, 0},
                          exp::PaperSet{1, 2}, exp::PaperSet{2, 2}}) {
    for (const auto policy :
         {model::ServerPolicy::kBackground, model::ServerPolicy::kPolling,
          model::ServerPolicy::kDeferrable, model::ServerPolicy::kSporadic}) {
      exp::WorkUnit unit;
      char key[64];
      std::snprintf(key, sizeof key, "(%g,%g)", set.density,
                    set.std_deviation);
      unit.params = exp::paper_generator_params(set, policy);
      unit.params.periodic_tasks.push_back({"tau1", Duration::time_units(6),
                                            Duration::time_units(2),
                                            Duration::zero(),
                                            TimePoint::origin(), 20});
      unit.params.periodic_tasks.push_back({"tau2", Duration::time_units(6),
                                            Duration::time_units(1),
                                            Duration::zero(),
                                            TimePoint::origin(), 10});
      if (policy == model::ServerPolicy::kBackground) {
        unit.params.server_priority = 1;  // below the periodic tasks
      }
      unit.mode = exp::Mode::kExecution;
      unit.exec_options = exp::paper_execution_options();
      const exp::SetMetrics m = exp::run_cell(unit).metrics;
      t.add_row({key, model::to_string(policy), common::fmt_fixed(m.aart, 2),
                 common::fmt_fixed(m.air, 2), common::fmt_fixed(m.asr, 2)});
    }
  }
  std::cout << t.to_string()
            << "\nReading: event-driven budgets (deferrable, sporadic) give"
               " the best response times; polling pays up to one period of"
               " latency; background service depends entirely on the idle"
               " time the periodic load leaves.\n";
  return 0;
}
