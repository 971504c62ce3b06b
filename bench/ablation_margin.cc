// §7 future work, implemented: "We can avoid some interruptions in delaying
// the execution of events handlers with a cost too close of the remaining
// capacity."
//
// Sweeping the admission margin on the heterogeneous paper sets shows the
// trade the paper anticipated: AIR falls towards zero as the margin grows,
// at the cost of deferring (and eventually not serving) borderline events.
// A thin cell-enumerator: the margin rides on the WorkUnit (applied to every
// generated spec before the run) and exp::run_cell runs the 12 cells.
#include <cstdio>
#include <iostream>

#include "common/table.h"
#include "exp/tables.h"

int main() {
  using namespace tsf;
  std::cout << "=== §7 extension: interruption-avoidance margin sweep ===\n"
            << "(PS executions, calibrated overheads)\n\n";

  common::TextTable t;
  t.add_row({"margin", "set", "AART", "AIR", "ASR"});
  for (const int margin_ticks : {0, 250, 500, 1000}) {
    for (const auto& set : {exp::PaperSet{1, 2}, exp::PaperSet{2, 2},
                            exp::PaperSet{3, 2}}) {
      exp::WorkUnit unit;
      char key[64], mg[64];
      std::snprintf(key, sizeof key, "(%g,%g)", set.density,
                    set.std_deviation);
      std::snprintf(mg, sizeof mg, "%.2ftu", margin_ticks / 1000.0);
      unit.params =
          exp::paper_generator_params(set, model::ServerPolicy::kPolling);
      unit.mode = exp::Mode::kExecution;
      unit.exec_options = exp::paper_execution_options();
      unit.admission_margin = common::Duration::ticks(margin_ticks);
      const exp::SetMetrics m = exp::run_cell(unit).metrics;
      t.add_row({mg, key, common::fmt_fixed(m.aart, 2),
                 common::fmt_fixed(m.air, 2), common::fmt_fixed(m.asr, 2)});
    }
  }
  std::cout << t.to_string()
            << "\nReading: a margin of ~0.5tu absorbs the calibrated"
               " overhead profile and removes most interruptions; beyond"
               " that, events are deferred for headroom that is never"
               " needed.\n";
  return 0;
}
