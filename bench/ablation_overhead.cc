// Ablation: kernel overhead sweep.
//
// §6.2.2/§7 attribute the interrupted-aperiodics ratio to overhead eating
// the Timed budget (timers run above the server; capacity accounting is
// wall-clock). Sweeping the timer-fire cost makes the mechanism visible:
// AIR climbs and ASR decays as overhead grows; homogeneous sets absorb the
// first ~1tu of interference in the capacity's slack. A thin
// cell-enumerator over exp::run_cell.
#include <cstdio>
#include <iostream>

#include "common/table.h"
#include "exp/tables.h"

int main() {
  using namespace tsf;
  std::cout << "=== Ablation: timer-fire overhead sweep (PS executions) ===\n"
            << "(jitter fixed at the calibrated 15%)\n\n";

  common::TextTable t;
  t.add_row({"timer_fire", "set", "AART", "AIR", "ASR"});
  for (const int ticks : {0, 100, 250, 500, 1000}) {
    for (const auto& set : {exp::PaperSet{2, 0}, exp::PaperSet{2, 2}}) {
      exp::WorkUnit unit;
      char key[64], oh[64];
      std::snprintf(key, sizeof key, "(%g,%g)", set.density,
                    set.std_deviation);
      std::snprintf(oh, sizeof oh, "%.2ftu", ticks / 1000.0);
      unit.params =
          exp::paper_generator_params(set, model::ServerPolicy::kPolling);
      unit.mode = exp::Mode::kExecution;
      unit.exec_options = exp::paper_execution_options();
      unit.exec_options.kernel.timer_fire = common::Duration::ticks(ticks);
      const exp::SetMetrics m = exp::run_cell(unit).metrics;
      t.add_row({oh, key, common::fmt_fixed(m.aart, 2),
                 common::fmt_fixed(m.air, 2), common::fmt_fixed(m.asr, 2)});
    }
  }
  std::cout << t.to_string() << '\n';
  return 0;
}
