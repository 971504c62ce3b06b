// Reproduces Table 3: "Measures on Polling Server executions".
#include "paper_table_main.h"

int main() {
  tsf::bench::PaperReference ref;
  ref.label = "Table 3 — Polling Server, execution";
  ref.aart = {12.24, 20.80, 25.05, 6.55, 7.15, 12.54};
  ref.air = {0.01, 0.01, 0.00, 0.17, 0.24, 0.29};
  ref.asr = {0.75, 0.44, 0.30, 0.48, 0.34, 0.30};
  return tsf::bench::run_paper_table_bench(
      tsf::model::ServerPolicy::kPolling, tsf::exp::Mode::kExecution,
      ref);
}
