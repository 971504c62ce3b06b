// Reproduces Table 5: "Measures on Deferrable Server executions".
#include "paper_table_main.h"

int main() {
  tsf::bench::PaperReference ref;
  ref.label = "Table 5 — Deferrable Server, execution";
  ref.aart = {6.90, 14.55, 20.58, 8.02, 13.47, 16.91};
  ref.air = {0.00, 0.00, 0.00, 0.14, 0.26, 0.27};
  ref.asr = {0.84, 0.56, 0.39, 0.66, 0.43, 0.30};
  return tsf::bench::run_paper_table_bench(
      tsf::model::ServerPolicy::kDeferrable, tsf::exp::Mode::kExecution,
      ref);
}
