// Reproduces Table 4: "Measures on Deferrable Server simulations".
#include "paper_table_main.h"

int main() {
  tsf::bench::PaperReference ref;
  ref.label = "Table 4 — Deferrable Server, simulation";
  ref.aart = {5.30, 13.44, 19.83, 6.36, 17.40, 21.71};
  ref.air = {0.00, 0.00, 0.00, 0.00, 0.00, 0.00};
  ref.asr = {0.94, 0.67, 0.46, 0.94, 0.56, 0.38};
  return tsf::bench::run_paper_table_bench(
      tsf::model::ServerPolicy::kDeferrable, tsf::exp::Mode::kSimulation,
      ref);
}
