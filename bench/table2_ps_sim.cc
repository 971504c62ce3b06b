// Reproduces Table 2: "Measures on Polling Server simulations".
#include "paper_table_main.h"

int main() {
  tsf::bench::PaperReference ref;
  ref.label = "Table 2 — Polling Server, simulation";
  ref.aart = {8.86, 17.52, 23.76, 10.24, 20.58, 25.50};
  ref.air = {0.00, 0.00, 0.00, 0.00, 0.00, 0.00};
  ref.asr = {0.89, 0.63, 0.43, 0.85, 0.50, 0.35};
  return tsf::bench::run_paper_table_bench(
      tsf::model::ServerPolicy::kPolling, tsf::exp::Mode::kSimulation,
      ref);
}
