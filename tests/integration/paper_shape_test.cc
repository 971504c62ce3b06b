// Shape assertions for the paper's evaluation (Tables 2-5).
//
// Absolute values depend on the RNG and the calibrated overheads; these
// tests pin down the *findings* the paper draws from its tables, on reduced
// set sizes so the suite stays fast. The full tables are regenerated by the
// bench binaries.
#include <gtest/gtest.h>

#include "exp/tables.h"

namespace tsf::exp {
namespace {

SetMetrics run(const gen::GeneratorParams& params, Mode mode,
               const ExecOptions& exec_options = {}) {
  WorkUnit unit;
  unit.params = params;
  unit.mode = mode;
  unit.exec_options = exec_options;
  return run_cell(unit).metrics;
}

gen::GeneratorParams reduced(const PaperSet& set, model::ServerPolicy policy) {
  auto p = paper_generator_params(set, policy);
  p.nb_generation = 5;
  return p;
}

class PaperShape : public ::testing::Test {
 protected:
  static SetMetrics sim(model::ServerPolicy policy, const PaperSet& set) {
    return run(reduced(set, policy), Mode::kSimulation);
  }
  static SetMetrics exec(model::ServerPolicy policy, const PaperSet& set) {
    return run(reduced(set, policy), Mode::kExecution,
               paper_execution_options());
  }
};

TEST_F(PaperShape, SimulationsNeverInterrupt) {
  // AIR is structurally zero in every simulation table (Tables 2 and 4).
  for (const auto& set : paper_sets()) {
    EXPECT_DOUBLE_EQ(sim(model::ServerPolicy::kPolling, set).air, 0.0);
    EXPECT_DOUBLE_EQ(sim(model::ServerPolicy::kDeferrable, set).air, 0.0);
  }
}

TEST_F(PaperShape, AartGrowsWithDensityInSimulation) {
  // Table 2/4 columns: (1,*) < (2,*) < (3,*).
  for (auto policy :
       {model::ServerPolicy::kPolling, model::ServerPolicy::kDeferrable}) {
    for (double sd : {0.0, 2.0}) {
      const double a1 = sim(policy, {1, sd}).aart;
      const double a2 = sim(policy, {2, sd}).aart;
      const double a3 = sim(policy, {3, sd}).aart;
      EXPECT_LT(a1, a2) << model::to_string(policy) << " sd=" << sd;
      EXPECT_LT(a2, a3) << model::to_string(policy) << " sd=" << sd;
    }
  }
}

TEST_F(PaperShape, ServedRatioFallsWithDensity) {
  for (auto policy :
       {model::ServerPolicy::kPolling, model::ServerPolicy::kDeferrable}) {
    const double s1 = sim(policy, {1, 0}).asr;
    const double s3 = sim(policy, {3, 0}).asr;
    EXPECT_GT(s1, s3) << model::to_string(policy);
  }
}

TEST_F(PaperShape, DeferrableBeatsPollingOnResponseTime) {
  // §6.3.1: "the average response times are better than the polling ones."
  for (double sd : {0.0, 2.0}) {
    for (double density : {1.0, 2.0, 3.0}) {
      const double ps = sim(model::ServerPolicy::kPolling, {density, sd}).aart;
      const double ds =
          sim(model::ServerPolicy::kDeferrable, {density, sd}).aart;
      EXPECT_LT(ds, ps) << "density=" << density << " sd=" << sd;
    }
  }
}

TEST_F(PaperShape, DeferrableServesAtLeastAsManyAsPolling) {
  // §6.3.1: the DS "has a served ratio more important than the polling".
  for (double density : {1.0, 2.0, 3.0}) {
    const double ps = sim(model::ServerPolicy::kPolling, {density, 0}).asr;
    const double ds = sim(model::ServerPolicy::kDeferrable, {density, 0}).asr;
    EXPECT_GE(ds + 1e-9, ps) << "density=" << density;
  }
}

TEST_F(PaperShape, ExecutionServesFewerThanSimulationForPolling) {
  // §6.2.2: "We have first to comment the average served ratios. They are
  // lesser than the simulation ones. This is due to our not-resumable
  // thread limitation."
  for (double density : {1.0, 2.0, 3.0}) {
    const auto s = sim(model::ServerPolicy::kPolling, {density, 0});
    const auto e = exec(model::ServerPolicy::kPolling, {density, 0});
    EXPECT_LT(e.asr, s.asr + 1e-9) << "density=" << density;
  }
}

TEST_F(PaperShape, ExecutionInterruptsOnlyUnderHeterogeneousCosts) {
  // Table 3: AIR near zero for homogeneous sets (the capacity's slack
  // absorbs the overhead), clearly positive for heterogeneous ones. Run the
  // full ten systems: the contrast needs the paper's sample size.
  const auto opts = paper_execution_options();
  auto run_air = [&](double density, double sd) {
    return run(paper_generator_params({density, sd},
                                      model::ServerPolicy::kPolling),
               Mode::kExecution, opts)
        .air;
  };
  // Density 1: the contrast is sharpest (paper: 0.01 vs 0.17).
  const double hom1 = run_air(1, 0);
  const double het1 = run_air(1, 2);
  EXPECT_LT(hom1, 0.02);
  EXPECT_GT(het1, 0.05);
  // Density 2: heterogeneous still interrupts more.
  EXPECT_GT(run_air(2, 2), run_air(2, 0));
}

TEST_F(PaperShape, HeterogeneousExecutionAartBeatsSimulation) {
  // The paper's counter-intuitive Table 3 finding: served events complete
  // *faster* in the execution because first-fit favours cheap events and
  // the expensive ones drop out (interrupted or never fitting).
  for (double density : {1.0, 2.0, 3.0}) {
    const auto s = sim(model::ServerPolicy::kPolling, {density, 2});
    const auto e = exec(model::ServerPolicy::kPolling, {density, 2});
    EXPECT_LT(e.aart, s.aart) << "density=" << density;
  }
}

TEST_F(PaperShape, DeferrableExecutionServedRatiosTrackSimulation) {
  // §6.3.2: "the served ratios are very close to the simulations ones, that
  // validates our implementations of task servers."
  for (double density : {1.0, 2.0, 3.0}) {
    const auto s = sim(model::ServerPolicy::kDeferrable, {density, 0});
    const auto e = exec(model::ServerPolicy::kDeferrable, {density, 0});
    EXPECT_NEAR(e.asr, s.asr, 0.15) << "density=" << density;
  }
}

TEST_F(PaperShape, TableFormatterProducesSixCells) {
  // Smoke for the bench-facing table renderer on a tiny run.
  auto params = reduced({1, 0}, model::ServerPolicy::kPolling);
  params.nb_generation = 2;
  PaperTable table;
  table.title = "smoke";
  for (auto& cell : table.cells) {
    cell = run(params, Mode::kSimulation);
  }
  const std::string text = format_paper_table(table);
  EXPECT_NE(text.find("AART"), std::string::npos);
  EXPECT_NE(text.find("(1, 0)"), std::string::npos);
  EXPECT_NE(text.find("(3, 2)"), std::string::npos);
}

TEST_F(PaperShape, GenerationIsDeterministicPerCell) {
  WorkUnit unit;
  unit.params = reduced({1, 0}, model::ServerPolicy::kPolling);
  const CellResult once = run_cell(unit);
  const CellResult twice = run_cell(unit);
  EXPECT_EQ(once.spec_digest, twice.spec_digest);
  EXPECT_NE(once.spec_digest, 0u);

  // The digest actually depends on the workload.
  WorkUnit reseeded = unit;
  reseeded.params.seed = 4242;
  EXPECT_NE(run_cell(reseeded).spec_digest, once.spec_digest);
}

}  // namespace
}  // namespace tsf::exp
