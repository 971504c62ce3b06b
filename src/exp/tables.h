// Reproduction driver for the paper's Tables 2-5: six parameter sets
// (taskDensity, stdDeviation) in {1,2,3} x {0,2}, ten systems each,
// seed 1983, ten server periods — under one policy and one mode. Each set
// is one experiment cell (WorkUnit, run_cell); the ablation benches build
// their grids from the same cells.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "exp/exec_runner.h"
#include "exp/metrics.h"
#include "gen/generator.h"
#include "model/spec.h"

namespace tsf::exp {

enum class Mode {
  kSimulation,  // tsf::sim — the theoretical policies
  kExecution,   // tsf::rtsj + tsf::core — the implemented policies
};

const char* to_string(Mode mode);

struct PaperSet {
  double density = 1.0;
  double std_deviation = 0.0;
};

// The paper's six sets, in table order: (1,0) (2,0) (3,0) (1,2) (2,2) (3,2).
std::array<PaperSet, 6> paper_sets();

// GeneratorParams for one set, with the paper's fixed parameters
// (averageCost 3, capacity 4, period 6, nbGeneration 10, seed 1983).
gen::GeneratorParams paper_generator_params(const PaperSet& set,
                                            model::ServerPolicy policy);

// One independent cell of an experiment grid: one parameter set under one
// policy and mode. The paper's tables and the ablation grids are lists of
// cells run one after another with run_cell.
struct WorkUnit {
  gen::GeneratorParams params;
  Mode mode = Mode::kSimulation;
  ExecOptions exec_options;
  // When set, applied to every generated spec before the run (the §7
  // interruption-avoidance margin the ablation sweeps).
  std::optional<common::Duration> admission_margin;
};

struct CellResult {
  SetMetrics metrics;
  // FNV-1a over every generated spec (names, releases, costs, server,
  // tasks): equal digests mean equal workloads.
  std::uint64_t spec_digest = 0;
  // Untimed-vs-timed split: generating the systems vs running them.
  double gen_seconds = 0.0;
  double run_seconds = 0.0;
};

// Deterministic digest of one spec's workload-defining fields.
std::uint64_t digest_spec(const model::SystemSpec& spec);

// Runs one cell: generate (untimed), run, measure.
CellResult run_cell(const WorkUnit& unit);

// Runs all six sets and renders the table in the paper's layout (AART/AIR/
// ASR rows; two banks of three columns).
struct PaperTable {
  std::string title;
  std::array<SetMetrics, 6> cells;
};

// The table's six cells as work units, in paper_sets() order.
std::vector<WorkUnit> paper_table_units(model::ServerPolicy policy, Mode mode,
                                        const ExecOptions& exec_options = {});

// Runs the six cells and assembles the table.
PaperTable run_paper_table(model::ServerPolicy policy, Mode mode,
                           const ExecOptions& exec_options = {});
std::string format_paper_table(const PaperTable& table);

}  // namespace tsf::exp
