// Run + report rendering for the tsf_run tool (kept in the library so the
// output format is testable).
#pragma once

#include <string>

#include "cli/spec_file.h"

namespace tsf::cli {

// Runs the configured system on the requested engine(s) and renders a full
// report: per-job outcomes, AART/AIR/ASR, optional Gantt charts. Writes the
// requested --vcd / --trace / --metrics-json files from the exec run, or
// from the simulation in a sim-only run. Throws std::runtime_error, before
// running anything, when one of those files cannot be opened (and after
// the run when writing one fails).
std::string run_and_report(const CliConfig& config);

}  // namespace tsf::cli
