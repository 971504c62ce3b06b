// tsf_run — run a system spec file on the simulator and/or the RTSJ-style
// runtime and print outcomes, metrics and Gantt charts.
//
// Usage:   tsf_run <spec-file> [--mode sim|exec|both]
//                  [--backend lockstep|threads] [--batch N] [--no-gantt]
//                  [--vcd FILE] [--trace FILE] [--metrics-json FILE]
// See examples/specs/ for spec files and src/cli/spec_file.h for the format.
// Exits 1, with the message on stderr, when the spec does not parse, when a
// requested output file cannot be written, or when the run fails.
#include <cstdlib>
#include <cstring>
#include <exception>
#include <iostream>

#include "cli/report.h"
#include "cli/spec_file.h"

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: tsf_run <spec-file> [--mode sim|exec|both]"
                 " [--backend lockstep|threads] [--batch <n>] [--no-gantt]"
                 " [--vcd <file>] [--trace <file>] [--metrics-json <file>]\n";
    return 2;
  }
  auto outcome = tsf::cli::load_spec_file(argv[1]);
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--mode") == 0 && i + 1 < argc) {
      const std::string mode = argv[++i];
      if (mode == "sim") {
        outcome.config.mode = tsf::cli::RunMode::kSim;
      } else if (mode == "exec") {
        outcome.config.mode = tsf::cli::RunMode::kExec;
      } else if (mode == "both") {
        outcome.config.mode = tsf::cli::RunMode::kBoth;
      } else {
        std::cerr << "unknown --mode '" << mode << "'\n";
        return 2;
      }
    } else if (std::strcmp(argv[i], "--backend") == 0 && i + 1 < argc) {
      const auto backend = tsf::mp::parse_exec_backend(argv[++i]);
      if (!backend.has_value()) {
        std::cerr << "unknown --backend '" << argv[i] << "'\n";
        return 2;
      }
      outcome.config.backend = *backend;
    } else if (std::strcmp(argv[i], "--batch") == 0 && i + 1 < argc) {
      const int batch = std::atoi(argv[++i]);
      if (batch < 1) {
        std::cerr << "--batch needs a positive count, got '" << argv[i]
                  << "'\n";
        return 2;
      }
      outcome.config.exec_options.batch = batch;
    } else if (std::strcmp(argv[i], "--no-gantt") == 0) {
      outcome.config.gantt = false;
    } else if (std::strcmp(argv[i], "--vcd") == 0 && i + 1 < argc) {
      outcome.config.vcd_path = argv[++i];
    } else if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      outcome.config.trace_path = argv[++i];
    } else if (std::strcmp(argv[i], "--metrics-json") == 0 && i + 1 < argc) {
      outcome.config.metrics_json_path = argv[++i];
    } else {
      std::cerr << "unknown argument '" << argv[i] << "'\n";
      return 2;
    }
  }
  if (!outcome.ok()) {
    for (const auto& error : outcome.errors) {
      std::cerr << "error: " << error << '\n';
    }
    return 1;
  }
  try {
    std::cout << tsf::cli::run_and_report(outcome.config);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
  return 0;
}
