// tsf_run — run a system spec file on the simulator and/or the RTSJ-style
// runtime and print outcomes, metrics and Gantt charts.
//
// Usage:   tsf_run <spec-file> [--mode sim|exec|both]
//                  [--backend lockstep|threads] [--batch N] [--no-gantt]
//                  [--vcd FILE] [--trace FILE] [--metrics-json FILE]
// See examples/specs/ for spec files and src/cli/spec_file.h for the format.
// --mode, --backend and --batch are the [run] keys of the same name and go
// through the same value and cross-key checks. Exits 2 on a bad flag; exits
// 1, with the message on stderr, when the spec does not parse or the flags
// break one of its rules, when a requested output file cannot be written,
// or when the run fails.
#include <exception>
#include <iostream>
#include <string>

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
    const std::string flag = argv[i];
    if ((flag == "--mode" || flag == "--backend" || flag == "--batch") &&
        i + 1 < argc) {
      // The spec key of the same name, with the parser's value checks.
      const auto errors =
          tsf::cli::set_run_key(&outcome.config, flag.substr(2), argv[++i]);
      if (!errors.empty()) {
        std::cerr << "error: " << flag << ": " << errors.front() << '\n';
        return 2;
      }
    } else if (flag == "--no-gantt") {
      outcome.config.gantt = false;
    } else if (flag == "--vcd" && i + 1 < argc) {
      outcome.config.vcd_path = argv[++i];
    } else if (flag == "--trace" && i + 1 < argc) {
      outcome.config.trace_path = argv[++i];
    } else if (flag == "--metrics-json" && i + 1 < argc) {
      outcome.config.metrics_json_path = argv[++i];
    } else {
      std::cerr << "unknown argument '" << flag << "'\n";
      return 2;
    }
  }
  // The flags may have broken a cross-key rule the spec file alone kept.
  if (outcome.ok()) outcome.errors = tsf::cli::validate(outcome.config);
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
