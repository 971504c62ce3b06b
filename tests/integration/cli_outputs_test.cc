// The output files of `tsf_run` (--trace, --vcd, --metrics-json): every
// requested file is written in every mode on one core and on many, and a
// file that cannot be written fails the run with exit status 1 and the
// message on stderr instead of a silent exit 0. The --mode, --backend and
// --batch flags go through the spec parser's checks: a request the same
// spec key would be refused for fails the run instead of being ignored.
#include <stdlib.h>
#include <sys/wait.h>

#include <fstream>
#include <sstream>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "cli/report.h"
#include "cli/spec_file.h"
#include "common/trace.h"
#include "common/trace_io.h"

#ifndef TSF_SOURCE_DIR
#error "TSF_SOURCE_DIR must point at the repository root"
#endif
#ifndef TSF_RUN_EXE
#error "TSF_RUN_EXE must point at the tsf_run binary"
#endif

namespace tsf::cli {
namespace {

std::string make_temp_dir() {
  std::string pattern = ::testing::TempDir() + "tsf_cli_outputs_XXXXXX";
  const char* dir = mkdtemp(pattern.data());
  EXPECT_NE(dir, nullptr);
  return pattern;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream content;
  content << in.rdbuf();
  return content.str();
}

// mp_quad.tsf with its `cores` line replaced; written into `dir`.
std::string quad_spec_with_cores(const std::string& dir, int cores) {
  std::string text =
      slurp(std::string(TSF_SOURCE_DIR) + "/examples/specs/mp_quad.tsf");
  const std::string key = "cores = 4";
  const auto at = text.find(key);
  EXPECT_NE(at, std::string::npos);
  text.replace(at, key.size(), "cores = " + std::to_string(cores));
  const std::string path = dir + "/quad" + std::to_string(cores) + ".tsf";
  std::ofstream(path) << text;
  return path;
}

std::string trace_fingerprint_line(const std::string& report) {
  const auto at = report.find("trace fingerprint: ");
  if (at == std::string::npos) return "";
  return report.substr(at, report.find('\n', at) - at);
}

TEST(CliOutputs, EveryModeWritesEveryRequestedFile) {
  const std::string dir = make_temp_dir();
  for (const int cores : {1, 4}) {
    std::string exec_trace;
    for (const auto& [mode, name] :
         {std::pair{RunMode::kSim, "sim"}, std::pair{RunMode::kExec, "exec"},
          std::pair{RunMode::kBoth, "both"}}) {
      SCOPED_TRACE(std::to_string(cores) + " cores, mode " + name);
      auto outcome = load_spec_file(quad_spec_with_cores(dir, cores));
      ASSERT_TRUE(outcome.ok()) << outcome.errors.front();
      const std::string stem =
          dir + "/" + std::to_string(cores) + "_" + name;
      outcome.config.mode = mode;
      outcome.config.trace_path = stem + ".bin";
      outcome.config.vcd_path = stem + ".vcd";
      outcome.config.metrics_json_path = stem + ".json";
      const std::string report = run_and_report(outcome.config);

      const std::string trace = slurp(stem + ".bin");
      std::istringstream in(trace);
      common::Timeline replayed;
      std::string error;
      ASSERT_TRUE(common::read_trace(in, &replayed, &error)) << error;
      EXPECT_FALSE(replayed.records().empty());
      EXPECT_EQ(slurp(stem + ".vcd").rfind("$timescale", 0), 0u);
      const std::string metrics = slurp(stem + ".json");
      EXPECT_NE(metrics.find("tsf-metrics/1"), std::string::npos);
      EXPECT_NE(metrics.find("trace.records"), std::string::npos);

      if (mode == RunMode::kExec) exec_trace = trace;
      if (mode == RunMode::kBoth) EXPECT_EQ(trace, exec_trace);
      if (cores > 1 && mode != RunMode::kSim) {
        std::ostringstream expected;
        expected << "trace fingerprint: " << std::hex
                 << common::fingerprint(replayed);
        EXPECT_EQ(trace_fingerprint_line(report), expected.str());
      }
    }
    // --mode both writes the exec run; a sim-only run its own timeline.
    EXPECT_NE(slurp(dir + "/" + std::to_string(cores) + "_sim.bin"),
              exec_trace);
  }
}

TEST(CliOutputs, UnwritableOutputFileExitsOne) {
  const std::string dir = make_temp_dir();
  // A path below a regular file cannot be created, whoever runs the test.
  const std::string blocker = dir + "/not_a_dir";
  std::ofstream(blocker) << "x";
  for (const int cores : {1, 4}) {
    const std::string spec = quad_spec_with_cores(dir, cores);
    for (const char* flag : {"--trace", "--vcd", "--metrics-json"}) {
      SCOPED_TRACE(std::to_string(cores) + " cores, " + flag);
      const std::string out = dir + "/stdout.txt";
      const std::string err = dir + "/stderr.txt";
      const std::string command = std::string(TSF_RUN_EXE) + " " + spec +
                                  " " + flag + " " + blocker + "/x > " +
                                  out + " 2> " + err;
      const int status = std::system(command.c_str());
      ASSERT_TRUE(WIFEXITED(status));
      EXPECT_EQ(WEXITSTATUS(status), 1);
      EXPECT_EQ(slurp(err), "error: cannot write " + blocker + "/x\n");
      EXPECT_EQ(slurp(out), "");
    }
  }
}

// Runs `tsf_run <args>`, returns its exit status and stderr.
std::pair<int, std::string> run_tsf_run(const std::string& dir,
                                        const std::string& args) {
  const std::string out = dir + "/stdout.txt";
  const std::string err = dir + "/stderr.txt";
  const std::string command =
      std::string(TSF_RUN_EXE) + " " + args + " > " + out + " 2> " + err;
  const int status = std::system(command.c_str());
  EXPECT_TRUE(WIFEXITED(status));
  return {WEXITSTATUS(status), slurp(err)};
}

TEST(CliOutputs, FlagsBreakingASpecRuleAreRefused) {
  const std::string dir = make_temp_dir();
  const std::string quad = quad_spec_with_cores(dir, 4);
  const std::string storm =
      std::string(TSF_SOURCE_DIR) + "/examples/specs/mp_storm_router.tsf";
  const struct {
    std::string args;
    std::string message;
  } cases[] = {
      {quad_spec_with_cores(dir, 1) + " --backend threads",
       "error: backend = threads needs a multi-core run (cores > 1)\n"},
      {storm + " --mode sim",
       "error: overload policies apply to the execution engine (mode = "
       "exec|both)\n"},
      {quad + " --mode sim --batch 4",
       "error: batch applies to the execution engine (mode = exec|both)\n"},
      {quad + " --mode sim --backend threads",
       "error: backend = threads applies to the execution engine (mode = "
       "exec|both)\n"},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.args);
    const auto [status, err] = run_tsf_run(dir, c.args);
    EXPECT_EQ(status, 1);
    EXPECT_EQ(err, c.message);
  }
  // Each request is fine where the rule holds.
  for (const std::string& args :
       {quad + " --backend threads", storm + " --mode exec",
        quad + " --mode exec --batch 4"}) {
    SCOPED_TRACE(args);
    EXPECT_EQ(run_tsf_run(dir, args + " --no-gantt").first, 0);
  }
}

TEST(CliOutputs, FlagValuesUseTheSpecKeyChecks) {
  const std::string dir = make_temp_dir();
  const std::string quad = quad_spec_with_cores(dir, 4);
  const struct {
    std::string flags;
    std::string message;
  } cases[] = {
      {"--batch 4x", "error: --batch: expected a number, got '4x'\n"},
      {"--batch 0",
       "error: --batch: batch must be at least 1 (1 = per-event dispatch)\n"},
      {"--batch 2.5", "error: --batch: expected an integer, got '2.5'\n"},
      {"--mode fast",
       "error: --mode: unknown mode 'fast' (sim|exec|both)\n"},
      {"--backend gpu",
       "error: --backend: unknown backend 'gpu' (lockstep|threads)\n"},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.flags);
    const auto [status, err] = run_tsf_run(dir, quad + " " + c.flags);
    EXPECT_EQ(status, 2);
    EXPECT_EQ(err, c.message);
  }
}

}  // namespace
}  // namespace tsf::cli
