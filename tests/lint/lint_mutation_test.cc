// Mutation suite for tsf_lint: every rule the analyzer claims to enforce is
// proven non-vacuous against a seeded-violation fixture, and proven
// non-paranoid against that fixture's legal twin. The suite drives the real
// binary (TSF_LINT_EXE, injected by CMake) over tests/lint/fixtures/ and
// asserts on the tsf-lint/1 JSON report — the same artifact CI uploads —
// so a rule that silently stops firing, or starts firing on clean code,
// fails here by name.
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <sys/wait.h>
#include <vector>

#include <gtest/gtest.h>

#include "common/json_reader.h"

namespace {

using tsf::common::JsonValue;
using tsf::common::json_parse;

std::string fixture(const std::string& name) {
  return std::string(TSF_SOURCE_DIR) + "/tests/lint/fixtures/" + name;
}

struct LintRun {
  int exit_code = -1;
  JsonValue report;
};

// Runs the binary over the named fixtures, returning the exit code and the
// parsed --report document. The report lands in the test's working
// directory (the build tree) under a per-invocation name.
LintRun run_lint(const std::vector<std::string>& fixtures,
                 const std::string& allowlist = "") {
  static int counter = 0;
  const std::string report_path =
      "tsf_lint_mutation_report_" + std::to_string(counter++) + ".json";
  std::string cmd = std::string(TSF_LINT_EXE);
  for (const std::string& f : fixtures) cmd += " " + fixture(f);
  if (!allowlist.empty()) cmd += " --allowlist " + fixture(allowlist);
  cmd += " --report " + report_path + " >/dev/null 2>&1";

  LintRun run;
  const int status = std::system(cmd.c_str());
  run.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;

  std::ifstream in(report_path);
  EXPECT_TRUE(in.good()) << "no report at " << report_path;
  std::stringstream buffer;
  buffer << in.rdbuf();
  std::string error;
  EXPECT_TRUE(json_parse(buffer.str(), &run.report, &error)) << error;
  std::remove(report_path.c_str());
  return run;
}

// The distinct rule names present in a report's findings.
std::set<std::string> rules_of(const LintRun& run) {
  std::set<std::string> rules;
  const JsonValue* findings = run.report.find("findings");
  if (findings == nullptr || !findings->is_array()) return rules;
  for (const JsonValue& f : findings->as_array()) {
    const JsonValue* rule = f.find("rule");
    if (rule != nullptr) rules.insert(rule->as_string());
  }
  return rules;
}

std::size_t finding_count(const LintRun& run) {
  const JsonValue* findings = run.report.find("findings");
  return findings != nullptr && findings->is_array()
             ? findings->as_array().size()
             : 0;
}

// Asserts the bad fixture yields exactly `expected` rule names (exit 1) and
// its legal twin yields nothing (exit 0).
void expect_twin(const std::string& bad, const std::string& good,
                 const std::set<std::string>& expected) {
  const LintRun bad_run = run_lint({bad});
  EXPECT_EQ(bad_run.exit_code, 1) << bad;
  EXPECT_EQ(rules_of(bad_run), expected) << bad;

  const LintRun good_run = run_lint({good});
  EXPECT_EQ(good_run.exit_code, 0) << good;
  EXPECT_EQ(finding_count(good_run), 0u) << good;
}

TEST(LintMutation, RtAllocFiresByName) {
  expect_twin("bad_rt_alloc.cc", "good_rt_alloc.cc", {"rt-alloc"});
}

TEST(LintMutation, RtAllocSeesTemplateCallInDirectCallee) {
  // make_unique<Entry>() sits in an unannotated callee one hop below the
  // TSF_REALTIME entry point, and the call site has `<` where a naive
  // call check expects `(` — both halves of the detection must hold.
  const LintRun run = run_lint({"bad_rt_alloc_callee.cc"});
  EXPECT_EQ(run.exit_code, 1);
  EXPECT_EQ(rules_of(run), std::set<std::string>{"rt-alloc"});
  const JsonValue* findings = run.report.find("findings");
  ASSERT_NE(findings, nullptr);
  ASSERT_EQ(findings->as_array().size(), 1u);
  const JsonValue& f = findings->as_array()[0];
  // The contract being violated is the annotated caller's.
  EXPECT_EQ(f.find("function")->as_string(), "Pool::schedule");
  EXPECT_NE(f.find("message")->as_string().find("grow"), std::string::npos);
}

TEST(LintMutation, RtBlockFiresByName) {
  expect_twin("bad_rt_block.cc", "good_rt_block.cc", {"rt-block"});
}

TEST(LintMutation, RtIoFiresByName) {
  expect_twin("bad_rt_io.cc", "good_rt_io.cc", {"rt-io"});
}

TEST(LintMutation, RtThrowFiresByName) {
  expect_twin("bad_rt_throw.cc", "good_rt_throw.cc", {"rt-throw"});
}

TEST(LintMutation, DetRandomFiresByName) {
  expect_twin("bad_det_random.cc", "good_det_random.cc", {"det-random"});
}

TEST(LintMutation, DetClockFiresByName) {
  expect_twin("bad_det_clock.cc", "good_det_clock.cc", {"det-clock"});
}

TEST(LintMutation, DetUnorderedIterFiresByName) {
  expect_twin("bad_det_unordered_iter.cc", "good_det_unordered_iter.cc",
              {"det-unordered-iter"});
}

TEST(LintMutation, PhaseOrderConvictsSeededEdgeThroughMemberChain) {
  // The seeded edge is runtime->fabric_.post_fire — a two-hop member chain
  // in the shape of mp/multi_vm.cc, so this also locks in the
  // receiver-aware call resolution.
  const LintRun run = run_lint({"bad_phase_order.cc"});
  EXPECT_EQ(run.exit_code, 1);
  EXPECT_EQ(rules_of(run), std::set<std::string>{"phase-order"});
  const JsonValue* findings = run.report.find("findings");
  ASSERT_NE(findings, nullptr);
  ASSERT_EQ(findings->as_array().size(), 1u);
  const JsonValue& f = findings->as_array()[0];
  EXPECT_EQ(f.find("function")->as_string(), "FakePort::fire_remote");
  EXPECT_NE(f.find("message")->as_string().find("FakeFabric::post_fire"),
            std::string::npos);
}

TEST(LintMutation, PhaseOrderStagedTwinIsClean) {
  // The StagedPort discipline: worker-phase push, barrier-only pop + post.
  const LintRun run = run_lint({"good_phase_order.cc"});
  EXPECT_EQ(run.exit_code, 0) << "staged twin must lint clean";
  EXPECT_EQ(finding_count(run), 0u);
}

TEST(LintMutation, PhaseOrderAllowlistWaivesExactlyTheSeededEdge) {
  const LintRun run =
      run_lint({"bad_phase_order.cc"}, "phase_order.allow");
  EXPECT_EQ(run.exit_code, 0)
      << "the reviewed allowlist entry must silence the seeded edge";
  EXPECT_EQ(finding_count(run), 0u);
}

TEST(LintMutation, AllowStaleFiresByName) {
  // An allowlist edge that waives no path is itself a finding, reported at
  // its own line of the allowlist; the twin's edge waives the seeded edge.
  const LintRun bad =
      run_lint({"bad_phase_order.cc"}, "bad_allow_stale.allow");
  EXPECT_EQ(bad.exit_code, 1);
  EXPECT_EQ(rules_of(bad), std::set<std::string>{"allow-stale"});
  const JsonValue* findings = bad.report.find("findings");
  ASSERT_NE(findings, nullptr);
  ASSERT_EQ(findings->as_array().size(), 1u);
  const JsonValue& f = findings->as_array()[0];
  EXPECT_NE(f.find("file")->as_string().find("bad_allow_stale.allow"),
            std::string::npos);
  EXPECT_EQ(f.find("line")->as_number(), 5.0);
  EXPECT_NE(f.find("message")->as_string().find("GonePort::fire_remote"),
            std::string::npos);

  const LintRun good =
      run_lint({"bad_phase_order.cc"}, "good_allow_stale.allow");
  EXPECT_EQ(good.exit_code, 0);
  EXPECT_EQ(finding_count(good), 0u);
}

TEST(LintMutation, SuppressionMisuseIsItselfAFinding) {
  // A misspelled rule and a justification-free allow each fire by name,
  // and neither silences the underlying violation.
  const LintRun run = run_lint({"bad_suppression.cc"});
  EXPECT_EQ(run.exit_code, 1);
  const std::set<std::string> expected = {
      "allow-unknown-rule", "allow-missing-justification", "rt-alloc"};
  EXPECT_EQ(rules_of(run), expected);
}

TEST(LintMutation, JustifiedSuppressionSilencesAndIsRecordedUsed) {
  const LintRun run = run_lint({"good_suppression.cc"});
  EXPECT_EQ(run.exit_code, 0);
  EXPECT_EQ(finding_count(run), 0u);

  const JsonValue* suppressions = run.report.find("suppressions");
  ASSERT_NE(suppressions, nullptr);
  ASSERT_TRUE(suppressions->is_array());
  ASSERT_EQ(suppressions->as_array().size(), 1u);
  const JsonValue& s = suppressions->as_array()[0];
  EXPECT_EQ(s.find("rule")->as_string(), "rt-alloc");
  EXPECT_TRUE(s.find("used")->as_bool());
  EXPECT_FALSE(s.find("justification")->as_string().empty());
}

TEST(LintMutation, ReportSchemaAndCountsAreCoherent) {
  // One combined run over the whole corpus: the report's schema tag and
  // file/function tallies must match what was analyzed, and the finding
  // rule set must be the union of the per-fixture seeds.
  const std::vector<std::string> corpus = {
      "bad_rt_alloc.cc",      "bad_rt_alloc_callee.cc",
      "bad_rt_block.cc",      "bad_rt_io.cc",
      "bad_rt_throw.cc",      "bad_det_random.cc",
      "bad_det_clock.cc",     "bad_det_unordered_iter.cc",
      "bad_phase_order.cc",   "bad_suppression.cc",
  };
  const LintRun run = run_lint(corpus);
  EXPECT_EQ(run.exit_code, 1);
  EXPECT_EQ(run.report.find("schema")->as_string(), "tsf-lint/1");
  EXPECT_EQ(run.report.find("files")->as_number(),
            static_cast<double>(corpus.size()));
  EXPECT_GT(run.report.find("functions")->as_number(), 0.0);
  EXPECT_GT(run.report.find("annotated")->as_number(), 0.0);
  const std::set<std::string> expected = {
      "rt-alloc",      "rt-block",
      "rt-io",         "rt-throw",
      "det-random",    "det-clock",
      "det-unordered-iter", "phase-order",
      "allow-unknown-rule", "allow-missing-justification"};
  EXPECT_EQ(rules_of(run), expected);
}

}  // namespace
