// Pins the paper reproduction: the text that `tsf_tables --tables 2,3,4,5`
// prints (Tables 2-5, two decimals) must match the committed golden byte
// for byte. The 2-decimal text, not the JSON, is compared so that last-bit
// floating-point differences between compilers cannot flake the check. On
// mismatch the actual output lands in the test-artifact directory.
#include <stdio.h>
#include <sys/wait.h>

#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "support/artifact_dump.h"

#ifndef TSF_SOURCE_DIR
#error "TSF_SOURCE_DIR must point at the repository root"
#endif
#ifndef TSF_TABLES_EXE
#error "TSF_TABLES_EXE must point at the tsf_tables binary"
#endif

namespace tsf {
namespace {

TEST(PaperTablesGolden, TextOutputMatchesGolden) {
  const std::string command =
      std::string(TSF_TABLES_EXE) + " --tables 2,3,4,5 2>/dev/null";
  FILE* pipe = popen(command.c_str(), "r");
  ASSERT_NE(pipe, nullptr);
  std::string actual;
  char buffer[4096];
  for (std::size_t n; (n = fread(buffer, 1, sizeof buffer, pipe)) > 0;) {
    actual.append(buffer, n);
  }
  const int status = pclose(pipe);
  ASSERT_TRUE(WIFEXITED(status));
  ASSERT_EQ(WEXITSTATUS(status), 0);

  std::ifstream in(std::string(TSF_SOURCE_DIR) +
                   "/tests/integration/golden/paper_tables.txt");
  std::ostringstream golden;
  golden << in.rdbuf();
  ASSERT_FALSE(golden.str().empty()) << "missing golden file";
  EXPECT_EQ(actual, golden.str())
      << "Tables 2-5 drifted from the golden file; actual output dumped to "
      << testing::write_test_artifact("paper_tables_actual.txt", actual)
      << "\nif the change is intentional, regenerate the golden file with:\n"
         "  ./build/tsf_tables --tables 2,3,4,5"
         " > tests/integration/golden/paper_tables.txt";
}

}  // namespace
}  // namespace tsf
