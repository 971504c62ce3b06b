// Shared flag vocabulary of the bench/tool mains.
//
// Every bench used to hand-roll the same argv loops: --json FILE
// (tsf-bench/1 emission for the CI regression gate) and --batch N
// (dispatch batching on the exec engines). Each main declares which groups
// it understands; consume() recognizes exactly those, and the usage/error
// reporting is one code path for every bench instead of a copy per main.
//
// Usage:
//     exp::BenchCli cli(exp::BenchCli::kJson);
//     for (int i = 1; i < argc; ++i) {
//       if (!cli.consume(argc, argv, &i)) return cli.fail("bench_foo");
//     }
//
// A main with flags of its own checks them first and delegates the rest
// (the way tools/tsf_tables.cc does).
#pragma once

#include <string>

namespace tsf::exp {

class BenchCli {
 public:
  enum Flags : unsigned {
    kJson = 1u << 0,   // --json FILE
    kBatch = 1u << 1,  // --batch N
  };

  explicit BenchCli(unsigned flags) : flags_(flags) {}

  // Tries to consume argv[*i] as one of the enabled shared flags,
  // advancing *i past the flag's value. False on an unknown flag or a
  // malformed value — the caller reports it through fail() and exits.
  bool consume(int argc, char** argv, int* i);

  // Prints the error (if any) and the usage line to stderr, and returns
  // the conventional exit code 2 so mains can `return cli.fail(...)`.
  // `extra_usage` appends bench-specific flags to the usage line.
  int fail(const char* prog, const char* extra_usage = "") const;

  std::string json_path;
  int batch = 1;

 private:
  unsigned flags_;
  std::string error_;
};

}  // namespace tsf::exp
