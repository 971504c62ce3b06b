#include "exp/bench_cli.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace tsf::exp {

bool BenchCli::consume(int argc, char** argv, int* i) {
  const char* arg = argv[*i];
  const auto value = [&](const char* flag) -> const char* {
    if (*i + 1 >= argc) {
      error_ = std::string(flag) + " needs a value";
      return nullptr;
    }
    return argv[++*i];
  };
  const auto count = [&](const char* flag, long min, long max,
                         int* dst) -> bool {
    const char* v = value(flag);
    if (v == nullptr) return false;
    char* end = nullptr;
    const long n = std::strtol(v, &end, 10);
    if (end == nullptr || *end != '\0' || n < min || n > max) {
      error_ = std::string("bad ") + flag + " value '" + v + "'";
      return false;
    }
    *dst = static_cast<int>(n);
    return true;
  };

  if ((flags_ & kJson) != 0 && std::strcmp(arg, "--json") == 0) {
    const char* v = value("--json");
    if (v == nullptr) return false;
    json_path = v;
    return true;
  }
  if ((flags_ & kBatch) != 0 && std::strcmp(arg, "--batch") == 0) {
    return count("--batch", 1, 1 << 20, &batch);
  }
  error_ = std::string("unknown argument '") + arg + "'";
  return false;
}

int BenchCli::fail(const char* prog, const char* extra_usage) const {
  if (!error_.empty()) std::fprintf(stderr, "%s\n", error_.c_str());
  std::string usage = std::string("usage: ") + prog;
  if ((flags_ & kJson) != 0) usage += " [--json FILE]";
  if ((flags_ & kBatch) != 0) usage += " [--batch N]";
  usage += extra_usage;
  std::fprintf(stderr, "%s\n", usage.c_str());
  return 2;
}

}  // namespace tsf::exp
