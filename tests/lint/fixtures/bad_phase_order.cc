// Seeded phase-order violation in the shape of mp/multi_vm.cc: the
// worker-phase completion port posts straight into the fabric instead of
// staging the fire for the barrier. The call is a two-hop member chain
// (runtime->fabric_.post_fire), so convicting it requires the analyzer to
// resolve receivers through member types, not just simple names.
// Expected findings: phase-order, rooted at FakePort::fire_remote.
#include <cstddef>
#include <string>

#include "common/annotations.h"

namespace fixture {

struct FakeFabric {
  TSF_BARRIER_ONLY
  void post_fire(const std::string& job) { jobs_ += job.size(); }
  TSF_BARRIER_ONLY
  std::size_t drain() { return jobs_; }
  std::size_t jobs_ = 0;
};

struct FakeRuntime {
  FakeFabric fabric_;
  TSF_BARRIER_ONLY
  void on_boundary() { fabric_.drain(); }
};

struct FakePort {
  FakeRuntime* runtime = nullptr;

  // BAD: worker-phase completion must stage, never post into the fabric
  // mid-epoch.
  TSF_WORKER_PHASE
  void fire_remote(const std::string& job) {
    runtime->fabric_.post_fire(job);
  }
};

}  // namespace fixture
