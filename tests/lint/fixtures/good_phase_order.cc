// Legal twin of bad_phase_order.cc: the worker-phase port stages the fire
// into an MPSC queue (itself worker-phase on the push side); only the
// barrier-only boundary hook pops the stage and posts into the fabric —
// exactly the StagedPort discipline of mp/multi_vm.cc.
// Expected findings: none.
#include <cstddef>
#include <string>

#include "common/annotations.h"

namespace fixture {

struct StagedQueue {
  TSF_WORKER_PHASE
  void push(const std::string& job) { depth_ += job.size(); }
  TSF_BARRIER_ONLY
  bool pop(std::string* job) {
    job->clear();
    return depth_-- > 0;
  }
  std::size_t depth_ = 0;
};

struct FakeFabric {
  TSF_BARRIER_ONLY
  void post_fire(const std::string& job) { jobs_ += job.size(); }
  std::size_t jobs_ = 0;
};

struct FakeRuntime {
  StagedQueue staged_;
  FakeFabric fabric_;

  TSF_BARRIER_ONLY
  void on_boundary() {
    std::string job;
    while (staged_.pop(&job)) fabric_.post_fire(job);
  }
};

struct FakePort {
  FakeRuntime* runtime = nullptr;

  TSF_WORKER_PHASE
  void fire_remote(const std::string& job) {
    runtime->staged_.push(job);
  }
};

}  // namespace fixture
