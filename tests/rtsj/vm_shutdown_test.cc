// Teardown regression suite for the VM's fiber shutdown: a VirtualMachine
// must destroy cleanly whatever state the run left its fibers in — started
// but never run, parked mid-work, frozen at a horizon, or stranded by a run
// that aborted mid-horizon with an exception. The destructor resumes each
// unfinished fiber once, on the destroying thread; the fiber unwinds its
// stack (FiberShutdown) and switches straight back.
#include <gtest/gtest.h>

#include <stdexcept>
#include <thread>

#include "common/time.h"
#include "rtsj/vm/vm.h"

namespace tsf::rtsj::vm {
namespace {

using common::Duration;
using common::TimePoint;

Duration tu(std::int64_t n) { return Duration::time_units(n); }
TimePoint at_tu(std::int64_t n) {
  return TimePoint::origin() + Duration::time_units(n);
}

TEST(VmShutdown, UnRunFibersDestroyCleanly) {
  // Fibers started (stacks mapped, ready for their first grant) but the
  // driver never runs: destruction must release every one without running
  // its body.
  VirtualMachine vm;
  bool ran = false;
  for (int i = 0; i < 8; ++i) {
    auto* fiber = vm.create_fiber("f" + std::to_string(i), 10 + i,
                                  [&vm, &ran] {
                                    ran = true;
                                    vm.work(tu(5));
                                  });
    vm.start_fiber(fiber);
  }
  // Destructor runs here. The bodies must never have executed.
  EXPECT_FALSE(ran);
}

TEST(VmShutdown, NeverStartedFibersDestroyCleanly) {
  // Created but never started: no stack exists, nothing to resume.
  VirtualMachine vm;
  vm.create_fiber("idle", 5, [&vm] { vm.work(tu(1)); });
  vm.create_fiber("idle2", 6, [&vm] { vm.work(tu(1)); });
}

TEST(VmShutdown, MixOfFinishedParkedAndUnrunFibers) {
  VirtualMachine vm;
  auto* done = vm.create_fiber("done", 20, [&vm] { vm.work(tu(1)); });
  auto* parked = vm.create_fiber("parked", 10, [&vm] { vm.work(tu(100)); });
  vm.start_fiber(done);
  vm.start_fiber(parked);
  vm.run_until(at_tu(2));  // "done" finishes; "parked" freezes mid-work
  auto* unrun = vm.create_fiber("unrun", 1, [&vm] { vm.work(tu(1)); });
  vm.start_fiber(unrun);
  EXPECT_TRUE(done->finished());
  EXPECT_FALSE(parked->finished());
  EXPECT_FALSE(unrun->finished());
  // Destructor: one finished (nothing to resume), one frozen mid-work
  // (resumed to unwind), one ready-but-never-granted (resumed, body
  // skipped).
}

TEST(VmShutdown, AbortMidHorizonThenDestroyWithUnrunFibers) {
  // A run aborts mid-horizon: the erroring fiber's exception surfaces from
  // run_until while lower-priority fibers have not run at all and a
  // same-priority one is parked waiting. Destruction right after the abort
  // must still release every survivor.
  auto vm = std::make_unique<VirtualMachine>();
  auto* boom = vm->create_fiber("boom", 30, [&] {
    vm->work(tu(2));
    throw std::runtime_error("handler failed");
  });
  auto* waiting = vm->create_fiber("waiting", 20, [&] { vm->work(tu(50)); });
  auto* starved = vm->create_fiber("starved", 1, [&] { vm->work(tu(50)); });
  vm->start_fiber(boom);
  vm->start_fiber(waiting);
  vm->start_fiber(starved);
  EXPECT_THROW(vm->run_until(at_tu(10)), std::runtime_error);
  EXPECT_FALSE(waiting->finished());
  EXPECT_FALSE(starved->finished());
  vm.reset();  // must not hang or crash
}

TEST(VmShutdown, DestroyFromAnotherThreadAfterPartialRun) {
  // The threads backend drives a VM on a worker and may destroy it from the
  // main thread after joining the worker: the parked fiber then unwinds on
  // the destroying thread, and the join is the ordering edge that makes
  // that safe.
  for (int round = 0; round < 20; ++round) {
    auto vm = std::make_unique<VirtualMachine>();
    auto* fiber = vm->create_fiber("w", 10, [&] { vm->work(tu(1000)); });
    vm->start_fiber(fiber);
    std::thread driver([&] { vm->run_until(at_tu(3)); });
    driver.join();
    EXPECT_FALSE(fiber->finished());
    vm.reset();
  }
}

}  // namespace
}  // namespace tsf::rtsj::vm
