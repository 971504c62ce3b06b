// Tests for the virtual-time kernel: scheduling, preemption, timers,
// overhead accounting, horizons, and determinism.
#include "rtsj/vm/vm.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/time.h"
#include "common/trace.h"

namespace tsf::rtsj::vm {
namespace {

using common::Duration;
using common::Interval;
using common::TimePoint;

Duration tu(std::int64_t n) { return Duration::time_units(n); }
TimePoint at_tu(std::int64_t n) {
  return TimePoint::origin() + Duration::time_units(n);
}

TEST(VmBasics, SingleFiberConsumesVirtualTime) {
  VirtualMachine m;
  TimePoint done;
  Fiber* f = m.create_fiber("worker", 10, [&] {
    m.work(tu(3));
    done = m.now();
  });
  m.start_fiber(f);
  m.run_until(at_tu(100));
  EXPECT_EQ(done, at_tu(3));
  EXPECT_TRUE(f->finished());
}

TEST(VmBasics, FiberDoesNotRunBeforeStart) {
  VirtualMachine m;
  bool ran = false;
  m.create_fiber("never", 10, [&] { ran = true; });
  m.run_until(at_tu(10));
  EXPECT_FALSE(ran);
}

TEST(VmBasics, WorkZeroCompletesInstantly) {
  VirtualMachine m;
  Fiber* f = m.create_fiber("zero", 10, [&] { m.work(Duration::zero()); });
  m.start_fiber(f);
  m.run_until(at_tu(1));
  EXPECT_TRUE(f->finished());
  EXPECT_EQ(m.now(), at_tu(1));
}

TEST(VmBasics, SequentialWorkAccumulates) {
  VirtualMachine m;
  std::vector<TimePoint> marks;
  Fiber* f = m.create_fiber("worker", 10, [&] {
    for (int i = 0; i < 4; ++i) {
      m.work(tu(2));
      marks.push_back(m.now());
    }
  });
  m.start_fiber(f);
  m.run_until(at_tu(100));
  ASSERT_EQ(marks.size(), 4u);
  EXPECT_EQ(marks[0], at_tu(2));
  EXPECT_EQ(marks[1], at_tu(4));
  EXPECT_EQ(marks[2], at_tu(6));
  EXPECT_EQ(marks[3], at_tu(8));
}

TEST(VmScheduling, HigherPriorityPreempts) {
  VirtualMachine m;
  TimePoint low_done, high_done;
  Fiber* high = m.create_fiber("high", 20, [&] {
    m.work(tu(2));
    high_done = m.now();
  });
  Fiber* low = m.create_fiber("low", 10, [&] {
    m.work(tu(10));
    low_done = m.now();
  });
  m.start_fiber(low);
  // Release the high-priority fiber at t=5 while low is mid-work.
  m.schedule_silent(at_tu(5), [&] { m.start_fiber(high); });
  m.run_until(at_tu(100));
  EXPECT_EQ(high_done, at_tu(7));   // runs [5,7)
  EXPECT_EQ(low_done, at_tu(12));   // 10 units of service + 2 preempted
}

TEST(VmScheduling, EqualPriorityIsFifoNotRoundRobin) {
  VirtualMachine m;
  TimePoint first_done, second_done;
  Fiber* a = m.create_fiber("a", 10, [&] {
    m.work(tu(4));
    first_done = m.now();
  });
  Fiber* b = m.create_fiber("b", 10, [&] {
    m.work(tu(4));
    second_done = m.now();
  });
  m.start_fiber(a);
  m.start_fiber(b);
  m.run_until(at_tu(100));
  // a was made ready first and must run to completion before b starts.
  EXPECT_EQ(first_done, at_tu(4));
  EXPECT_EQ(second_done, at_tu(8));
}

TEST(VmScheduling, PriorityOrderAtSameInstant) {
  VirtualMachine m;
  std::vector<std::string> order;
  Fiber* lo = m.create_fiber("lo", 1, [&] {
    m.work(tu(1));
    order.push_back("lo");
  });
  Fiber* hi = m.create_fiber("hi", 9, [&] {
    m.work(tu(1));
    order.push_back("hi");
  });
  Fiber* mid = m.create_fiber("mid", 5, [&] {
    m.work(tu(1));
    order.push_back("mid");
  });
  // Start order deliberately scrambled; priority must decide.
  m.start_fiber(lo);
  m.start_fiber(hi);
  m.start_fiber(mid);
  m.run_until(at_tu(100));
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], "hi");
  EXPECT_EQ(order[1], "mid");
  EXPECT_EQ(order[2], "lo");
}

TEST(VmScheduling, SleepUntilWakesAtExactInstant) {
  VirtualMachine m;
  TimePoint woke;
  Fiber* f = m.create_fiber("sleeper", 10, [&] {
    m.sleep_until(at_tu(7));
    woke = m.now();
  });
  m.start_fiber(f);
  m.run_until(at_tu(100));
  EXPECT_EQ(woke, at_tu(7));
}

TEST(VmScheduling, SleepInPastReturnsImmediately) {
  VirtualMachine m;
  TimePoint woke;
  Fiber* f = m.create_fiber("sleeper", 10, [&] {
    m.work(tu(5));
    m.sleep_until(at_tu(3));  // already past
    woke = m.now();
  });
  m.start_fiber(f);
  m.run_until(at_tu(100));
  EXPECT_EQ(woke, at_tu(5));
}

TEST(VmScheduling, BlockUnblock) {
  VirtualMachine m;
  TimePoint resumed;
  Fiber* f = m.create_fiber("blocked", 10, [&] {
    m.block();
    resumed = m.now();
  });
  m.start_fiber(f);
  m.schedule_silent(at_tu(9), [&] { m.unblock(f); });
  m.run_until(at_tu(100));
  EXPECT_EQ(resumed, at_tu(9));
}

TEST(VmScheduling, UnblockOnRunnableFiberIsNoOp) {
  VirtualMachine m;
  Fiber* f = m.create_fiber("w", 10, [&] { m.work(tu(2)); });
  m.start_fiber(f);
  m.unblock(f);  // not blocked: must not corrupt the ready set
  m.run_until(at_tu(100));
  EXPECT_TRUE(f->finished());
}

TEST(VmScheduling, PreemptedFiberResumesWithRemainingDemandIntact) {
  VirtualMachine m;
  // low works 6; high bursts of 1 at t=1,2,3. low must finish at 9.
  TimePoint low_done;
  Fiber* low = m.create_fiber("low", 1, [&] {
    m.work(tu(6));
    low_done = m.now();
  });
  Fiber* high = m.create_fiber("high", 9, [&] {
    for (int i = 0; i < 3; ++i) {
      m.work(tu(1));
      m.sleep_until(m.now());  // no-op; keep running pattern simple
      if (i < 2) m.sleep_until(at_tu(i + 2));
    }
  });
  m.start_fiber(low);
  m.schedule_silent(at_tu(1), [&] { m.start_fiber(high); });
  m.run_until(at_tu(100));
  EXPECT_EQ(low_done, at_tu(9));
}

TEST(VmTimers, TimersFireInOrderWithTies) {
  VirtualMachine m;
  std::vector<int> order;
  m.schedule_silent(at_tu(5), [&] { order.push_back(2); });
  m.schedule_silent(at_tu(3), [&] { order.push_back(1); });
  m.schedule_silent(at_tu(5), [&] { order.push_back(3); });  // tie: after 2
  m.run_until(at_tu(10));
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 1);
  EXPECT_EQ(order[1], 2);
  EXPECT_EQ(order[2], 3);
}

TEST(VmTimers, CancelledTimerNeverFires) {
  VirtualMachine m;
  bool fired = false;
  auto h = m.schedule_silent(at_tu(5), [&] { fired = true; });
  h.cancel();
  m.run_until(at_tu(10));
  EXPECT_FALSE(fired);
}

TEST(VmTimers, TimerFiresDuringFiberWork) {
  VirtualMachine m;
  TimePoint fired_at;
  Fiber* f = m.create_fiber("w", 10, [&] { m.work(tu(10)); });
  m.start_fiber(f);
  m.schedule_silent(at_tu(4), [&] { fired_at = m.now(); });
  m.run_until(at_tu(20));
  EXPECT_EQ(fired_at, at_tu(4));
  EXPECT_TRUE(f->finished());
}

TEST(VmOverhead, TimerFireOverheadStallsTheProcessor) {
  OverheadModel oh;
  oh.timer_fire = Duration::ticks(200);
  VirtualMachine m(oh);
  TimePoint done;
  Fiber* f = m.create_fiber("w", 10, [&] {
    m.work(tu(4));
    done = m.now();
  });
  m.start_fiber(f);
  // Two timers fire while the fiber works; each steals 200 ticks.
  m.schedule_timer(at_tu(1), [] {});
  m.schedule_timer(at_tu(2), [] {});
  m.run_until(at_tu(100));
  EXPECT_EQ(done, at_tu(4) + Duration::ticks(400));
}

TEST(VmOverhead, OverheadAtSameInstantStacks) {
  OverheadModel oh;
  oh.timer_fire = Duration::ticks(100);
  VirtualMachine m(oh);
  TimePoint done;
  Fiber* f = m.create_fiber("w", 10, [&] {
    m.work(tu(1));
    done = m.now();
  });
  m.start_fiber(f);
  m.schedule_timer(at_tu(0), [] {});
  m.schedule_timer(at_tu(0), [] {});
  m.schedule_timer(at_tu(0), [] {});
  m.run_until(at_tu(100));
  EXPECT_EQ(done, at_tu(1) + Duration::ticks(300));
}

TEST(VmOverhead, ContextSwitchOverheadCharged) {
  OverheadModel oh;
  oh.context_switch = Duration::ticks(50);
  VirtualMachine m(oh);
  TimePoint done;
  Fiber* f = m.create_fiber("w", 10, [&] {
    m.work(tu(1));
    done = m.now();
  });
  m.start_fiber(f);
  m.run_until(at_tu(100));
  // One grant: 50 ticks of switch cost before any service accrues.
  EXPECT_EQ(done, at_tu(1) + Duration::ticks(50));
}

TEST(VmInterrupt, InterruptDeliveredOnlyInInterruptibleSection) {
  VirtualMachine m;
  bool threw = false;
  TimePoint caught_at;
  Fiber* f = m.create_fiber("w", 10, [&] {
    // Not interruptible yet: the pending interrupt must be held.
    m.work(tu(2));
    m.enter_interruptible(m.current());
    try {
      m.work(tu(2));
    } catch (const AsyncInterrupt&) {
      threw = true;
      caught_at = m.now();
    }
    m.exit_interruptible(m.current());
  });
  m.start_fiber(f);
  m.schedule_silent(at_tu(1), [&] { m.post_interrupt(f); });
  m.run_until(at_tu(100));
  EXPECT_TRUE(threw);
  // Delivered at the first interruptible work() call, i.e. t=2.
  EXPECT_EQ(caught_at, at_tu(2));
}

TEST(VmInterrupt, InterruptMidWorkStopsServiceAtFireTime) {
  VirtualMachine m;
  TimePoint caught_at;
  Fiber* f = m.create_fiber("w", 10, [&] {
    m.enter_interruptible(m.current());
    try {
      m.work(tu(10));
    } catch (const AsyncInterrupt&) {
      caught_at = m.now();
    }
    m.exit_interruptible(m.current());
  });
  m.start_fiber(f);
  m.schedule_silent(at_tu(4), [&] { m.post_interrupt(f); });
  m.run_until(at_tu(100));
  EXPECT_EQ(caught_at, at_tu(4));
}

TEST(VmInterrupt, ClearInterruptDropsPendingFlag) {
  VirtualMachine m;
  bool threw = false;
  Fiber* f = m.create_fiber("w", 10, [&] {
    m.work(tu(2));  // interrupt posted at t=1, not deliverable yet
    m.clear_interrupt(m.current());
    m.enter_interruptible(m.current());
    try {
      m.work(tu(1));
    } catch (const AsyncInterrupt&) {
      threw = true;
    }
    m.exit_interruptible(m.current());
  });
  m.start_fiber(f);
  m.schedule_silent(at_tu(1), [&] { m.post_interrupt(f); });
  m.run_until(at_tu(100));
  EXPECT_FALSE(threw);
}

TEST(VmHorizon, RunUntilFreezesMidWorkAndResumes) {
  VirtualMachine m;
  TimePoint done;
  Fiber* f = m.create_fiber("w", 10, [&] {
    m.work(tu(10));
    done = m.now();
  });
  m.start_fiber(f);
  m.run_until(at_tu(4));
  EXPECT_EQ(m.now(), at_tu(4));
  EXPECT_FALSE(f->finished());
  m.run_until(at_tu(50));
  EXPECT_EQ(done, at_tu(10));
  EXPECT_TRUE(f->finished());
}

TEST(VmHorizon, IdleAdvancesToHorizon) {
  VirtualMachine m;
  m.run_until(at_tu(42));
  EXPECT_EQ(m.now(), at_tu(42));
}

TEST(VmHorizon, TimersBeyondHorizonDoNotFire) {
  VirtualMachine m;
  bool fired = false;
  m.schedule_silent(at_tu(10), [&] { fired = true; });
  m.run_until(at_tu(5));
  EXPECT_FALSE(fired);
  m.run_until(at_tu(15));
  EXPECT_TRUE(fired);
}

// One world: "hi" works 2 tu and sleeps at t = 2, the instant a kernel
// timer fires an event and "lo" is next in line. Returns the trace of a
// run paused at each horizon in `pauses`, then run to t = 10.
common::Timeline run_with_pauses(const std::vector<std::int64_t>& pauses) {
  VirtualMachine m;
  Fiber* hi = m.create_fiber("hi", 20, [&] {
    m.work(tu(2));
    m.sleep_until(at_tu(6));
    m.work(tu(1));
  });
  Fiber* lo = m.create_fiber("lo", 10, [&] { m.work(tu(5)); });
  m.start_fiber(hi);
  m.start_fiber(lo);
  m.schedule_timer(at_tu(2), [&] {
    m.trace().record(m.now(), common::TraceKind::kFire, "e");
  });
  for (const std::int64_t t : pauses) m.run_until(at_tu(t));
  m.run_until(at_tu(10));
  m.finish();
  return m.timeline();
}

TEST(VmHorizon, PauseNeverReordersAnInstant) {
  // Timers due at the instant a fiber yields fire before the next pick,
  // inside a run exactly as at a run_until boundary.
  const auto whole = run_with_pauses({});
  const auto& records = whole.records();
  ASSERT_GE(records.size(), 3u);
  EXPECT_EQ(records[1].kind, common::TraceKind::kPreempt);  // hi sleeps
  EXPECT_EQ(records[2].kind, common::TraceKind::kFire);     // then e fires
  for (const auto& pauses : std::vector<std::vector<std::int64_t>>{
           {2}, {1, 2, 3}, {2, 4, 6, 8}, {5}}) {
    EXPECT_EQ(common::fingerprint(run_with_pauses(pauses)),
              common::fingerprint(whole))
        << "paused at " << pauses.front() << "...";
  }
}

TEST(VmHorizon, RunUntilRecordsNothingAndFinishClosesTheFrozenFiber) {
  VirtualMachine m;
  Fiber* f = m.create_fiber("w", 10, [&] { m.work(tu(10)); });
  m.start_fiber(f);
  m.run_until(at_tu(4));
  ASSERT_EQ(m.timeline().records().size(), 1u);  // the resume only
  m.run_until(at_tu(6));
  EXPECT_EQ(m.timeline().records().size(), 1u);  // a pause leaves no mark
  m.finish();
  EXPECT_EQ(m.timeline().busy_intervals("w"),
            (std::vector<Interval>{{at_tu(0), at_tu(6)}}));
  m.finish();  // nothing left to close
  EXPECT_EQ(m.timeline().records().size(), 2u);
}

TEST(VmTrace, BusyIntervalsReflectPreemption) {
  VirtualMachine m;
  Fiber* low = m.create_fiber("low", 1, [&] { m.work(tu(6)); });
  Fiber* high = m.create_fiber("high", 9, [&] { m.work(tu(2)); });
  m.start_fiber(low);
  m.schedule_silent(at_tu(3), [&] { m.start_fiber(high); });
  m.run_until(at_tu(100));
  const auto low_iv = m.timeline().busy_intervals("low");
  const auto high_iv = m.timeline().busy_intervals("high");
  ASSERT_EQ(high_iv.size(), 1u);
  EXPECT_EQ(high_iv[0], (Interval{at_tu(3), at_tu(5)}));
  ASSERT_EQ(low_iv.size(), 2u);
  EXPECT_EQ(low_iv[0], (Interval{at_tu(0), at_tu(3)}));
  EXPECT_EQ(low_iv[1], (Interval{at_tu(5), at_tu(8)}));
}

TEST(VmTrace, SetLabelSplitsAttribution) {
  VirtualMachine m;
  Fiber* f = m.create_fiber("server", 10, [&] {
    m.work(tu(1));
    m.set_label("h1");
    m.work(tu(2));
    m.set_label("server");
    m.work(tu(1));
  });
  m.start_fiber(f);
  m.run_until(at_tu(100));
  const auto server_iv = m.timeline().busy_intervals("server");
  const auto h1_iv = m.timeline().busy_intervals("h1");
  ASSERT_EQ(h1_iv.size(), 1u);
  EXPECT_EQ(h1_iv[0], (Interval{at_tu(1), at_tu(3)}));
  ASSERT_EQ(server_iv.size(), 2u);
  EXPECT_EQ(server_iv[0], (Interval{at_tu(0), at_tu(1)}));
  EXPECT_EQ(server_iv[1], (Interval{at_tu(3), at_tu(4)}));
}

TEST(VmErrors, FiberExceptionSurfacesInRunUntil) {
  VirtualMachine m;
  Fiber* f = m.create_fiber("bad", 10, [&] {
    m.work(tu(1));
    throw std::runtime_error("boom");
  });
  m.start_fiber(f);
  EXPECT_THROW(m.run_until(at_tu(10)), std::runtime_error);
}

TEST(VmErrors, TimerExceptionAtFiberExitSurfacesInRunUntil) {
  // The timer is due at the instant the fiber finishes, so it fires from
  // the finished fiber's last scheduling point.
  VirtualMachine m;
  Fiber* f = m.create_fiber("short", 10, [&] { m.work(tu(2)); });
  m.start_fiber(f);
  m.schedule_timer(at_tu(2), [] { throw std::runtime_error("timer bug"); });
  EXPECT_THROW(m.run_until(at_tu(10)), std::runtime_error);
  EXPECT_TRUE(f->finished());
}

TEST(VmLifecycle, DestructionWithParkedFibersIsClean) {
  auto m = std::make_unique<VirtualMachine>();
  Fiber* blocked = m->create_fiber("blocked", 10, [&] { m->block(); });
  Fiber* sleeping =
      m->create_fiber("sleeping", 10, [&] { m->sleep_until(at_tu(1000)); });
  Fiber* working = m->create_fiber("working", 5, [&] { m->work(tu(1000)); });
  m->start_fiber(blocked);
  m->start_fiber(sleeping);
  m->start_fiber(working);
  m->run_until(at_tu(10));
  // Destructor must join all three without deadlock.
  m.reset();
  SUCCEED();
}

TEST(VmLifecycle, DestructionWithoutRunIsClean) {
  VirtualMachine m;
  Fiber* f = m.create_fiber("unran", 10, [&] { m.work(tu(1)); });
  m.start_fiber(f);
  // No run_until at all.
}

TEST(VmThreads, EveryFiberRunsOnTheDriversThread) {
  // A VM owns no OS thread: its fibers are context switches on the thread
  // that calls run_until — the caller's own, or a worker's — so a core of
  // the threads backend is exactly one OS thread.
  for (const bool on_worker : {false, true}) {
    SCOPED_TRACE(on_worker ? "driven by a worker" : "driven by the caller");
    VirtualMachine m;
    std::vector<std::thread::id> seen;
    for (int i = 0; i < 3; ++i) {
      Fiber* f = m.create_fiber("f" + std::to_string(i), 10 + i, [&] {
        for (int step = 0; step < 4; ++step) {
          seen.push_back(std::this_thread::get_id());
          m.work(tu(1));
        }
      });
      m.start_fiber(f);
    }
    std::thread::id driver = std::this_thread::get_id();
    if (on_worker) {
      std::thread worker([&] {
        driver = std::this_thread::get_id();
        m.run_until(at_tu(20));
      });
      worker.join();
    } else {
      m.run_until(at_tu(20));
    }
    ASSERT_EQ(seen.size(), 12u);
    for (const std::thread::id id : seen) EXPECT_EQ(id, driver);
  }
}

TEST(VmDeterminism, IdenticalSetupsProduceIdenticalTimelines) {
  auto run = [] {
    VirtualMachine m;
    Fiber* low = m.create_fiber("low", 1, [&] {
      for (int i = 0; i < 5; ++i) {
        m.work(tu(2));
        m.sleep_until(m.now() + tu(1));
      }
    });
    Fiber* high = m.create_fiber("high", 9, [&] {
      for (int i = 0; i < 5; ++i) {
        m.work(tu(1));
        m.sleep_until(m.now() + tu(3));
      }
    });
    m.start_fiber(low);
    m.start_fiber(high);
    m.run_until(at_tu(50));
    return m.timeline().to_csv();
  };
  EXPECT_EQ(run(), run());
}

TEST(VmDeterminism, ContextSwitchCountIsStable) {
  auto run = [] {
    VirtualMachine m;
    Fiber* a = m.create_fiber("a", 1, [&] { m.work(tu(5)); });
    Fiber* b = m.create_fiber("b", 2, [&] {
      m.sleep_until(at_tu(1));
      m.work(tu(1));
    });
    m.start_fiber(a);
    m.start_fiber(b);
    m.run_until(at_tu(20));
    return m.context_switches();
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace tsf::rtsj::vm
