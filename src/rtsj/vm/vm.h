// A deterministic virtual-time kernel for RTSJ-style schedulable objects.
//
// The paper's executions ran on the RTSJ Reference Implementation on an
// rtlinux kernel. This repository replaces that substrate with a virtual
// machine that reproduces the *mechanisms* the paper's evaluation depends on
// (preemptive fixed-priority scheduling, timers that preempt everything,
// wall-clock `Timed` budgets, asynchronous interruption) while being fully
// deterministic: scheduling decisions depend only on virtual time and
// insertion order, so every run is bit-reproducible and tests can assert
// exact timelines.
//
// Execution model
// ---------------
// Each schedulable entity is a Fiber: a stackful coroutine on its own
// guard-paged stack. Exactly one fiber — or the driver inside run_until() —
// runs at any moment, on the driver's OS thread: every hand-off is an
// in-process swapcontext, and a VM owns no thread or lock.
// Fibers execute ordinary C++; only VirtualMachine::work() consumes virtual
// time. work(d) advances the global clock, yields to higher-priority fibers
// that become ready, and accounts for kernel overhead (timer fires, context
// switches) exactly the way the paper's §6/§7 discussion requires: overhead
// delays everyone, and a server that measures elapsed time around a handler
// will observe it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include <ucontext.h>

#include "common/annotations.h"
#include "common/event_queue.h"
#include "common/time.h"
#include "common/trace.h"

namespace tsf::rtsj::vm {

using common::Duration;
using common::TimePoint;

// Kernel costs, all defaulting to zero (an ideal machine). The paper's
// execution results are driven by these being non-zero on a real VM.
struct OverheadModel {
  // CPU consumed, at effectively-infinite priority, each time a kernel timer
  // fires (the paper: "the timers charged to fire the asynchronous events").
  Duration timer_fire = Duration::zero();
  // CPU consumed on each fiber dispatch.
  Duration context_switch = Duration::zero();
  // CPU consumed when a sleeping fiber is released (period boundaries).
  Duration release = Duration::zero();
};

// Delivered inside a fiber at an interruptible point after post_interrupt().
// The RTSJ analogue is AsynchronouslyInterruptedException.
struct AsyncInterrupt {};

// Delivered inside a fiber when the VM shuts down; fibers must let it
// propagate out of their bodies.
struct FiberShutdown {};

class VirtualMachine;

class Fiber {
 public:
  using Body = std::function<void()>;

  const std::string& name() const { return name_; }
  int priority() const { return priority_; }
  bool finished() const { return state_ == State::kFinished; }

  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;
  ~Fiber();

 private:
  friend class VirtualMachine;
  enum class State { kNew, kReady, kRunning, kBlocked, kSleeping, kFinished };

  Fiber(VirtualMachine* machine, std::string name, int priority, Body body)
      : vm_(machine),
        name_(std::move(name)),
        label_(name_),
        priority_(priority),
        body_(std::move(body)) {}

  VirtualMachine* vm_;
  std::string name_;
  std::string label_;  // current trace attribution (see set_label)
  int priority_;
  Body body_;
  State state_ = State::kNew;
  std::uint64_t ready_seq_ = 0;  // FIFO tie-break within a priority
  bool interrupt_pending_ = false;
  int interruptible_depth_ = 0;
  bool trace_open_ = false;
  void* stack_ = nullptr;  // mmap'd by start_fiber, guard page lowest
  ucontext_t context_{};
  void* tsan_fiber_ = nullptr;  // ThreadSanitizer fiber handle, if any
};

class VirtualMachine {
 public:
  explicit VirtualMachine(OverheadModel overhead = {});
  ~VirtualMachine();
  VirtualMachine(const VirtualMachine&) = delete;
  VirtualMachine& operator=(const VirtualMachine&) = delete;

  TimePoint now() const { return now_; }
  const OverheadModel& overhead() const { return overhead_; }
  common::Timeline& timeline() { return timeline_; }
  std::uint64_t context_switches() const { return context_switches_; }

  // The sink every trace record goes through; the in-memory timeline by
  // default. All framework emission (servers, async events, the kernel
  // itself) must use this, not timeline(), so external consumers see the
  // whole stream.
  common::TraceSink& trace() { return *sink_; }

  // Replaces the trace sink (e.g. with a TeeSink feeding the timeline plus
  // streaming consumers); nullptr restores the internal timeline. The sink
  // must outlive the VM or be reset before destruction.
  void set_trace_sink(common::TraceSink* sink) {
    sink_ = sink != nullptr ? sink : &timeline_;
  }

  // ---- world construction (outside fibers or from fibers) ----

  // The fiber starts parked; start_fiber makes it ready.
  Fiber* create_fiber(std::string name, int priority, Fiber::Body body);
  void start_fiber(Fiber* fiber);

  using TimerHandle = common::EventQueue::Handle;
  // Kernel timer: charges OverheadModel::timer_fire when it expires, then
  // runs `fn` in kernel context (no fiber; may ready fibers, fire events).
  TimerHandle schedule_timer(TimePoint at, std::function<void()> fn);
  // Kernel event with no overhead charge (used for fiber wake-ups, whose
  // cost is modelled separately by OverheadModel::release).
  TimerHandle schedule_silent(TimePoint at, std::function<void()> fn);

  // Runs the world until `horizon`. Resumable: calling again with a later
  // horizon continues where the previous call stopped, with fibers exactly
  // where they were. A pause is invisible: run_until records nothing when
  // it returns, and a run split at any horizons emits the same records in
  // the same order as one uninterrupted call (timers due at an instant
  // fire before the next fiber is picked, at a boundary as inside a run).
  // Must be called from outside any fiber. Fibers run on the calling
  // thread: keep a run on one thread, since a resumed fiber may hold
  // thread-local values (errno, thread ids) cached from the last one.
  void run_until(TimePoint horizon);

  // Ends the run: closes the busy interval of the fiber frozen mid-work()
  // at the last horizon, so the trace never ends mid-interval. Call once
  // after the final run_until; a no-op when no fiber is frozen. Every
  // record is final once emitted, so this is the only record the end of a
  // run adds.
  void finish();

  // ---- calls made from inside fibers ----

  // Consume `d` units of CPU service. Yields to higher-priority fibers,
  // absorbs kernel overhead, and throws AsyncInterrupt if an interrupt is
  // delivered at an interruptible point. work(zero) is a pure
  // preemption/interruption point. TSF_REALTIME: this is the innermost
  // service loop — every handler tick passes through here.
  TSF_REALTIME
  void work(Duration d);
  void sleep_until(TimePoint t);
  // Park until another context calls unblock(). Not an interruptible point.
  void block();
  // Make a blocked fiber ready; no-op if the fiber is not blocked.
  void unblock(Fiber* fiber);

  Fiber* current() const { return current_; }

  // Re-attributes the current fiber's subsequent execution trace to `label`
  // (the framework labels server time vs individual handler service).
  void set_label(std::string label);

  // ---- asynchronous interruption (the RTSJ Timed/AIE machinery) ----
  void post_interrupt(Fiber* fiber);
  void clear_interrupt(Fiber* fiber);
  void enter_interruptible(Fiber* fiber);
  void exit_interruptible(Fiber* fiber);

 private:
  friend class Fiber;

  static void fiber_entry(unsigned hi, unsigned lo);
  void fiber_main(Fiber* self);
  void advance_to(TimePoint t);
  void add_overhead(Duration d);
  void process_due_timers();
  Fiber* pick_ready() const;
  void remove_from_ready(Fiber* fiber);
  void make_ready(Fiber* fiber);
  // Bookkeeping (trace, switch accounting); the caller then switches.
  void grant(Fiber* fiber);
  // Parks `self` (whose state has already been updated) and switches to the
  // next ready fiber or to the driver; returns when granted again. Throws
  // FiberShutdown if resumed during teardown.
  void yield_to_scheduler(Fiber* self);
  // The one context switch: saves `from`, makes `to` current and resumes
  // it (nullptr = the driver in run_until or the destructor).
  void switch_to(Fiber* from, Fiber* to);
  void finish_switch(void* fake_stack);  // sanitizer side of arriving
  void open_trace(Fiber* fiber);
  void close_trace(Fiber* fiber);
  void maybe_rethrow();

  OverheadModel overhead_;
  TimePoint now_ = TimePoint::origin();
  TimePoint overhead_until_ = TimePoint::origin();
  TimePoint horizon_ = TimePoint::origin();
  common::EventQueue timers_;
  std::vector<std::unique_ptr<Fiber>> fibers_;
  std::vector<Fiber*> ready_;
  Fiber* current_ = nullptr;  // nullptr: the driver is running
  // Fiber parked mid-work() by the run_until horizon, trace still open and
  // no context switch charged: resuming the world at the same instant is a
  // driver artifact, not a scheduling event, so a later run_until continues
  // it seamlessly (essential for lock-step multi-VM drivers, which pause
  // every epoch). If another fiber is granted first, the pause retroactively
  // becomes a real preemption (trace closed, switch charged as usual);
  // finish() closes it at the end of the run.
  Fiber* frozen_ = nullptr;
  ucontext_t driver_context_{};
  // Sanitizer state of the driver as of its last switch into a fiber (the
  // driving OS thread may change between calls): its stack for ASan, its
  // TSan fiber, and whether the switch in flight left the driver.
  const void* driver_stack_bottom_ = nullptr;
  std::size_t driver_stack_size_ = 0;
  void* driver_tsan_fiber_ = nullptr;
  bool switching_from_driver_ = false;
  std::uint64_t next_ready_seq_ = 0;
  std::uint64_t context_switches_ = 0;
  bool shutting_down_ = false;
  std::exception_ptr pending_error_;
  common::Timeline timeline_;
  common::TraceSink* sink_ = &timeline_;  // declared after timeline_
};

}  // namespace tsf::rtsj::vm
