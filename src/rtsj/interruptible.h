// Timed / Interruptible / AsynchronouslyInterruptedException.
//
// This is the machinery the paper uses to bound a handler's execution (§4):
// "This class allows us to execute the run() method of an Interruptible
// object for a given maximum amount of time." The budget is *wall-clock*
// (virtual) time, exactly like RTSJ's Timed — which is why kernel overhead
// that preempts a handler still drains its budget, the effect behind the
// paper's interrupted-aperiodics ratio.
#pragma once

#include <utility>

#include "rtsj/time.h"
#include "rtsj/vm/vm.h"

namespace tsf::rtsj {

// The exception delivered into interruptible sections.
using AsynchronouslyInterruptedException = vm::AsyncInterrupt;

class Timed;

class Interruptible {
 public:
  virtual ~Interruptible() = default;
  // The interruptible section. Call Timed::work() (or VM work) inside;
  // those are the interruption points.
  virtual void run(Timed& timed) = 0;
  // Called after an interruption, at the instant the budget expired.
  virtual void interrupt_action(AbsoluteTime at) { (void)at; }
};

// Adapts a lambda to Interruptible. The callable is held by value, not
// type-erased, so wrapping a capturing lambda never touches the heap.
template <typename Run>
class InterruptibleFn : public Interruptible {
 public:
  explicit InterruptibleFn(Run run) : run_(std::move(run)) {}
  void run(Timed& timed) override { run_(timed); }

 private:
  Run run_;
};

class Timed {
 public:
  Timed(vm::VirtualMachine& machine, RelativeTime budget);

  // Runs logic.run() with the configured wall-clock budget. Returns true on
  // normal completion, false when the budget expired and the section was
  // interrupted (after invoking logic.interrupt_action()).
  bool do_interruptible(Interruptible& logic);

  // CPU service inside the section; the canonical interruption point.
  void work(RelativeTime d) { vm_.work(d); }

  vm::VirtualMachine& machine() { return vm_; }
  RelativeTime budget() const { return budget_; }

 private:
  vm::VirtualMachine& vm_;
  RelativeTime budget_;
};

}  // namespace tsf::rtsj
