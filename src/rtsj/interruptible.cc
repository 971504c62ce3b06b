#include "rtsj/interruptible.h"

#include "common/diag.h"

namespace tsf::rtsj {

namespace {
// Balances enter/exit even when AsyncInterrupt (or VM shutdown) unwinds the
// section.
class InterruptibleSection {
 public:
  InterruptibleSection(vm::VirtualMachine& machine, vm::Fiber* fiber)
      : vm_(machine), fiber_(fiber) {
    vm_.enter_interruptible(fiber_);
  }
  ~InterruptibleSection() { vm_.exit_interruptible(fiber_); }
  InterruptibleSection(const InterruptibleSection&) = delete;
  InterruptibleSection& operator=(const InterruptibleSection&) = delete;

 private:
  vm::VirtualMachine& vm_;
  vm::Fiber* fiber_;
};
}  // namespace

Timed::Timed(vm::VirtualMachine& machine, RelativeTime budget)
    : vm_(machine), budget_(budget) {
  TSF_ASSERT(!budget_.is_negative(), "negative Timed budget");
}

bool Timed::do_interruptible(Interruptible& logic) {
  vm::Fiber* self = vm_.current();
  TSF_ASSERT(self != nullptr, "do_interruptible outside a fiber");

  // The budget alarm is a kernel timer, so an expiring budget pays the
  // timer-fire overhead like any other timer (it is cancelled — and thus
  // free — when the section completes in time).
  auto alarm = vm_.schedule_timer(vm_.now() + budget_,
                                  [this, self] { vm_.post_interrupt(self); });
  bool interrupted = false;
  {
    InterruptibleSection section(vm_, self);
    try {
      logic.run(*this);
    } catch (const AsynchronouslyInterruptedException&) {
      interrupted = true;
    }
  }
  alarm.cancel();
  // A pending interrupt that raced with normal completion must not leak
  // into the caller's next interruptible section.
  vm_.clear_interrupt(self);
  if (interrupted) logic.interrupt_action(vm_.now());
  return !interrupted;
}

}  // namespace tsf::rtsj
