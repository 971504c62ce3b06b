#include "rtsj/vm/vm.h"

#include <sanitizer/common_interface_defs.h>
#include <sanitizer/tsan_interface.h>
#include <sys/mman.h>

#include <algorithm>

#include "common/diag.h"

namespace tsf::rtsj::vm {

namespace {
// Usable bytes of every fiber stack, and the PROT_NONE guard below it that
// makes an overflow fault as on a pthread stack (64 KiB is a whole number
// of pages on every Linux page size).
constexpr std::size_t kFiberStackBytes = 256 * 1024;
constexpr std::size_t kGuardBytes = 64 * 1024;
}  // namespace

Fiber::~Fiber() {
  if (stack_ == nullptr) return;
#if defined(__SANITIZE_THREAD__)
  __tsan_destroy_fiber(tsan_fiber_);
#endif
  munmap(stack_, kGuardBytes + kFiberStackBytes);
}

VirtualMachine::VirtualMachine(OverheadModel overhead) : overhead_(overhead) {
  // Charged by the event queue right before a taxed (kernel-timer) callback
  // fires — applied here once instead of wrapped into every scheduled
  // closure, which would heap-allocate on each timer re-arm.
  timers_.set_fire_tax([this] {
    if (!overhead_.timer_fire.is_zero()) add_overhead(overhead_.timer_fire);
  });
}

VirtualMachine::~VirtualMachine() {
  // Resume every started, unfinished fiber once: it throws FiberShutdown
  // from its park point (or skips its body if it never ran), unwinds so the
  // destructors on its stack run, and switches straight back here.
  shutting_down_ = true;
  for (auto& f : fibers_) {
    if (f->stack_ != nullptr && !f->finished()) switch_to(nullptr, f.get());
  }
}

Fiber* VirtualMachine::create_fiber(std::string name, int priority,
                                    Fiber::Body body) {
  fibers_.push_back(std::unique_ptr<Fiber>(
      new Fiber(this, std::move(name), priority, std::move(body))));
  return fibers_.back().get();
}

void VirtualMachine::start_fiber(Fiber* fiber) {
  TSF_ASSERT(fiber->state_ == Fiber::State::kNew,
             "fiber " << fiber->name_ << " started twice");
  void* stack = mmap(nullptr, kGuardBytes + kFiberStackBytes,
                     PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_STACK, -1, 0);
  TSF_ASSERT(stack != MAP_FAILED, "no memory for fiber " << fiber->name_);
  fiber->stack_ = stack;
  const bool guarded = mprotect(stack, kGuardBytes, PROT_NONE) == 0;
  const bool captured = getcontext(&fiber->context_) == 0;
  TSF_ASSERT(guarded && captured, "cannot set up fiber " << fiber->name_);
  fiber->context_.uc_stack.ss_sp = static_cast<char*>(stack) + kGuardBytes;
  fiber->context_.uc_stack.ss_size = kFiberStackBytes;
  fiber->context_.uc_link = nullptr;  // fiber_main never returns
  // makecontext passes int-sized arguments only: split the pointer.
  const auto bits =
      static_cast<std::uint64_t>(reinterpret_cast<std::uintptr_t>(fiber));
  makecontext(&fiber->context_, reinterpret_cast<void (*)()>(&fiber_entry),
              2, static_cast<unsigned>(bits >> 32),
              static_cast<unsigned>(bits));
#if defined(__SANITIZE_THREAD__)
  fiber->tsan_fiber_ = __tsan_create_fiber(0);
#endif
  make_ready(fiber);
}

void VirtualMachine::fiber_entry(unsigned hi, unsigned lo) {
  auto* self = reinterpret_cast<Fiber*>(
      static_cast<std::uintptr_t>((std::uint64_t{hi} << 32) | lo));
  self->vm_->fiber_main(self);
}

void VirtualMachine::fiber_main(Fiber* self) {
  finish_switch(nullptr);  // first arrival: no fake stack to restore
  if (!shutting_down_) {
    try {
      self->body_();
    } catch (const FiberShutdown&) {
      // normal teardown path
    } catch (...) {
      if (!pending_error_) pending_error_ = std::current_exception();
    }
  }
  self->state_ = Fiber::State::kFinished;
  if (shutting_down_) switch_to(self, nullptr);  // to the destructor, for good
  close_trace(self);
  yield_to_scheduler(self);  // never returns: nothing grants a finished fiber
}

VirtualMachine::TimerHandle VirtualMachine::schedule_timer(
    TimePoint at, std::function<void()> fn) {
  TSF_ASSERT(at >= now_, "timer scheduled in the past: " << at << " < "
                                                         << now_);
  return timers_.schedule(at, std::move(fn), /*taxed=*/true);
}

VirtualMachine::TimerHandle VirtualMachine::schedule_silent(
    TimePoint at, std::function<void()> fn) {
  TSF_ASSERT(at >= now_, "timer scheduled in the past: " << at << " < "
                                                         << now_);
  return timers_.schedule(at, std::move(fn));
}

void VirtualMachine::run_until(TimePoint horizon) {
  TSF_ASSERT(current_ == nullptr, "run_until called from inside a fiber");
  TSF_ASSERT(horizon >= now_, "horizon " << horizon << " is in the past");
  horizon_ = horizon;
  for (;;) {
    maybe_rethrow();
    process_due_timers();
    Fiber* next = pick_ready();
    if (next != nullptr && now_ < horizon_) {
      grant(next);
      switch_to(nullptr, next);  // returns when no fiber can run
      continue;
    }
    if (now_ >= horizon_) break;
    const TimePoint t = timers_.next_time();
    if (t.is_never() || t > horizon_) {
      advance_to(horizon_);
      break;
    }
    advance_to(t);
  }
  maybe_rethrow();
}

void VirtualMachine::finish() {
  if (frozen_ != nullptr) close_trace(frozen_);
  frozen_ = nullptr;
}

void VirtualMachine::work(Duration d) {
  Fiber* self = current_;
  TSF_ASSERT(self != nullptr, "work() called from outside a fiber");
  if (shutting_down_) return;
  TSF_ASSERT(!d.is_negative(), "negative work " << d);
  Duration remaining = d;
  for (;;) {
    if (self->interrupt_pending_ && self->interruptible_depth_ > 0) {
      self->interrupt_pending_ = false;
      // TSF_LINT_ALLOW[rt-throw]: this is the RTSJ AIE emulation itself —
      // Timed/interrupt() delivers AsynchronouslyInterruptedException by
      // unwinding the fiber, exactly the semantics the paper's timed
      // dispatch relies on. The handler boundary catches it by design.
      throw AsyncInterrupt{};
    }
    if (Fiber* top = pick_ready();
        top != nullptr && top->priority_ > self->priority_) {
      // Preempted: go back to the ready set keeping our remaining demand.
      self->state_ = Fiber::State::kReady;
      close_trace(self);
      make_ready(self);
      yield_to_scheduler(self);
      continue;
    }
    if (remaining.is_zero()) return;

    const TimePoint progress_from = common::max(now_, overhead_until_);
    const TimePoint completion = progress_from + remaining;
    const TimePoint next_timer = timers_.next_time();

    if (common::min(completion, next_timer) > horizon_) {
      // Freeze at the horizon: bank the service earned on the way there,
      // stay ready, and let run_until() return. A later run_until resumes.
      // The trace stays open and no switch is charged — grant() undoes the
      // freeze seamlessly unless another fiber actually takes over.
      if (horizon_ > progress_from) remaining -= (horizon_ - progress_from);
      advance_to(horizon_);
      self->state_ = Fiber::State::kReady;
      frozen_ = self;
      // Keep the old ready_seq_: the running fiber was ahead of every
      // equal-priority waiter, and a driver pause must not rotate it
      // behind them (make_ready would hand out a fresh, larger seq).
      ready_.push_back(self);
      yield_to_scheduler(self);
      continue;
    }
    if (next_timer < completion) {
      if (next_timer > progress_from) remaining -= (next_timer - progress_from);
      advance_to(next_timer);
      process_due_timers();
      continue;
    }
    // No kernel activity strictly before completion: finish. A timer due at
    // exactly the completion instant fires at the next scheduling point, so
    // a handler whose demand exactly fits its Timed budget completes.
    advance_to(completion);
    remaining = Duration::zero();
  }
}

void VirtualMachine::sleep_until(TimePoint t) {
  Fiber* self = current_;
  TSF_ASSERT(self != nullptr, "sleep_until called from outside a fiber");
  if (shutting_down_) return;
  if (t <= now_) return;
  self->state_ = Fiber::State::kSleeping;
  schedule_silent(t, [this, self] {
    if (self->state_ == Fiber::State::kSleeping) {
      if (!overhead_.release.is_zero()) add_overhead(overhead_.release);
      make_ready(self);
    }
  });
  close_trace(self);
  yield_to_scheduler(self);
}

void VirtualMachine::block() {
  Fiber* self = current_;
  TSF_ASSERT(self != nullptr, "block called from outside a fiber");
  if (shutting_down_) return;
  self->state_ = Fiber::State::kBlocked;
  close_trace(self);
  yield_to_scheduler(self);
}

void VirtualMachine::unblock(Fiber* fiber) {
  if (fiber->state_ == Fiber::State::kBlocked) make_ready(fiber);
}

void VirtualMachine::set_label(std::string label) {
  Fiber* self = current_;
  TSF_ASSERT(self != nullptr, "set_label called from outside a fiber");
  if (label == self->label_) return;
  close_trace(self);
  self->label_ = std::move(label);
  open_trace(self);
}

void VirtualMachine::post_interrupt(Fiber* fiber) {
  fiber->interrupt_pending_ = true;
}

void VirtualMachine::clear_interrupt(Fiber* fiber) {
  fiber->interrupt_pending_ = false;
}

void VirtualMachine::enter_interruptible(Fiber* fiber) {
  TSF_ASSERT(fiber != nullptr, "not in a fiber");
  ++fiber->interruptible_depth_;
}

void VirtualMachine::exit_interruptible(Fiber* fiber) {
  // Tolerate teardown: a fiber frozen inside a Timed section unwinds its
  // RAII guards while the VM shuts down.
  if (shutting_down_) return;
  TSF_ASSERT(fiber != nullptr && fiber->interruptible_depth_ > 0,
             "unbalanced exit_interruptible");
  --fiber->interruptible_depth_;
}

// ---- internals ----

void VirtualMachine::advance_to(TimePoint t) {
  TSF_ASSERT(t >= now_, "time went backwards: " << t << " < " << now_);
  now_ = t;
}

void VirtualMachine::add_overhead(Duration d) {
  overhead_until_ = common::max(overhead_until_, now_) + d;
}

void VirtualMachine::process_due_timers() {
  while (!timers_.empty() && timers_.next_time() <= now_) {
    timers_.pop_and_run();
  }
}

Fiber* VirtualMachine::pick_ready() const {
  Fiber* best = nullptr;
  for (Fiber* f : ready_) {
    if (best == nullptr || f->priority_ > best->priority_ ||
        (f->priority_ == best->priority_ && f->ready_seq_ < best->ready_seq_)) {
      best = f;
    }
  }
  return best;
}

void VirtualMachine::remove_from_ready(Fiber* fiber) {
  auto it = std::find(ready_.begin(), ready_.end(), fiber);
  TSF_ASSERT(it != ready_.end(), "fiber " << fiber->name_ << " not ready");
  ready_.erase(it);
}

void VirtualMachine::make_ready(Fiber* fiber) {
  fiber->state_ = Fiber::State::kReady;
  fiber->ready_seq_ = next_ready_seq_++;
  ready_.push_back(fiber);
}

void VirtualMachine::grant(Fiber* fiber) {
  // Resuming a horizon-frozen fiber is seamless: same instant, trace still
  // open, no context switch — indistinguishable from never pausing. If
  // someone else runs first, the freeze was a real preemption after all.
  const bool resumes_frozen = frozen_ == fiber;
  if (frozen_ != nullptr && !resumes_frozen) close_trace(frozen_);
  frozen_ = nullptr;
  remove_from_ready(fiber);
  fiber->state_ = Fiber::State::kRunning;
  if (resumes_frozen) return;
  ++context_switches_;
  if (!overhead_.context_switch.is_zero()) {
    add_overhead(overhead_.context_switch);
  }
  open_trace(fiber);
}

void VirtualMachine::yield_to_scheduler(Fiber* self) {
  // Timers due now fire before the pick, exactly as at the top of
  // run_until: a scheduling point inside an epoch and one at an epoch
  // boundary order the same instant identically. A callback's exception
  // surfaces from run_until like a fiber body's (a finished fiber has no
  // body left to unwind it through).
  try {
    process_due_timers();
  } catch (...) {
    if (!pending_error_) pending_error_ = std::current_exception();
  }
  Fiber* next = (now_ < horizon_) ? pick_ready() : nullptr;
  if (next != nullptr) grant(next);
  switch_to(self, next);
  // TSF_LINT_ALLOW[rt-throw]: teardown-only unwind — FiberShutdown is
  // thrown exactly once per fiber, at VM destruction, to collapse the
  // fiber's stack; it can never fire during a live run_until.
  if (shutting_down_) throw FiberShutdown{};
  TSF_ASSERT(current_ == self, "resumed while not current: " << self->name_);
}

// Invariant: never switch inside a catch handler or while unwinding. The
// C++ runtime keeps its exception state (__cxa_eh_globals) per OS thread,
// and every fiber of a VM shares the driver's thread, so a switch there
// would interleave two contexts' exception state. Fibers switch only from
// work(), sleep_until(), block() and fiber exit, never from a handler, and
// during teardown those return early. (The destructor may itself run
// during unwinding: each fiber it resumes throws and catches completely
// before switching back, leaving that state as it found it.)
void VirtualMachine::switch_to(Fiber* from, Fiber* to) {
  current_ = to;
  switching_from_driver_ = from == nullptr;
  void* fake_stack = nullptr;
#if defined(__SANITIZE_ADDRESS__)
  // A finished fiber leaves for good: no save slot frees its fake stack.
  const bool for_good = from != nullptr && from->finished();
  __sanitizer_start_switch_fiber(
      for_good ? nullptr : &fake_stack,
      to != nullptr ? static_cast<char*>(to->stack_) + kGuardBytes
                    : driver_stack_bottom_,
      to != nullptr ? kFiberStackBytes : driver_stack_size_);
#endif
#if defined(__SANITIZE_THREAD__)
  if (from == nullptr) driver_tsan_fiber_ = __tsan_get_current_fiber();
  __tsan_switch_to_fiber(to != nullptr ? to->tsan_fiber_ : driver_tsan_fiber_,
                         0);
#endif
  const bool switched =
      swapcontext(from != nullptr ? &from->context_ : &driver_context_,
                  to != nullptr ? &to->context_ : &driver_context_) == 0;
  TSF_ASSERT(switched, "swapcontext failed");
  finish_switch(fake_stack);
}

void VirtualMachine::finish_switch([[maybe_unused]] void* fake_stack) {
#if defined(__SANITIZE_ADDRESS__)
  // Arriving from the driver is how the VM learns the driver's stack.
  const bool from_driver = switching_from_driver_;
  __sanitizer_finish_switch_fiber(
      fake_stack, from_driver ? &driver_stack_bottom_ : nullptr,
      from_driver ? &driver_stack_size_ : nullptr);
#endif
}

void VirtualMachine::open_trace(Fiber* fiber) {
  TSF_ASSERT(!fiber->trace_open_, "trace already open for " << fiber->name_);
  sink_->record(now_, common::TraceKind::kResume, fiber->label_);
  fiber->trace_open_ = true;
}

void VirtualMachine::close_trace(Fiber* fiber) {
  if (!fiber->trace_open_) return;
  sink_->record(now_, common::TraceKind::kPreempt, fiber->label_);
  fiber->trace_open_ = false;
}

void VirtualMachine::maybe_rethrow() {
  if (pending_error_) {
    auto e = pending_error_;
    pending_error_ = nullptr;
    std::rethrow_exception(e);
  }
}

}  // namespace tsf::rtsj::vm
