#include "core/sporadic_task_server.h"

namespace tsf::core {

SporadicTaskServer::SporadicTaskServer(rtsj::vm::VirtualMachine& machine,
                                       TaskServerParameters params)
    : TaskServer(machine, std::move(params)),
      wake_up_(machine, params_.name() + ".wakeUp"),
      wake_handler_(
          machine, params_.name(),
          rtsj::PriorityParameters(priority()),
          [this](rtsj::AsyncEventHandler&) { serve(); }) {
  wake_up_.add_handler(&wake_handler_);
}

void SporadicTaskServer::start() {
  remaining_ = params_.capacity();
  ++activations_;
}

void SporadicTaskServer::on_release(const Request& request) {
  (void)request;
  if (!serving_) wake_up_.fire();
}

void SporadicTaskServer::serve() {
  serving_ = true;
  if (!params_.poll_overhead().is_zero()) vm_.work(params_.poll_overhead());
  // No batching here: SS replenishment is per-dispatch (the consumed amount
  // returns one period after each burst began), so grouping dispatches
  // would change the replenishment schedule itself — batch_limit is
  // documented as inapplicable to the sporadic policy.
  for (;;) {
    const auto fits = [this](rtsj::RelativeTime cost) {
      return cost + params_.admission_margin() <= remaining_;
    };
    auto request = queue_->pop_fitting(fits);
    if (!request) break;
    batch_.clear();
    batch_.push_back(std::move(*request));

    const rtsj::AbsoluteTime t0 = vm_.now();
    const DispatchResult r = dispatch_batch(1, remaining_);
    const rtsj::RelativeTime consumed = common::min(r.elapsed, remaining_);
    remaining_ -= consumed;
    vm_.trace().record(vm_.now(), common::TraceKind::kCapacity,
                          params_.name(), remaining_.count());
    // SS replenishment: the consumed amount returns one period after the
    // burst began.
    vm_.schedule_timer(t0 + params_.period(), [this, consumed] {
      remaining_ = common::min(remaining_ + consumed, params_.capacity());
      ++replenishments_;
      ++activations_;
      vm_.trace().record(vm_.now(), common::TraceKind::kReplenish,
                            params_.name(), remaining_.count());
      if (!serving_ && !queue_->empty()) wake_up_.fire();
    });
  }
  serving_ = false;
}

}  // namespace tsf::core
