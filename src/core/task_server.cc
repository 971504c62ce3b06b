#include "core/task_server.h"

#include <algorithm>

#include "common/diag.h"

namespace tsf::core {

TaskServer::TaskServer(rtsj::vm::VirtualMachine& machine,
                       TaskServerParameters params)
    : vm_(machine), params_(std::move(params)) {
  TSF_ASSERT(params_.capacity() > rtsj::RelativeTime::zero(),
             "server " << params_.name() << " needs a positive capacity");
  TSF_ASSERT(params_.period() >= params_.capacity(),
             "server " << params_.name() << " capacity exceeds its period");
  queue_ = PendingQueue::make(params_.queue_discipline(), params_.capacity(),
                              &arena_);
  remaining_ = params_.capacity();
  batch_.reserve(static_cast<std::size_t>(params_.batch_limit()));
}

void TaskServer::reserve(std::size_t expected_requests) {
  outcomes_.reserve(expected_requests);
  shed_events_.reserve(expected_requests);
}

void TaskServer::servable_event_released(
    ServableAsyncEventHandler* handler) {
  servable_event_released(handler, vm_.now());
}

void TaskServer::servable_event_released(ServableAsyncEventHandler* handler,
                                         rtsj::AbsoluteTime release) {
  TSF_ASSERT(handler != nullptr, "null handler released");
  Request r;
  r.handler = handler;
  r.release = release;
  r.seq = next_seq_++;
  ++released_;
  released_cost_ += handler->cost();
  vm_.trace().record(vm_.now(), common::TraceKind::kRelease,
                        handler->name());
  queue_->push(r);
  on_release(r);
}

void TaskServer::enable_dover(double importance_ratio) {
  TSF_ASSERT(queue_->empty(), "enable_dover on server " << params_.name()
                                  << " after requests were queued");
  DOverQueue::Config config;
  config.importance_ratio = importance_ratio;
  // Serving cost c on a bandwidth-limited server takes ~ c * period/capacity
  // of wall-clock virtual time — the scale of the feasibility test.
  config.bandwidth_num = params_.period().count();
  config.bandwidth_den = params_.capacity().count();
  config.now = [this] { return vm_.now(); };
  config.on_admit = [this](const Request& r, bool takeover) {
    vm_.trace().record(vm_.now(), common::TraceKind::kAdmit,
                       r.handler->name(), r.release.ticks(),
                       takeover ? std::string_view{"takeover"}
                                : std::string_view{});
    if (takeover) {
      model::ShedEvent ev;
      ev.kind = model::ShedEvent::Kind::kTakeover;
      ev.job = r.handler->name();
      ev.release = r.release;
      ev.at = vm_.now();
      ev.reason = "takeover";
      shed_events_.push_back(std::move(ev));
    }
  };
  config.on_demote = [this](const Request& r) {
    vm_.trace().record(vm_.now(), common::TraceKind::kDemote,
                       r.handler->name(), r.release.ticks());
  };
  config.on_shed = [this](const Request& r, const std::string& reason) {
    record_shed(r, reason);
  };
  queue_ = std::make_unique<DOverQueue>(std::move(config));
}

void TaskServer::record_shed(const Request& request,
                             std::string_view reason) {
  ++shed_count_;
  model::JobOutcome out;
  out.name = request.handler->name();
  out.release = request.release;
  out.cost = request.handler->cost();
  out.shed = true;
  outcomes_.push_back(std::move(out));
  vm_.trace().record(vm_.now(), common::TraceKind::kShed,
                     request.handler->name(), request.release.ticks(),
                     reason);
  model::ShedEvent ev;
  ev.kind = model::ShedEvent::Kind::kShed;
  ev.job = request.handler->name();
  ev.release = request.release;
  ev.at = vm_.now();
  ev.reason = reason;
  shed_events_.push_back(std::move(ev));
}

bool TaskServer::sheds_before(const Sheddable& a, const Sheddable& b) {
  if (a.density != b.density) return a.density < b.density;
  if (a.request.release != b.request.release) {
    return a.request.release < b.request.release;
  }
  const std::string& name_a = a.request.handler->name();
  const std::string& name_b = b.request.handler->name();
  if (name_a != name_b) return name_a < name_b;
  return a.position < b.position;
}

std::size_t TaskServer::shed_lowest_density(double budget_tu) {
  const rtsj::AbsoluteTime now = vm_.now();
  sheddable_.clear();
  std::size_t position = 0;
  queue_->visit([&](const Request& r) {
    const std::size_t at = position++;
    if (r.handler->relative_deadline().is_zero() || r.release >= now) return;
    // Lowest value density first frees the overshoot's worth of declared
    // cost while giving up the least scheduling value — the ordering
    // D-over's competitive argument is built on.
    const double density =
        r.handler->value() / std::max(1.0, r.handler->cost().to_tu());
    sheddable_.push_back(Sheddable{density, r, at});
  });

  // A heap pops the shed prefix in sheds_before order without ordering the
  // rest of the backlog; popped entries collect at the back.
  const auto sheds_after = [](const Sheddable& a, const Sheddable& b) {
    return sheds_before(b, a);
  };
  std::make_heap(sheddable_.begin(), sheddable_.end(), sheds_after);
  auto heap_end = sheddable_.end();
  double removed_tu = 0.0;
  while (heap_end != sheddable_.begin() && removed_tu < budget_tu) {
    std::pop_heap(sheddable_.begin(), heap_end, sheds_after);
    --heap_end;
    removed_tu += heap_end->request.handler->cost().to_tu();
  }
  if (heap_end == sheddable_.end()) return 0;

  // Sized with sheddable_, so it only ever grows when the backlog did.
  shed_seqs_.reserve(sheddable_.capacity());
  shed_seqs_.clear();
  for (auto it = heap_end; it != sheddable_.end(); ++it) {
    shed_seqs_.push_back(it->request.seq);
  }
  std::sort(shed_seqs_.begin(), shed_seqs_.end());
  queue_->remove_seqs(shed_seqs_);
  // The back holds the shed prefix in reverse pop order.
  for (auto it = sheddable_.end(); it != heap_end;) {
    --it;
    record_shed(it->request, "overload");
  }
  return static_cast<std::size_t>(sheddable_.end() - heap_end);
}

std::optional<Request> TaskServer::steal_pending_request(
    const StealEligibleFn& eligible, const StealBeforeFn& before) {
  // A release landing exactly on the current instant is still mid-bind: at
  // an epoch boundary the fabric drain (or a boundary-coincident timer)
  // just pushed it and the home server's wake-up is still in flight, so the
  // stealer must not take it out from under that wake-up. Strictly earlier
  // releases only.
  const rtsj::AbsoluteTime now = vm_.now();
  return queue_->steal(
      [&](const Request& r) { return r.release < now && eligible(r); },
      before);
}

std::size_t TaskServer::collect_batch(const FitsFn& head_fits,
                                      const BatchFitsFn& follow_fits) {
  batch_.clear();
  const std::size_t limit = static_cast<std::size_t>(params_.batch_limit());
  rtsj::RelativeTime planned = rtsj::RelativeTime::zero();
  while (batch_.size() < limit) {
    std::optional<Request> r =
        batch_.empty()
            ? queue_->pop_fitting(head_fits)
            : queue_->pop_fitting([&](rtsj::RelativeTime cost) {
                return follow_fits(cost, planned);
              });
    if (!r.has_value()) break;
    planned += r->handler->cost();
    batch_.push_back(std::move(*r));
  }
  return batch_.size();
}

TaskServer::DispatchResult TaskServer::dispatch_batch(
    std::size_t count, rtsj::RelativeTime budget) {
  TSF_ASSERT(count >= 1 && count <= batch_.size(),
             "dispatch_batch of " << count << " with " << batch_.size()
                                  << " collected");
  ++dispatches_;
  if (!params_.dispatch_overhead().is_zero()) {
    vm_.work(params_.dispatch_overhead());
  }
  const rtsj::AbsoluteTime batch_t0 = vm_.now();
  std::size_t started = 0;    // members whose label window opened
  std::size_t completed = 0;  // members whose body ran to the end
  rtsj::AbsoluteTime member_t0 = batch_t0;

  rtsj::Timed timed(vm_, budget);
  rtsj::InterruptibleFn body([&](rtsj::Timed& t) {
    for (std::size_t i = 0; i < count; ++i) {
      const Request& r = batch_[i];
      vm_.set_label(r.handler->name());
      member_t0 = vm_.now();
      started = i + 1;
      r.handler->run_logic(t);
      const rtsj::AbsoluteTime t1 = vm_.now();
      vm_.set_label(params_.name());
      model::JobOutcome out;
      out.name = r.handler->name();
      out.release = r.release;
      out.cost = r.handler->cost();
      out.start = member_t0;
      out.served = true;
      out.completion = t1;
      ++served_;
      // At the member's true instant, after its label window closed; the
      // release lets the invariant checker match the exact job served.
      vm_.trace().record(t1, common::TraceKind::kComplete,
                         r.handler->name(), r.release.ticks());
      outcomes_.push_back(std::move(out));
      completed = i + 1;
    }
  });
  const bool all = timed.do_interruptible(body);
  const rtsj::AbsoluteTime t_end = vm_.now();
  vm_.set_label(params_.name());

  if (!all) {
    // The member that was running when the budget expired.
    TSF_ASSERT(started == completed + 1, "interrupted batch bookkeeping");
    const Request& r = batch_[completed];
    model::JobOutcome out;
    out.name = r.handler->name();
    out.release = r.release;
    out.cost = r.handler->cost();
    out.start = member_t0;
    out.interrupted = true;
    ++interrupted_;
    vm_.trace().record(t_end, common::TraceKind::kAbort,
                       r.handler->name(), r.release.ticks());
    outcomes_.push_back(std::move(out));
    // The unstarted tail never began service: back to the front of the
    // queue, reverse order restoring the original sequence. Exactly-once
    // ledgers are untouched — these requests were neither served nor shed.
    for (std::size_t i = count; i > started; --i) {
      queue_->requeue(std::move(batch_[i - 1]));
    }
  }

  DispatchResult result;
  result.elapsed = t_end - batch_t0;
  result.served = all;
  return result;
}

std::vector<model::JobOutcome> TaskServer::final_outcomes() {
  std::vector<model::JobOutcome> out = outcomes_;
  for (const Request& r : queue_->drain()) {
    model::JobOutcome o;
    o.name = r.handler->name();
    o.release = r.release;
    o.cost = r.handler->cost();
    o.served = false;
    out.push_back(o);
  }
  return out;
}

rtsj::RelativeTime TaskServer::interference(rtsj::RelativeTime window) const {
  if (window <= rtsj::RelativeTime::zero()) return rtsj::RelativeTime::zero();
  const std::int64_t releases =
      (window.count() + params_.period().count() - 1) /
      params_.period().count();
  return params_.capacity() * releases;
}

}  // namespace tsf::core
