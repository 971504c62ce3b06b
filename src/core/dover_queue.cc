#include "core/dover_queue.h"

#include <algorithm>

#include "common/diag.h"
#include "core/servable_async_event_handler.h"

namespace tsf::core {

namespace {

// Declared cost, the same signal the other disciplines schedule on.
rtsj::RelativeTime declared(const Request& r) { return r.handler->cost(); }

}  // namespace

DOverQueue::DOverQueue(Config config) : config_(std::move(config)) {
  TSF_ASSERT(config_.bandwidth_num > 0 && config_.bandwidth_den > 0,
             "dover queue needs a positive server bandwidth");
  TSF_ASSERT(config_.now && config_.on_admit &&
                 config_.on_demote && config_.on_shed,
             "dover queue needs every callback wired");
}

rtsj::RelativeTime DOverQueue::scaled(rtsj::RelativeTime cost) const {
  const std::int64_t ticks =
      (cost.count() * config_.bandwidth_num + config_.bandwidth_den - 1) /
      config_.bandwidth_den;
  return rtsj::RelativeTime::ticks(ticks);
}

rtsj::AbsoluteTime DOverQueue::latest_start(const Entry& e) const {
  return e.deadline - scaled(declared(e.request));
}

bool DOverQueue::admissible(const Entry& candidate, rtsj::AbsoluteTime now) {
  demand_.clear();
  for (const auto& e : entries_) {
    if (e.privileged) {
      demand_.push_back({e.deadline, scaled(declared(e.request))});
    }
  }
  demand_.push_back(
      {candidate.deadline, scaled(declared(candidate.request))});
  return analysis::dover::demand_feasible(now, demand_);
}

bool DOverQueue::edf_before(const Entry& a, const Entry& b) {
  if (a.deadline != b.deadline) return a.deadline < b.deadline;
  return a.request.seq < b.request.seq;
}

std::optional<Request> DOverQueue::take(std::size_t i) {
  if (i == entries_.size()) return std::nullopt;
  Request r = std::move(entries_[i].request);
  entries_.erase(entries_.begin() + static_cast<std::ptrdiff_t>(i));
  return r;
}

void DOverQueue::push(Request r) {
  const rtsj::RelativeTime relative = r.handler->relative_deadline();
  const rtsj::AbsoluteTime deadline =
      relative.is_zero() ? rtsj::AbsoluteTime::never() : r.release + relative;
  entries_.push_back(Entry{std::move(r), deadline});
  reconcile();
}

void DOverQueue::reconcile() {
  const rtsj::AbsoluteTime now = config_.now();
  // One sweep per instant of the server-time model (see the header);
  // `changed` loops until a sweep alters nothing.
  const rtsj::RelativeTime period =
      rtsj::RelativeTime::ticks(config_.bandwidth_num);
  bool changed = true;
  while (changed) {
    changed = false;

    // 1. Privileged firm entries that can no longer complete even if started
    //    immediately: demote out of the set, then shed.
    for (auto it = entries_.begin(); it != entries_.end();) {
      if (it->privileged && !it->deadline.is_never() &&
          now > latest_start(*it)) {
        config_.on_demote(it->request);
        config_.on_shed(it->request, "missed-lst");
        it = entries_.erase(it);
        changed = true;
      } else {
        ++it;
      }
    }

    // 2. Waiting entries, earliest deadline first: admit any that pass the
    //    feasibility test against the current privileged set. Soft entries
    //    (deadline = never) always pass — they cannot constrain the test.
    order_.clear();
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      if (!entries_[i].privileged) order_.push_back(i);
    }
    std::sort(order_.begin(), order_.end(), [&](std::size_t a, std::size_t b) {
      return edf_before(entries_[a], entries_[b]);
    });
    for (std::size_t idx : order_) {
      Entry& e = entries_[idx];
      if (now > latest_start(e)) continue;  // handled by step 3
      if (admissible(e, now)) {
        e.privileged = true;
        config_.on_admit(e.request, /*takeover=*/false);
        changed = true;
      }
    }
    if (changed) continue;

    // 3. The LST rule, one critical entry per sweep: a waiting firm entry
    //    whose LST is within one server period takes over if it wins
    //    against the privileged firm value; otherwise (or if it can no
    //    longer complete, or already had its decision) it is shed.
    for (std::size_t idx : order_) {
      Entry& e = entries_[idx];
      if (e.deadline.is_never()) continue;
      const rtsj::AbsoluteTime lst = latest_start(e);
      if (lst >= now + period) continue;  // not critical yet
      const bool completable = now <= lst;
      if (completable && !e.lst_fired) {
        e.lst_fired = true;
        double privileged_value = 0.0;
        for (const auto& p : entries_) {
          if (p.privileged && !p.deadline.is_never()) {
            privileged_value += p.request.handler->value();
          }
        }
        if (analysis::dover::takes_over(e.request.handler->value(),
                                        privileged_value,
                                        config_.importance_ratio)) {
          for (auto& p : entries_) {
            if (p.privileged && !p.deadline.is_never()) {
              p.privileged = false;
              config_.on_demote(p.request);
            }
          }
          e.privileged = true;
          config_.on_admit(e.request, /*takeover=*/true);
          changed = true;
          break;
        }
      }
      config_.on_shed(e.request, "lst");
      take(idx);
      changed = true;
      break;
    }
  }
}

std::optional<Request> DOverQueue::pop_fitting(const FitsFn& fits) {
  reconcile();
  // EDF over the privileged set, first-fit on the server's capacity rule.
  std::size_t best = entries_.size();
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    if (!e.privileged || !fits(declared(e.request))) continue;
    if (best == entries_.size() || edf_before(e, entries_[best])) best = i;
  }
  return take(best);
}

std::vector<Request> DOverQueue::drain() {
  std::vector<Request> out;
  out.reserve(entries_.size());
  for (auto& e : entries_) out.push_back(std::move(e.request));
  entries_.clear();
  return out;
}

std::optional<Request> DOverQueue::steal(const StealEligibleFn& eligible,
                                         const StealBeforeFn& before) {
  std::size_t best = entries_.size();
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (!eligible(entries_[i].request)) continue;
    if (best == entries_.size() ||
        before(entries_[i].request, entries_[best].request)) {
      best = i;
    }
  }
  // A privileged entry leaving for another core exits the admitted set
  // first, so the invariant checker never sees admitted work vanish.
  if (best < entries_.size() && entries_[best].privileged) {
    config_.on_demote(entries_[best].request);
  }
  return take(best);
}

void DOverQueue::visit(const VisitFn& fn) const {
  for (const auto& e : entries_) fn(e.request);
}

void DOverQueue::remove_seqs(std::span<const std::uint64_t> seqs) {
  const auto listed = [&](const Entry& e) {
    return std::binary_search(seqs.begin(), seqs.end(), e.request.seq);
  };
  for (const auto& e : entries_) {
    if (e.privileged && listed(e)) config_.on_demote(e.request);
  }
  entries_.erase(std::remove_if(entries_.begin(), entries_.end(), listed),
                 entries_.end());
}

std::size_t DOverQueue::privileged_count() const {
  std::size_t n = 0;
  for (const auto& e : entries_) {
    if (e.privileged) ++n;
  }
  return n;
}

}  // namespace tsf::core
