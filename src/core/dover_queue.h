// D-over as a pending-queue discipline: the rules of analysis/dover.h
// applied to a TaskServer's pending releases.
//
// Time model: sweeps run in *server time* at discrete instants (every push
// and every dispatch attempt), not at exact LST timers. Demand is the
// declared cost scaled by period/capacity (rounded up), roughly its
// wall-clock service time on the bandwidth-limited server. A waiting entry
// is decided once its LST falls within one server period, and only once:
// an entry demoted after its takeover is shed at its next critical
// instant. Each entry's value and relative deadline are read off its
// handler (ServableAsyncEventHandler::value / relative_deadline); a zero
// relative deadline makes it soft: always admitted, never shed.
//
// Admission, demotion and shedding are reported through callbacks so the
// owning TaskServer can emit the kAdmit/kDemote/kShed trace records and the
// exactly-once ledger the invariant checker reconciles
// (FORBIDDEN_BEHAVIOR_CATALOG.md).
#pragma once

#include <functional>
#include <string>

#include "analysis/dover.h"
#include "core/pending_queue.h"

namespace tsf::core {

class DOverQueue : public PendingQueue {
 public:
  struct Config {
    // k: max/min ratio of value densities across the job set (>= 1).
    double importance_ratio = 1.0;
    // Server-time scaling: serving cost c takes ~ c * num/den wall-clock
    // (num = server period ticks, den = server capacity ticks).
    std::int64_t bandwidth_num = 1;
    std::int64_t bandwidth_den = 1;
    std::function<rtsj::AbsoluteTime()> now;
    // takeover = admitted by demoting the privileged set.
    std::function<void(const Request&, bool takeover)> on_admit;
    std::function<void(const Request&)> on_demote;
    // reason: "lst" (waiting entry expired, lost the takeover test) or
    // "missed-lst" (privileged entry could no longer make its deadline).
    std::function<void(const Request&, const std::string& reason)> on_shed;
  };

  explicit DOverQueue(Config config);

  TSF_REALTIME
  void push(Request r) override;
  // Earliest-deadline privileged entry that satisfies `fits` (EDF with
  // first-fit skipping, mirroring the paper's chooseNextEvent adaptation).
  TSF_REALTIME
  std::optional<Request> pop_fitting(const FitsFn& fits) override;
  bool empty() const override { return entries_.empty(); }
  std::size_t size() const override { return entries_.size(); }
  TSF_BARRIER_ONLY
  std::vector<Request> drain() override;
  TSF_BARRIER_ONLY
  std::optional<Request> steal(const StealEligibleFn& eligible,
                               const StealBeforeFn& before) override;
  void visit(const VisitFn& fn) const override;
  // A privileged entry is demoted before it leaves, as steal does.
  TSF_BARRIER_ONLY TSF_NO_ALLOC
  void remove_seqs(std::span<const std::uint64_t> seqs) override;

  std::size_t privileged_count() const;

 private:
  struct Entry {
    Request request;
    rtsj::AbsoluteTime deadline;  // never() = soft
    bool privileged = false;
    bool lst_fired = false;  // the one LST decision was made
  };

  // Wall-clock service-time upper bound for a declared cost.
  rtsj::RelativeTime scaled(rtsj::RelativeTime cost) const;
  rtsj::AbsoluteTime latest_start(const Entry& e) const;
  // Would the privileged set stay feasible with `candidate` added?
  bool admissible(const Entry& candidate, rtsj::AbsoluteTime now);
  // Admission / takeover / shedding sweep at the current instant.
  void reconcile();
  // EDF order: earlier deadline, then earlier release sequence.
  static bool edf_before(const Entry& a, const Entry& b);
  // Removes entries_[i] and returns its request; nullopt for i == size().
  std::optional<Request> take(std::size_t i);

  Config config_;
  std::vector<Entry> entries_;  // arrival order
  // Scratch reused by every sweep, so the steady state never allocates.
  std::vector<analysis::dover::Demand> demand_;
  std::vector<std::size_t> order_;
};

}  // namespace tsf::core
