// Utilization-based admission control at the epoch boundaries —
// the `[run] overload = shed` policy.
//
// The governor runs inside the MultiVm epoch boundary, after the fabric
// drain, the scheduling-policy engine and the rebalancer, while every
// per-core VM is paused — so its decisions depend only on (specs, quantum),
// never on host scheduling. Per epoch it measures each core's utilization
// with the rebalancer's LoadMeter (mp/load_meter.h) over a window of
// `period`; when a core's measured utilization
// exceeds `threshold`, the pass hands that core a budget — the overshoot's
// worth of declared cost over one window — and the core's
// CoreEndpoint::shed_lowest_density drops pending *sheddable* work — firm
// (deadline-carrying), released before the boundary, not being served —
// lowest value density first until the budget is spent, recording the shed
// outcome, the kShed trace record and the exactly-once ledger entry the
// invariant checker reconciles (FORBIDDEN_BEHAVIOR_CATALOG.md). The shed
// order lives only there (core::TaskServer::shed_lowest_density); the
// governor keeps the measurement and the budget arithmetic. A pass costs
// one walk over each overloaded core's queue and a linear heap build, plus
// O(log n) per job it sheds — never a sort of the whole backlog.
//
// Passes are rate-limited to one per `period`, sharing the knob with the
// measurement window — the spec's `overload_period`.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/annotations.h"
#include "common/invariant_checker.h"
#include "common/time.h"
#include "exp/overload.h"
#include "model/spec.h"
#include "mp/load_meter.h"
#include "mp/partition.h"

namespace tsf::mp {

class ChannelFabric;
struct MpRunResult;

// Replays a finished run through the forbidden-behavior checker
// (common/invariant_checker.h): per-core timelines stream in core order,
// the merged shed/takeover ledger reconciles against the kShed records.
// Empty result == conforming run; every passing storm run must be. Works
// for ANY overload mode, including off (where it degenerates to "nothing
// was shed and no ledger exists").
std::vector<common::InvariantChecker::Violation> check_overload_invariants(
    const model::SystemSpec& spec, const MpRunResult& run);

class OverloadGovernor {
 public:
  // `fabric` (with every endpoint connected) and `spec` must outlive the
  // governor; `partition` must be the one the per-core specs were split
  // from. Only mode kShed needs a governor (kDover sheds inside the
  // per-core queues).
  OverloadGovernor(exp::OverloadConfig config, ChannelFabric& fabric,
                   const model::SystemSpec& spec, const Partition& partition);

  // The boundary hook: sample loads, then (rate-limited) shed overshoot.
  // Invoked last at every epoch boundary, while every VM is paused there.
  TSF_BARRIER_ONLY
  void on_epoch(common::TimePoint boundary);

  // --- results ---
  std::uint64_t passes() const { return passes_; }
  std::uint64_t sheds() const { return sheds_; }
  const std::vector<double>& measured_utilization() const {
    return meter_.utilization();
  }

 private:
  bool shed_pass();

  exp::OverloadConfig config_;
  ChannelFabric& fabric_;
  LoadMeter meter_;
  std::vector<bool> serves_;
  common::TimePoint last_pass_ = common::TimePoint::origin();
  std::uint64_t passes_ = 0;
  std::uint64_t sheds_ = 0;
};

}  // namespace tsf::mp
