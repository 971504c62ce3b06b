#include "mp/overload.h"

#include <algorithm>
#include <utility>

#include "common/diag.h"
#include "exp/cross_core.h"
#include "mp/channel.h"
#include "mp/mp_system.h"

namespace tsf::mp {

using common::TimePoint;

std::vector<common::InvariantChecker::Violation> check_overload_invariants(
    const model::SystemSpec& spec, const MpRunResult& run) {
  common::InvariantChecker checker;
  for (const auto& job : spec.aperiodic_jobs) {
    checker.add_job(job.name, job.relative_deadline.count());
  }
  // Per-core streams (un-namespaced entity names, already time-ordered).
  for (std::size_t c = 0; c < run.per_core.size(); ++c) {
    checker.set_core(c);
    for (const auto& r : run.per_core[c].timeline.records()) {
      checker.record(r.at, r.kind, r.who, r.value, r.note);
    }
  }
  for (const auto& event : run.merged.shed_events) {
    checker.note_shed_ledger(event.core, event.job, event.release.ticks(),
                             event.kind == model::ShedEvent::Kind::kTakeover);
  }
  return checker.finish();
}

OverloadGovernor::OverloadGovernor(exp::OverloadConfig config,
                                   ChannelFabric& fabric,
                                   const model::SystemSpec& spec,
                                   const Partition& partition)
    : config_(std::move(config)),
      fabric_(fabric),
      meter_(fabric, spec, config_.period) {
  TSF_ASSERT(config_.mode == exp::OverloadMode::kShed,
             "only mode 'shed' needs a governor");
  TSF_ASSERT(config_.threshold > 0.0, "overload_threshold must be positive");
  TSF_ASSERT(partition.cores.size() == fabric_.cores(),
             "partition and fabric disagree on the core count");
  for (const auto& core : partition.cores) serves_.push_back(core.has_server);
}

bool OverloadGovernor::shed_pass(TimePoint boundary) {
  const std::vector<double>& measured = meter_.utilization();
  bool ran = false;
  for (std::size_t c = 0; c < fabric_.cores(); ++c) {
    if (!serves_[c]) continue;
    if (measured[c] <= config_.threshold) continue;
    exp::CoreEndpoint* endpoint = fabric_.endpoint(c);
    ran = true;

    auto candidates = endpoint->shed_candidates();
    if (candidates.empty()) continue;
    // Lowest value density first: shedding frees the overshoot's worth of
    // declared cost while giving up the least scheduling value — the same
    // value-density ordering D-over's competitive argument is built on.
    // Ties break on (release, name) so the pass is deterministic for any
    // candidate enumeration order.
    std::sort(candidates.begin(), candidates.end(),
              [](const exp::CoreEndpoint::ShedCandidate& a,
                 const exp::CoreEndpoint::ShedCandidate& b) {
                const double da =
                    a.value / std::max(1.0, a.declared_cost.to_tu());
                const double db =
                    b.value / std::max(1.0, b.declared_cost.to_tu());
                if (da != db) return da < db;
                if (a.release != b.release) return a.release < b.release;
                return a.job < b.job;
              });

    // Budget: the overshoot rate sustained over one measurement window of
    // declared cost. Shedding more would throw away work a <=threshold core
    // could still serve; shedding less leaves the core re-triggering every
    // pass with the same backlog.
    const double overshoot = measured[c] - config_.threshold;
    const double budget_tu = overshoot * config_.period.to_tu();
    double removed_tu = 0.0;
    for (const auto& cand : candidates) {
      if (removed_tu >= budget_tu) break;
      if (!endpoint->shed_exact(cand.job, cand.release)) continue;
      removed_tu += cand.declared_cost.to_tu();
      ++sheds_;
    }
  }
  (void)boundary;
  return ran;
}

void OverloadGovernor::on_epoch(TimePoint boundary) {
  meter_.sample(boundary);
  if (boundary - last_pass_ < config_.period) return;
  if (shed_pass(boundary)) {
    ++passes_;
    last_pass_ = boundary;
  }
}

}  // namespace tsf::mp
