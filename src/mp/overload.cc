#include "mp/overload.h"

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

bool OverloadGovernor::shed_pass() {
  const std::vector<double>& measured = meter_.utilization();
  bool ran = false;
  for (std::size_t c = 0; c < fabric_.cores(); ++c) {
    if (!serves_[c]) continue;
    if (measured[c] <= config_.threshold) continue;
    ran = true;
    // Budget: the overshoot rate sustained over one measurement window of
    // declared cost. Shedding more would throw away work a <=threshold core
    // could still serve; shedding less leaves the core re-triggering every
    // pass with the same backlog.
    const double overshoot = measured[c] - config_.threshold;
    sheds_ += fabric_.endpoint(c)->shed_lowest_density(
        overshoot * config_.period.to_tu());
  }
  return ran;
}

void OverloadGovernor::on_epoch(TimePoint boundary) {
  meter_.sample(boundary);
  if (boundary - last_pass_ < config_.period) return;
  if (shed_pass()) {
    ++passes_;
    last_pass_ = boundary;
  }
}

}  // namespace tsf::mp
