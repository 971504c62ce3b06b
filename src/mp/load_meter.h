// LoadMeter — the measured per-core utilization the boundary policies act on.
//
// The Rebalancer and the OverloadGovernor both decide from the same
// quantity: each core's periodic load plus the aperiodic work it was
// offered over a sliding window. One meter implements it; each policy holds
// its own instance sized to its own knob (`rebalance_period` /
// `overload_period`). Sampled at epoch boundaries only, while every VM is
// paused, so the measurement depends on (specs, quantum) alone.
//
// Per core and sample:
//  * periodic load — CoreEndpoint::periodic_utilization(), read live, so a
//    task the rebalancer admits online counts in every meter from the next
//    sample on;
//  * offered aperiodic rate — the growth of CoreEndpoint::released_cost()
//    over the window (the newest sample at least one window old is the
//    base), minus declared cost moved *in* by a re-releasing delivery.
//    kSteal and kRebalance moves re-release their job on the receiver; that
//    is moved backlog, not freshly offered work, and counting it would
//    manufacture drift at the move's own target. The fabric ledger names
//    every such move, whoever made it. kPool / kMigrate / kFire deliveries
//    and kRebalance admissions (from_core == kNoCore) are first releases
//    and stay counted.
#pragma once

#include <cstddef>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "common/annotations.h"
#include "common/time.h"
#include "model/spec.h"

namespace tsf::mp {

class ChannelFabric;

class LoadMeter {
 public:
  // Every endpoint of `fabric` must be connected; `fabric` must outlive
  // the meter. `spec` supplies the declared cost of every movable job.
  LoadMeter(const ChannelFabric& fabric, const model::SystemSpec& spec,
            common::Duration window);

  // Takes the boundary's sample and refreshes utilization().
  TSF_BARRIER_ONLY
  void sample(common::TimePoint boundary);

  // The latest measurement per core (before the first sample: the
  // periodic load alone).
  const std::vector<double>& utilization() const { return measured_; }

  // Books `u` onto core `core`'s latest measurement — a task admitted
  // after this boundary's sample.
  void add(std::size_t core, double u) { measured_[core] += u; }

 private:
  struct Sample {
    common::TimePoint at;
    common::Duration released_cost;
  };

  const ChannelFabric& fabric_;
  common::Duration window_;
  std::vector<std::deque<Sample>> samples_;
  std::vector<double> measured_;
  std::vector<common::Duration> migrated_in_;
  std::map<std::string, common::Duration> declared_;  // job -> declared cost
  std::size_t ledger_seen_ = 0;  // fabric deliveries already accounted
};

}  // namespace tsf::mp
