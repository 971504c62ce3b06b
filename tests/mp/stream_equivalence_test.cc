// Streaming consumers attached to the per-core record streams must observe
// exactly the trace the engines materialize. The lock-step VMs pause at
// every epoch boundary, so these suites check that a pause leaves no mark
// on the live stream — across the partitioned baseline with channel
// traffic, the global pool, semi-partitioned stealing, and the online
// rebalancer.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/metrics_registry.h"
#include "common/trace.h"
#include "common/trace_sink.h"
#include "common/trace_stream.h"
#include "mp/mp_system.h"

namespace tsf::mp {
namespace {

using common::Duration;
using common::TimePoint;

Duration tu(std::int64_t n) { return Duration::time_units(n); }
TimePoint at_tu(std::int64_t n) {
  return TimePoint::origin() + Duration::time_units(n);
}

model::SystemSpec busy_spec(int cores) {
  model::SystemSpec spec;
  spec.name = "stream-eq";
  spec.cores = cores;
  spec.server.policy = model::ServerPolicy::kDeferrable;
  spec.server.capacity = tu(2);
  spec.server.period = tu(6);
  spec.server.priority = 30;
  for (int c = 0; c < cores; ++c) {
    model::PeriodicTaskSpec t;
    t.name = "tau" + std::to_string(c);
    t.period = tu(8);
    t.cost = tu(3);
    t.priority = 10;
    spec.periodic_tasks.push_back(t);
  }
  for (int j = 0; j < 8; ++j) {
    model::AperiodicJobSpec job;
    job.name = "a" + std::to_string(j);
    job.release = at_tu(1 + 2 * j);
    job.cost = tu(1);
    spec.aperiodic_jobs.push_back(job);
  }
  // Channel traffic: a remote fire chain and a migratable job.
  spec.aperiodic_jobs[0].fires = "trig";
  model::AperiodicJobSpec trig;
  trig.name = "trig";
  trig.triggered = true;
  trig.cost = tu(1);
  spec.aperiodic_jobs.push_back(trig);
  model::AperiodicJobSpec roam;
  roam.name = "roam";
  roam.release = at_tu(5);
  roam.cost = tu(1);
  roam.migrate = true;
  spec.aperiodic_jobs.push_back(roam);
  spec.horizon = at_tu(24);
  return spec;
}

void expect_streams_match(const model::SystemSpec& spec,
                          MpRunOptions options) {
  std::vector<std::unique_ptr<common::StreamingFingerprint>> prints;
  for (int c = 0; c < spec.cores; ++c) {
    prints.push_back(std::make_unique<common::StreamingFingerprint>());
    options.core_trace_sinks.push_back(prints.back().get());
  }
  const auto run = mp::run(spec, options);
  ASSERT_EQ(run.per_core.size(), prints.size());
  for (std::size_t c = 0; c < prints.size(); ++c) {
    EXPECT_EQ(prints[c]->digest(),
              common::fingerprint(run.per_core[c].timeline))
        << "core " << c;
    EXPECT_EQ(prints[c]->records(), run.per_core[c].timeline.records().size())
        << "core " << c;
  }
}

TEST(StreamEquivalence, PartitionedLockstepWithChannels) {
  expect_streams_match(busy_spec(2), MpRunOptions{});
}

TEST(StreamEquivalence, GlobalPool) {
  MpRunOptions options;
  options.policy = SchedPolicy::kGlobal;
  expect_streams_match(busy_spec(2), options);
}

TEST(StreamEquivalence, SemiPartitionedStealing) {
  MpRunOptions options;
  options.policy = SchedPolicy::kSemiPartitioned;
  expect_streams_match(busy_spec(3), options);
}

TEST(StreamEquivalence, DriftRebalance) {
  MpRunOptions options;
  options.rebalance.mode = RebalanceMode::kDrift;
  options.rebalance.drift = 0.05;
  options.rebalance.period = tu(4);
  expect_streams_match(busy_spec(2), options);
}

TEST(StreamEquivalence, StreamingMetricsAgreeWithBusyIntervals) {
  const auto spec = busy_spec(2);
  MpRunOptions options;
  common::StreamingTraceMetrics metrics;
  options.core_trace_sinks.push_back(&metrics);
  const auto run = mp::run(spec, options);

  const auto& timeline = run.per_core[0].timeline;
  std::int64_t busy = 0;
  for (const auto& entity : timeline.entities()) {
    for (const auto& iv : timeline.busy_intervals(entity)) {
      busy += (iv.end - iv.begin).count();
    }
  }
  EXPECT_EQ(metrics.busy_ticks(), busy);
  EXPECT_EQ(metrics.records(), timeline.records().size());
  EXPECT_EQ(metrics.entity_count(), timeline.entities().size());
}

// The mp.core.N.utilization gauges come from one streaming pass per core;
// they must equal, to the last bit, the per-entity busy-interval sum they
// were first defined by (kept here as the reference).
TEST(StreamEquivalence, UtilizationGaugesMatchPerEntityBusyIntervals) {
  for (const auto policy : {SchedPolicy::kPartitioned, SchedPolicy::kGlobal,
                            SchedPolicy::kSemiPartitioned}) {
    const auto spec = busy_spec(3);
    common::MetricsRegistry metrics;
    MpRunOptions options;
    options.policy = policy;
    options.metrics = &metrics;
    const auto run = mp::run(spec, options);
    const double horizon_ticks =
        static_cast<double>((spec.horizon - TimePoint::origin()).count());
    for (std::size_t c = 0; c < run.per_core.size(); ++c) {
      const auto& timeline = run.per_core[c].timeline;
      std::int64_t busy = 0;
      for (const auto& who : timeline.entities()) {
        for (const auto& iv : timeline.busy_intervals(who)) {
          busy += (iv.end - iv.begin).count();
        }
      }
      const double reference = static_cast<double>(busy) / horizon_ticks;
      const double gauge =
          metrics.gauge("mp.core." + std::to_string(c) + ".utilization");
      EXPECT_EQ(std::memcmp(&gauge, &reference, sizeof gauge), 0)
          << to_string(policy) << " core " << c << ": " << gauge << " vs "
          << reference;
      EXPECT_GT(gauge, 0.0);
    }
  }
}

}  // namespace
}  // namespace tsf::mp
