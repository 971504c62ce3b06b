// Boundary elision: MultiVm runs a boundary only at the grid points at
// which boundary() can act (multi_vm.h). "mp.epochs" counts the boundaries
// executed, on either backend: one for a run in which nothing can cross
// cores, ceil(horizon / quantum) whenever a boundary can deliver, steal,
// sample or react at any grid point. A later change that elides a
// governor's or rebalancer's sampling instant, or a migration's delivery
// point, fails here. That elision changes no trace is pinned elsewhere:
// tests/mp/epoch_property_test.cc pauses the VMs of generated systems at
// every grid point, and backend_equivalence_test.cc compares both backends
// on elided runs (the D-over storms).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "common/metrics_registry.h"
#include "gen/generator.h"
#include "gen/storms.h"
#include "mp/mp_system.h"

namespace tsf::mp {
namespace {

using common::Duration;
using common::TimePoint;

Duration tu(std::int64_t n) { return Duration::time_units(n); }

gen::MpGeneratorParams generated_params(int cores, int index) {
  gen::MpGeneratorParams p;
  p.cores = cores;
  p.seed = 4000 + static_cast<std::uint64_t>(index) * 11 +
           static_cast<std::uint64_t>(cores);
  p.tasks_per_core = 2 + static_cast<std::size_t>(index % 3);
  p.per_core_utilization = 0.2 + 0.1 * (index % 4);
  p.task_density = 0.75 + 0.5 * (index % 3);
  p.average_cost_tu = 0.5 + 0.25 * (index % 3);
  p.std_deviation_tu = 0.2;
  p.period_min = tu(3);
  p.period_max = tu(30);
  p.policy = index % 2 != 0 ? model::ServerPolicy::kPolling
                            : model::ServerPolicy::kDeferrable;
  p.horizon_periods = 12;
  return p;
}

model::SystemSpec storm(gen::StormShape shape) {
  gen::StormParams params;
  params.shape = shape;
  params.server_capacity = tu(1);
  params.horizon_periods = 4;
  params.overload_factor = 4.0;
  return gen::make_storm(params);
}

constexpr gen::StormShape kStormShapes[] = {
    gen::StormShape::kRouterPacketStorm, gen::StormShape::kMarketOpenBurst,
    gen::StormShape::kCascadingFaultBurst};

constexpr ExecBackend kBackends[] = {ExecBackend::kLockstep,
                                     ExecBackend::kThreads};

std::uint64_t epochs(const model::SystemSpec& spec, MpRunOptions options,
                     ExecBackend backend) {
  common::MetricsRegistry metrics;
  options.metrics = &metrics;
  options.backend = backend;
  run(spec, options);
  return metrics.counter("mp.epochs");
}

// Every grid point: ceil(horizon / quantum).
std::uint64_t grid_points(const model::SystemSpec& spec, Duration quantum) {
  const Duration whole = spec.horizon - TimePoint::origin();
  return static_cast<std::uint64_t>((whole + quantum - Duration::ticks(1)) /
                                    quantum);
}

TEST(BoundaryElision, FireFreePartitionedRunsAreOneEpoch) {
  for (const auto backend : kBackends) {
    for (const Duration quantum : {Duration::from_tu(0.5), tu(1), tu(5)}) {
      const std::string where = std::string(to_string(backend)) +
                                ", quantum " + common::to_string(quantum);
      MpRunOptions options;
      options.quantum = quantum;
      for (const int cores : {1, 2, 4}) {
        for (int i = 0; i < 4; ++i) {
          const auto spec =
              gen::generate_mp_system(generated_params(cores, i));
          EXPECT_EQ(epochs(spec, options, backend), 1u)
              << cores << " cores, system " << i << ", " << where;
        }
      }
      options.exec.overload.mode = exp::OverloadMode::kDover;
      for (const auto shape : kStormShapes) {
        EXPECT_EQ(epochs(storm(shape), options, backend), 1u)
            << "dover " << gen::to_string(shape) << ", " << where;
      }
    }
  }
}

// A boundary that delivers, samples the load meter or reacts to a
// completion can act at any grid point, so none is elided: a migration is
// delivered at the first grid point >= its due instant, and an elided
// sampling instant changes what the governor or rebalancer measures.
TEST(BoundaryElision, BoundariesThatCanActAreAllKept) {
  auto fires = gen::generate_mp_system(generated_params(2, 1));
  fires.aperiodic_jobs.front().fires = fires.aperiodic_jobs.back().name;
  const auto generated = gen::generate_mp_system(generated_params(4, 2));
  // Every third aperiodic job migratable (the generator makes none), due
  // off the grid.
  auto migrate = gen::generate_mp_system(generated_params(2, 3));
  for (std::size_t j = 2; j < migrate.aperiodic_jobs.size(); j += 3) {
    migrate.aperiodic_jobs[j].migrate = true;
  }
  migrate.channel_latency = Duration::from_tu(0.3);
  const auto router = storm(gen::StormShape::kRouterPacketStorm);

  for (const auto backend : kBackends) {
    for (const Duration quantum : {Duration::from_tu(0.5), tu(5)}) {
      MpRunOptions base;
      base.quantum = quantum;
      MpRunOptions global = base;
      global.policy = SchedPolicy::kGlobal;
      MpRunOptions shed = base;
      shed.exec.overload.mode = exp::OverloadMode::kShed;
      shed.exec.overload.threshold = 0.75;
      shed.exec.overload.period = tu(6);
      MpRunOptions drift = base;
      drift.rebalance.mode = RebalanceMode::kDrift;
      drift.rebalance.drift = 0.05;
      drift.rebalance.period = tu(4);
      MpRunOptions semi = base;
      semi.policy = SchedPolicy::kSemiPartitioned;

      const struct {
        const char* label;
        const model::SystemSpec& spec;
        const MpRunOptions& options;
      } cells[] = {
          {"migrate", migrate, base},
          {"policy = global", generated, global},
          {"overload = shed", router, shed},
          {"rebalance = drift", generated, drift},
          {"policy = semi", generated, semi},
          {"fires", fires, base},
      };
      for (const auto& cell : cells) {
        EXPECT_EQ(epochs(cell.spec, cell.options, backend),
                  grid_points(cell.spec, quantum))
            << cell.label << ", " << to_string(backend) << ", quantum "
            << common::to_string(quantum);
      }
    }
  }
}

}  // namespace
}  // namespace tsf::mp
