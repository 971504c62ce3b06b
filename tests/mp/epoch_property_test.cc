// Seeded property: an epoch boundary is invisible. Generated partitioned
// systems (1, 2 and 4 cores, no cross-core traffic) must produce one merged
// trace fingerprint at every epoch quantum, from a third of a time unit to
// the whole horizon in one epoch. A boundary that lands on an instant where
// a fiber yields while a timer is due used to reorder that instant's
// records (the VM dispatched the next fiber before firing the timer unless
// a pause had already fired it).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/trace.h"
#include "gen/generator.h"
#include "mp/mp_system.h"

namespace tsf::mp {
namespace {

using common::Duration;
using common::TimePoint;

constexpr int kSystemsPerCoreCount = 60;

gen::MpGeneratorParams system_params(int cores, int index) {
  gen::MpGeneratorParams p;
  p.cores = cores;
  p.seed = 1000 + static_cast<std::uint64_t>(index) * 7 +
           static_cast<std::uint64_t>(cores);
  p.tasks_per_core = 2 + static_cast<std::size_t>(index % 4);
  p.per_core_utilization = 0.2 + 0.1 * (index % 5);
  p.task_density = 0.5 + 0.25 * (index % 6);
  p.average_cost_tu = 0.5 + 0.25 * (index % 3);
  p.std_deviation_tu = 0.2;
  p.period_min = Duration::time_units(3);
  p.period_max = Duration::time_units(30);
  p.policy = index % 2 != 0 ? model::ServerPolicy::kPolling
                            : model::ServerPolicy::kDeferrable;
  p.horizon_periods = 8;
  return p;
}

TEST(EpochProperty, QuantumNeverChangesTheTrace) {
  int systems = 0;
  for (const int cores : {1, 2, 4}) {
    for (int i = 0; i < kSystemsPerCoreCount; ++i) {
      const auto spec = gen::generate_mp_system(system_params(cores, i));
      const Duration whole = spec.horizon - TimePoint::origin();
      const std::vector<Duration> quanta = {
          Duration::ticks(Duration::kTicksPerTimeUnit / 3),
          Duration::ticks(Duration::kTicksPerTimeUnit / 2),
          Duration::time_units(1),
          Duration::time_units(5),
          Duration::time_units(10),
          whole};
      std::vector<std::uint64_t> prints;
      for (const Duration quantum : quanta) {
        MpRunOptions options;
        options.quantum = quantum;
        prints.push_back(
            common::fingerprint(run(spec, options).merged.timeline));
      }
      for (std::size_t q = 1; q < quanta.size(); ++q) {
        EXPECT_EQ(prints[q], prints[0])
            << cores << " cores, system " << i << ", quantum "
            << common::to_string(quanta[q]) << " vs "
            << common::to_string(quanta[0]);
      }
      ++systems;
    }
  }
  EXPECT_GE(systems, 150);
}

}  // namespace
}  // namespace tsf::mp
