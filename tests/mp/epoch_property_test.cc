// Seeded property: a VM pause is invisible. Generated partitioned systems
// (1, 2 and 4 cores, no cross-core traffic) are split per core; each core's
// exp::ExecSystem runs on its own VirtualMachine, paused by run_until at
// every grid point of six quanta, from a third of a time unit to the whole
// horizon, and must give the fingerprint of one run_until(horizon) call.
// MultiVm elides every boundary of such a system (mp/multi_vm.h), so the
// property is held at the layer where the pauses still happen. A pause that
// lands on an instant where a fiber yields while a timer is due used to
// reorder that instant's records (the VM dispatched the next fiber before
// firing the timer unless a pause had already fired it).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/trace.h"
#include "exp/exec_runner.h"
#include "gen/generator.h"
#include "mp/mp_system.h"
#include "mp/partition.h"
#include "rtsj/vm/vm.h"

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

// One core's sub-spec on its own VM, paused at every multiple of `quantum`
// (the last run clipped to the horizon).
std::uint64_t stepped_fingerprint(const model::SystemSpec& sub,
                                  Duration quantum) {
  const exp::ExecOptions options;
  rtsj::vm::VirtualMachine vm(options.kernel);
  exp::ExecSystem system(vm, sub, options);
  system.start();
  for (TimePoint t = TimePoint::origin(); t < sub.horizon;) {
    t = common::min(t + quantum, sub.horizon);
    vm.run_until(t);
  }
  return common::fingerprint(system.collect().timeline);
}

TEST(EpochProperty, QuantumNeverChangesTheTrace) {
  int systems = 0;
  for (const int cores : {1, 2, 4}) {
    for (int i = 0; i < kSystemsPerCoreCount; ++i) {
      const auto spec = gen::generate_mp_system(system_params(cores, i));
      // The sixth quantum, the whole horizon, is the reference: one
      // run_until(horizon) call.
      const Duration whole = spec.horizon - TimePoint::origin();
      const std::vector<Duration> quanta = {
          Duration::ticks(Duration::kTicksPerTimeUnit / 3),
          Duration::ticks(Duration::kTicksPerTimeUnit / 2),
          Duration::time_units(1), Duration::time_units(5),
          Duration::time_units(10)};
      const auto subs = split_spec(spec, Partitioner().partition(spec));
      for (std::size_t c = 0; c < subs.size(); ++c) {
        const std::uint64_t straight = stepped_fingerprint(subs[c], whole);
        for (const Duration quantum : quanta) {
          EXPECT_EQ(stepped_fingerprint(subs[c], quantum), straight)
              << cores << " cores, system " << i << ", core " << c
              << ", quantum " << common::to_string(quantum);
        }
      }
      ++systems;
    }
  }
  EXPECT_GE(systems, 150);
}

}  // namespace
}  // namespace tsf::mp
