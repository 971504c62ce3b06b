// MultiVm lock-step semantics: advancing N per-core VMs in shared epochs
// must be observationally identical to running each core's VM on its own,
// and must be insensitive to the epoch size. The machines here always carry
// their channel fabric; it stays inert except for roaming_spec()'s one
// migration.
#include "mp/multi_vm.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "common/trace.h"
#include "mp/mp_system.h"
#include "mp/partition.h"
#include "support/artifact_dump.h"

namespace tsf::mp {
namespace {

using common::Duration;
using common::TimePoint;

Duration tu(std::int64_t n) { return Duration::time_units(n); }
TimePoint at_tu(std::int64_t n) {
  return TimePoint::origin() + Duration::time_units(n);
}

model::SystemSpec two_core_spec() {
  model::SystemSpec spec;
  spec.name = "mv";
  spec.cores = 2;
  spec.server.policy = model::ServerPolicy::kDeferrable;
  spec.server.capacity = tu(2);
  spec.server.period = tu(6);
  spec.server.priority = 30;
  for (int c = 0; c < 2; ++c) {
    model::PeriodicTaskSpec t;
    t.name = "tau" + std::to_string(c);
    t.period = tu(8);
    t.cost = tu(3);
    t.priority = 10;
    spec.periodic_tasks.push_back(t);
  }
  for (int j = 0; j < 6; ++j) {
    model::AperiodicJobSpec job;
    job.name = "a" + std::to_string(j);
    job.release = at_tu(1 + 3 * j);
    job.cost = tu(1);
    spec.aperiodic_jobs.push_back(job);
  }
  spec.horizon = at_tu(24);
  return spec;
}

TEST(MultiVm, LockstepMatchesIndependentRunExec) {
  const auto spec = two_core_spec();
  const auto partition = Partitioner().partition(spec);
  ASSERT_TRUE(partition.complete());
  const auto subs = split_spec(spec, partition);
  ASSERT_EQ(subs.size(), 2u);

  MultiVm machine(spec, partition, MpRunOptions{});
  machine.run(spec.horizon);
  const auto lockstep = machine.collect();

  for (std::size_t c = 0; c < subs.size(); ++c) {
    const auto solo = exp::run_exec(subs[c]);
    ASSERT_EQ(lockstep[c].jobs.size(), solo.jobs.size());
    for (std::size_t i = 0; i < solo.jobs.size(); ++i) {
      EXPECT_EQ(lockstep[c].jobs[i].name, solo.jobs[i].name);
      EXPECT_EQ(lockstep[c].jobs[i].served, solo.jobs[i].served);
      EXPECT_EQ(lockstep[c].jobs[i].start, solo.jobs[i].start);
      EXPECT_EQ(lockstep[c].jobs[i].completion, solo.jobs[i].completion);
    }
    EXPECT_EQ(common::fingerprint(lockstep[c].timeline),
              common::fingerprint(solo.timeline));
  }
}

// The mp_quad shape, on two cores: per core, a periodic task completes at
// t = 2 (and every 6 tu after), the instant an aperiodic job is released
// and a lower-priority task is next in line. Run without a pause at t = 2,
// the VM used to dispatch the lower task before firing the release timer;
// paused there by an epoch boundary, it fired the timer first.
model::SystemSpec release_at_completion_spec() {
  model::SystemSpec spec;
  spec.name = "quad-shaped";
  spec.cores = 2;
  spec.server.policy = model::ServerPolicy::kPolling;
  spec.server.capacity = tu(3);
  spec.server.period = tu(6);
  spec.server.priority = 30;
  for (int c = 0; c < 2; ++c) {
    for (const auto& [prefix, cost, priority] :
         {std::tuple{"tau1", 2, 20}, std::tuple{"tau2", 1, 10}}) {
      model::PeriodicTaskSpec t;
      t.name = std::string(prefix) + static_cast<char>('a' + c);
      t.period = tu(6);
      t.cost = tu(cost);
      t.priority = priority;
      t.affinity = c;
      spec.periodic_tasks.push_back(t);
    }
    for (const int release : {2, 8, 14}) {
      model::AperiodicJobSpec job;
      job.name = "h" + std::to_string(c) + "_" + std::to_string(release);
      job.release = at_tu(release);
      job.cost = tu(2);
      job.affinity = c;
      spec.aperiodic_jobs.push_back(job);
    }
  }
  spec.horizon = at_tu(18);
  return spec;
}

// A spec whose migratable job is due at t = 10, a grid point of every
// quantum below: MultiVm keeps every boundary of a run with a migratable,
// so the quantum loop really pauses the VMs, and the job is delivered at
// t = 10 whatever the quantum.
model::SystemSpec roaming_spec() {
  auto spec = two_core_spec();
  spec.name = "mv-roaming";
  model::AperiodicJobSpec job;
  job.name = "roam";
  job.release = at_tu(9);
  job.cost = tu(1);
  job.migrate = true;
  spec.aperiodic_jobs.push_back(job);
  spec.channel_latency = tu(1);
  return spec;
}

// Each cell of quanta x backends must give one fingerprint per spec: an
// epoch boundary is invisible in the trace. The first two specs are
// fire-free and partitioned, so MultiVm runs them as one epoch at every
// quantum (the cells then check the backends agree); roaming_spec() is
// paused at every grid point.
TEST(MultiVm, EpochSizeDoesNotChangeBehaviour) {
  for (const auto& spec :
       {two_core_spec(), release_at_completion_spec(), roaming_spec()}) {
    SCOPED_TRACE(spec.name);
    const auto partition = Partitioner().partition(spec);
    ASSERT_TRUE(partition.complete());
    std::vector<std::uint64_t> hashes;
    for (const auto backend : {ExecBackend::kLockstep, ExecBackend::kThreads}) {
      for (const auto quantum : {tu(1), tu(2), tu(5), tu(10)}) {
        MpRunOptions options;
        options.backend = backend;
        MultiVm machine(spec, partition, options);
        machine.run(spec.horizon, quantum);
        const auto& deliveries = machine.fabric().deliveries();
        EXPECT_EQ(deliveries.size(), spec.name == "mv-roaming" ? 1u : 0u);
        for (const auto& d : deliveries) EXPECT_EQ(d.delivered, at_tu(10));
        std::uint64_t combined = 0;
        for (auto& result : machine.collect()) {
          combined = combined * 31 + common::fingerprint(result.timeline);
        }
        SCOPED_TRACE(std::string(to_string(backend)) + " quantum " +
                     common::to_string(quantum));
        if (!hashes.empty()) EXPECT_EQ(combined, hashes.front());
        hashes.push_back(combined);
      }
    }
  }
}

// A driver pause must not rotate the running fiber behind equal-priority
// waiters: with two same-priority tasks on one core, a VM paused at every
// time unit must reproduce the solo run exactly (regression: the freeze
// path used to re-enqueue with a fresh ready_seq_, so every epoch boundary
// round-robined the two tasks). MultiVm would run this spec as one epoch,
// so the test drives the core's VM directly.
TEST(MultiVm, EqualPriorityTasksSurviveEpochBoundaries) {
  model::SystemSpec spec;
  spec.name = "eq";
  spec.cores = 1;
  spec.server.policy = model::ServerPolicy::kNone;
  for (int i = 0; i < 2; ++i) {
    model::PeriodicTaskSpec t;
    t.name = "tau" + std::to_string(i);
    t.period = tu(10);
    t.cost = tu(4);
    t.priority = 5;  // same priority on the same core
    spec.periodic_tasks.push_back(t);
  }
  spec.horizon = at_tu(20);

  const auto solo = exp::run_exec(spec);
  const exp::ExecOptions options;
  rtsj::vm::VirtualMachine vm(options.kernel);
  exp::ExecSystem system(vm, spec, options);
  system.start();
  for (std::int64_t t = 1; t <= 20; ++t) vm.run_until(at_tu(t));
  const auto paused = system.collect();
  EXPECT_EQ(common::fingerprint(paused.timeline),
            common::fingerprint(solo.timeline));
  EXPECT_EQ(paused.timeline.busy_intervals("tau0"),
            solo.timeline.busy_intervals("tau0"));
}

// A fiber mid-work() at the final horizon must still close its busy
// interval there (regression: the seamless-freeze change used to leave the
// trace open, and busy_intervals drops unterminated intervals).
TEST(MultiVm, FrozenFiberIntervalClosesAtFinalHorizon) {
  model::SystemSpec spec;
  spec.name = "cut";
  spec.cores = 1;
  spec.server.policy = model::ServerPolicy::kNone;
  model::PeriodicTaskSpec t;
  t.name = "tau";
  t.period = tu(10);
  t.cost = tu(4);
  t.priority = 5;
  spec.periodic_tasks.push_back(t);
  spec.horizon = at_tu(3);  // cuts the first job mid-execution

  const auto partition = Partitioner().partition(spec);
  MultiVm machine(spec, partition, MpRunOptions{});
  machine.run(spec.horizon, tu(1));
  const auto results = machine.collect();
  const auto busy = results[0].timeline.busy_intervals("tau");
  ASSERT_EQ(busy.size(), 1u);
  EXPECT_EQ(busy[0].begin, at_tu(0));
  EXPECT_EQ(busy[0].end, at_tu(3));
}

// --- determinism regression suite: cross-core traffic ---

// Two cores exchanging fires both ways, a fire chain (ping -> pong ->
// peng), and a migratable job: the workload exercises every channel type.
model::SystemSpec cross_core_spec() {
  model::SystemSpec spec;
  spec.name = "det";
  spec.cores = 2;
  spec.server.policy = model::ServerPolicy::kDeferrable;
  spec.server.capacity = tu(2);
  spec.server.period = tu(6);
  spec.server.priority = 30;
  for (int c = 0; c < 2; ++c) {
    model::PeriodicTaskSpec t;
    t.name = "tau" + std::to_string(c);
    t.period = tu(8);
    t.cost = tu(2);
    t.priority = 10;
    t.affinity = c;
    spec.periodic_tasks.push_back(t);
  }
  auto job = [&](const std::string& name, double release, double cost,
                 int affinity, const std::string& fires, bool triggered,
                 bool migrate) {
    model::AperiodicJobSpec j;
    j.name = name;
    j.release = TimePoint::origin() + common::Duration::from_tu(release);
    j.cost = common::Duration::from_tu(cost);
    j.affinity = affinity;
    j.fires = fires;
    j.triggered = triggered;
    j.migrate = migrate;
    spec.aperiodic_jobs.push_back(j);
  };
  job("ping", 1.0, 0.5, 0, "pong", false, false);
  job("pong", 0.0, 0.5, 1, "peng", true, false);
  job("peng", 0.0, 0.5, 0, "", true, false);
  job("back", 2.25, 0.5, 1, "echo", false, false);
  job("echo", 0.0, 0.5, 0, "", true, false);
  job("roam", 5.5, 1.0, -1, "", false, true);
  spec.horizon = at_tu(30);
  return spec;
}

TEST(MultiVmDeterminism, CrossCoreTrafficIsBitReproducible) {
  const auto spec = cross_core_spec();
  MpRunOptions options;
  options.quantum = Duration::from_tu(0.5);

  std::vector<MpRunResult> runs;
  for (int i = 0; i < 3; ++i) {
    runs.push_back(mp::run(spec, options));
  }
  // All traffic actually flowed: 3 fires + 1 migration, all delivered.
  ASSERT_EQ(runs[0].channel_deliveries.size(), 4u);
  for (const auto& d : runs[0].channel_deliveries) EXPECT_TRUE(d.ok);
  for (const auto& j : runs[0].merged.jobs) EXPECT_TRUE(j.served);

  const auto reference = common::fingerprint(runs[0].merged.timeline);
  for (std::size_t i = 1; i < runs.size(); ++i) {
    EXPECT_EQ(common::fingerprint(runs[i].merged.timeline), reference)
        << testing::dump_timeline_mismatch(
               "cross_core_repeat_run" + std::to_string(i),
               runs[0].merged.timeline, runs[i].merged.timeline);
    ASSERT_EQ(runs[i].channel_deliveries.size(),
              runs[0].channel_deliveries.size());
    for (std::size_t d = 0; d < runs[i].channel_deliveries.size(); ++d) {
      EXPECT_EQ(runs[i].channel_deliveries[d].delivered,
                runs[0].channel_deliveries[d].delivered);
      EXPECT_EQ(runs[i].channel_deliveries[d].to_core,
                runs[0].channel_deliveries[d].to_core);
    }
  }
}

// Declaring the same jobs in a different order must not change the machine:
// routing is by affinity, releases are distinct instants, and channel
// deliveries are ordered by time — none of which see declaration order.
TEST(MultiVmDeterminism, HandlerDeclarationOrderDoesNotChangeTheRun) {
  const auto spec = cross_core_spec();
  auto permuted = spec;
  std::reverse(permuted.aperiodic_jobs.begin(), permuted.aperiodic_jobs.end());

  MpRunOptions options;
  options.quantum = Duration::from_tu(0.5);
  const auto a = mp::run(spec, options);
  const auto b = mp::run(permuted, options);

  EXPECT_EQ(common::fingerprint(a.merged.timeline),
            common::fingerprint(b.merged.timeline))
      << testing::dump_timeline_mismatch("cross_core_job_order",
                                         a.merged.timeline,
                                         b.merged.timeline);
  // Outcomes agree job by job (merged order differs with the spec, so
  // compare by name).
  ASSERT_EQ(a.merged.jobs.size(), b.merged.jobs.size());
  for (const auto& job_a : a.merged.jobs) {
    const auto it = std::find_if(
        b.merged.jobs.begin(), b.merged.jobs.end(),
        [&](const model::JobOutcome& j) { return j.name == job_a.name; });
    ASSERT_NE(it, b.merged.jobs.end()) << job_a.name;
    EXPECT_EQ(job_a.served, it->served) << job_a.name;
    EXPECT_EQ(job_a.release, it->release) << job_a.name;
    EXPECT_EQ(job_a.completion, it->completion) << job_a.name;
  }
}

// Epoch size changes *when* channel messages are delivered (that is the
// quantization delay), but any one quantum must reproduce itself exactly.
TEST(MultiVmDeterminism, EveryQuantumIsSelfReproducible) {
  const auto spec = cross_core_spec();
  for (const auto quantum : {Duration::from_tu(0.25), tu(1), tu(5)}) {
    MpRunOptions options;
    options.quantum = quantum;
    const auto a = mp::run(spec, options);
    const auto b = mp::run(spec, options);
    EXPECT_EQ(common::fingerprint(a.merged.timeline),
              common::fingerprint(b.merged.timeline))
        << "quantum " << common::to_string(quantum)
        << "; "
        << testing::dump_timeline_mismatch(
               "cross_core_quantum_" +
                   std::to_string(quantum.count()),
               a.merged.timeline, b.merged.timeline);
  }
}

// --- determinism regression suite: scheduling policies ---

// cross_core_spec plus an imbalanced unpinned burst: under semi the idle
// core steals from the backed-up one, under global the burst flows through
// the shared ready pool — on top of the cross-core fires and migration the
// base spec already exercises. Releases are distinct instants (the suite's
// standing precondition: simultaneous releases order the pending queue by
// timer-creation — i.e. declaration — order) but land within one epoch, so
// the burst still arrives as a burst.
model::SystemSpec policy_traffic_spec() {
  auto spec = cross_core_spec();
  for (int j = 0; j < 6; ++j) {
    model::AperiodicJobSpec job;
    job.name = "burst" + std::to_string(j);
    job.release = TimePoint::origin() + common::Duration::from_tu(8.0 + 0.05 * j);
    job.cost = common::Duration::from_tu(j % 2 == 0 ? 1.5 : 0.25);
    spec.aperiodic_jobs.push_back(job);
  }
  return spec;
}

class MultiVmPolicyDeterminism
    : public ::testing::TestWithParam<SchedPolicy> {};

INSTANTIATE_TEST_SUITE_P(Policies, MultiVmPolicyDeterminism,
                         ::testing::Values(SchedPolicy::kGlobal,
                                           SchedPolicy::kSemiPartitioned),
                         [](const auto& info) {
                           return info.param == SchedPolicy::kGlobal
                                      ? "Global"
                                      : "SemiPartitioned";
                         });

TEST_P(MultiVmPolicyDeterminism, ThreeRunsAreBitReproducible) {
  const auto spec = policy_traffic_spec();
  MpRunOptions options;
  options.policy = GetParam();
  options.quantum = Duration::from_tu(0.5);

  std::vector<MpRunResult> runs;
  for (int i = 0; i < 3; ++i) {
    runs.push_back(mp::run(spec, options));
  }
  // The policy actually moved work: steals under semi, pool dispatches
  // under global (otherwise this suite would pass vacuously).
  if (GetParam() == SchedPolicy::kSemiPartitioned) {
    EXPECT_GT(runs[0].steals, 0u);
  } else {
    EXPECT_GT(runs[0].pool_dispatches, 0u);
  }
  for (const auto& j : runs[0].merged.jobs) EXPECT_TRUE(j.served) << j.name;

  const auto reference = common::fingerprint(runs[0].merged.timeline);
  for (std::size_t i = 1; i < runs.size(); ++i) {
    EXPECT_EQ(common::fingerprint(runs[i].merged.timeline), reference)
        << testing::dump_timeline_mismatch(
               std::string("policy_repeat_") + to_string(GetParam()) +
                   "_run" + std::to_string(i),
               runs[0].merged.timeline, runs[i].merged.timeline);
    ASSERT_EQ(runs[i].channel_deliveries.size(),
              runs[0].channel_deliveries.size());
    for (std::size_t d = 0; d < runs[i].channel_deliveries.size(); ++d) {
      EXPECT_EQ(runs[i].channel_deliveries[d].job,
                runs[0].channel_deliveries[d].job);
      EXPECT_EQ(runs[i].channel_deliveries[d].delivered,
                runs[0].channel_deliveries[d].delivered);
      EXPECT_EQ(runs[i].channel_deliveries[d].to_core,
                runs[0].channel_deliveries[d].to_core);
    }
    EXPECT_EQ(runs[i].steals, runs[0].steals);
    EXPECT_EQ(runs[i].pool_dispatches, runs[0].pool_dispatches);
  }
}

TEST_P(MultiVmPolicyDeterminism, JobDeclarationOrderDoesNotChangeTheRun) {
  const auto spec = policy_traffic_spec();
  auto permuted = spec;
  std::reverse(permuted.aperiodic_jobs.begin(), permuted.aperiodic_jobs.end());

  MpRunOptions options;
  options.policy = GetParam();
  options.quantum = Duration::from_tu(0.5);
  const auto a = mp::run(spec, options);
  const auto b = mp::run(permuted, options);

  // The pool / steal ordering key is (value, release, name) — never the
  // declaration index — so the machine must be identical.
  EXPECT_EQ(common::fingerprint(a.merged.timeline),
            common::fingerprint(b.merged.timeline))
      << testing::dump_timeline_mismatch(
             std::string("policy_job_order_") + to_string(GetParam()),
             a.merged.timeline, b.merged.timeline);
  EXPECT_EQ(a.steals, b.steals);
  EXPECT_EQ(a.pool_dispatches, b.pool_dispatches);
  ASSERT_EQ(a.merged.jobs.size(), b.merged.jobs.size());
  for (const auto& job_a : a.merged.jobs) {
    const auto it = std::find_if(
        b.merged.jobs.begin(), b.merged.jobs.end(),
        [&](const model::JobOutcome& j) { return j.name == job_a.name; });
    ASSERT_NE(it, b.merged.jobs.end()) << job_a.name;
    EXPECT_EQ(job_a.served, it->served) << job_a.name;
    EXPECT_EQ(job_a.release, it->release) << job_a.name;
    EXPECT_EQ(job_a.completion, it->completion) << job_a.name;
  }
}

}  // namespace
}  // namespace tsf::mp
