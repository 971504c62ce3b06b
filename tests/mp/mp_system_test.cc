// Partitioned runtime end-to-end: split/merge, partitioned feasibility
// against per-core RTA, and the bit-reproducibility of multi-core runs.
#include "mp/mp_system.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "analysis/rta.h"
#include "common/trace.h"
#include "gen/generator.h"
#include "gen/storms.h"
#include "sim/simulator.h"

namespace tsf::mp {
namespace {

using common::Duration;
using common::TimePoint;

Duration tu(std::int64_t n) { return Duration::time_units(n); }
TimePoint at_tu(std::int64_t n) {
  return TimePoint::origin() + Duration::time_units(n);
}

MpRunOptions sim_options() {
  MpRunOptions o;
  o.engine = RunEngine::kSim;
  return o;
}

// The paper's Table-1 scenario workload scaled to `cores`: per core one
// Polling Server replica (3/6), one tau1-class task (2/6) and one
// tau2-class task (1/6) — exactly 1.0 utilization per core — plus two
// h-style aperiodic events per core.
model::SystemSpec scenario_spec(int cores) {
  model::SystemSpec spec;
  spec.name = "scenario";
  spec.cores = cores;
  spec.server.policy = model::ServerPolicy::kPolling;
  spec.server.capacity = tu(3);
  spec.server.period = tu(6);
  spec.server.priority = 30;
  for (int c = 0; c < cores; ++c) {
    model::PeriodicTaskSpec tau1;
    tau1.name = "tau1." + std::to_string(c);
    tau1.period = tu(6);
    tau1.cost = tu(2);
    tau1.priority = 20;
    spec.periodic_tasks.push_back(tau1);
    model::PeriodicTaskSpec tau2;
    tau2.name = "tau2." + std::to_string(c);
    tau2.period = tu(6);
    tau2.cost = tu(1);
    tau2.priority = 10;
    spec.periodic_tasks.push_back(tau2);
  }
  for (int c = 0; c < 2 * cores; ++c) {
    model::AperiodicJobSpec h;
    h.name = "h" + std::to_string(c);
    h.release = at_tu(2 + c);
    h.cost = tu(2);
    spec.aperiodic_jobs.push_back(h);
  }
  spec.horizon = at_tu(18);
  return spec;
}

TEST(SplitSpec, EveryTaskAndJobLandsOnExactlyOneCore) {
  const auto spec = scenario_spec(4);
  const auto partition = Partitioner().partition(spec);
  ASSERT_TRUE(partition.complete());
  const auto subs = split_spec(spec, partition);
  ASSERT_EQ(subs.size(), 4u);
  std::size_t tasks = 0, jobs = 0;
  for (const auto& sub : subs) {
    EXPECT_EQ(sub.cores, 1);
    EXPECT_EQ(sub.horizon, spec.horizon);
    EXPECT_EQ(sub.server.policy, model::ServerPolicy::kPolling);
    tasks += sub.periodic_tasks.size();
    jobs += sub.aperiodic_jobs.size();
  }
  EXPECT_EQ(tasks, spec.periodic_tasks.size());
  EXPECT_EQ(jobs, spec.aperiodic_jobs.size());
}

TEST(SplitSpec, CoreWithoutServerReplicaGetsPolicyNone) {
  model::SystemSpec spec;
  spec.cores = 2;
  spec.server.policy = model::ServerPolicy::kNone;
  spec.horizon = at_tu(6);
  const auto partition = Partitioner().partition(spec);
  const auto subs = split_spec(spec, partition);
  for (const auto& sub : subs) {
    EXPECT_EQ(sub.server.policy, model::ServerPolicy::kNone);
  }
}

// Acceptance: the partitioned RTA verdict must agree with running the
// uniprocessor RTA independently on every split core.
// Regression for the stealing-era merge: per-core outcomes are no longer
// disjoint. A job stolen mid-run can leave an unserved shadow with the same
// (name, release) on its home core (e.g. a partial bookkeeping path, or a
// steal whose thief recorded the preserved release) — the merge must keep
// the served record and drop the shadow instead of double-counting the job.
TEST(MergeResults, DedupesByJobAndRelease) {
  model::SystemSpec spec;
  spec.name = "dedupe";
  spec.cores = 2;
  spec.server.policy = model::ServerPolicy::kPolling;
  spec.server.capacity = tu(3);
  spec.server.period = tu(6);
  model::AperiodicJobSpec stolen;
  stolen.name = "stolen";
  stolen.release = at_tu(2);
  stolen.cost = tu(1);
  spec.aperiodic_jobs.push_back(stolen);
  model::AperiodicJobSpec local;
  local.name = "local";
  local.release = at_tu(3);
  local.cost = tu(1);
  spec.aperiodic_jobs.push_back(local);
  spec.horizon = at_tu(12);
  const auto partition = Partitioner().partition(spec);

  // Core 0 (the home core) booked "stolen" as unserved at its release;
  // core 1 (the thief) actually served it — same (name, release).
  std::vector<model::RunResult> per_core(2);
  model::JobOutcome shadow;
  shadow.name = "stolen";
  shadow.release = at_tu(2);
  shadow.cost = tu(1);
  per_core[0].jobs.push_back(shadow);
  model::JobOutcome served_local;
  served_local.name = "local";
  served_local.release = at_tu(3);
  served_local.cost = tu(1);
  served_local.served = true;
  served_local.start = at_tu(3);
  served_local.completion = at_tu(4);
  per_core[0].jobs.push_back(served_local);
  model::JobOutcome served_stolen;
  served_stolen.name = "stolen";
  served_stolen.release = at_tu(2);
  served_stolen.cost = tu(1);
  served_stolen.served = true;
  served_stolen.start = at_tu(5);
  served_stolen.completion = at_tu(6);
  per_core[1].jobs.push_back(served_stolen);

  const auto merged = merge_results(spec, partition, per_core);
  ASSERT_EQ(merged.jobs.size(), 2u) << "shadow outcome survived the merge";
  EXPECT_EQ(merged.jobs[0].name, "stolen");
  EXPECT_TRUE(merged.jobs[0].served) << "merge kept the shadow, not the"
                                        " served record";
  EXPECT_EQ(merged.jobs[0].completion, at_tu(6));
  EXPECT_EQ(merged.jobs[1].name, "local");
  EXPECT_TRUE(merged.jobs[1].served);
}

// The dedupe is strictly cross-core: two unserved shadows of one lost
// release on *different* cores collapse to a single record, but within one
// core nothing is merged — two genuine completions of a re-fired release,
// or two same-instant pending releases, are both kept (a core never lies
// about its own bookkeeping).
TEST(MergeResults, KeepsRepeatedCompletionsButCollapsesShadows) {
  model::SystemSpec spec;
  spec.name = "dedupe2";
  spec.cores = 2;
  spec.server.policy = model::ServerPolicy::kPolling;
  spec.server.capacity = tu(3);
  spec.server.period = tu(6);
  model::AperiodicJobSpec job;
  job.name = "j";
  job.release = at_tu(1);
  job.cost = tu(1);
  spec.aperiodic_jobs.push_back(job);
  spec.horizon = at_tu(12);
  const auto partition = Partitioner().partition(spec);

  {
    std::vector<model::RunResult> per_core(2);
    for (auto& result : per_core) {
      model::JobOutcome shadow;
      shadow.name = "j";
      shadow.release = at_tu(1);
      shadow.cost = tu(1);
      result.jobs.push_back(shadow);
    }
    const auto merged = merge_results(spec, partition, per_core);
    ASSERT_EQ(merged.jobs.size(), 1u);
    EXPECT_FALSE(merged.jobs[0].served);
  }
  {
    std::vector<model::RunResult> per_core(2);
    for (auto& result : per_core) {
      model::JobOutcome done;
      done.name = "j";
      done.release = at_tu(1);
      done.cost = tu(1);
      done.served = true;
      done.start = at_tu(2);
      done.completion = at_tu(3);
      result.jobs.push_back(done);
    }
    const auto merged = merge_results(spec, partition, per_core);
    ASSERT_EQ(merged.jobs.size(), 2u)
        << "a genuine repeated completion must not be deduped";
  }
  {
    // One core, two same-instant releases of a re-fired job: one served,
    // one still pending — both are real and both must survive (regression:
    // an unconditional (name, release) dedupe used to swallow the pending
    // one and under-report the released count).
    std::vector<model::RunResult> per_core(2);
    model::JobOutcome done;
    done.name = "j";
    done.release = at_tu(1);
    done.cost = tu(1);
    done.served = true;
    done.start = at_tu(2);
    done.completion = at_tu(3);
    per_core[0].jobs.push_back(done);
    model::JobOutcome pending;
    pending.name = "j";
    pending.release = at_tu(1);
    pending.cost = tu(1);
    per_core[0].jobs.push_back(pending);
    const auto merged = merge_results(spec, partition, per_core);
    ASSERT_EQ(merged.jobs.size(), 2u)
        << "same-core same-instant releases are distinct, not shadows";
    EXPECT_TRUE(merged.jobs[0].served);
    EXPECT_FALSE(merged.jobs[1].served);
  }
}

// The merge as it was written before the k-way timeline merge and the
// hashed job ledger: concatenate the per-core records with "c<k>/" prefixes
// and stable_sort them by instant; dedupe (job, release) through tree maps
// that own copies of every name. merge_results must reproduce it exactly.
model::RunResult reference_merge(
    const model::SystemSpec& spec,
    const std::vector<model::RunResult>& per_core) {
  auto rank = [](const model::JobOutcome& o) {
    return o.served ? 2 : (o.interrupted || o.shed) ? 1 : 0;
  };
  model::RunResult merged;
  using Key = std::pair<std::string, TimePoint>;
  std::map<Key, std::set<std::size_t>> completed_cores;
  for (std::size_t c = 0; c < per_core.size(); ++c) {
    for (const auto& outcome : per_core[c].jobs) {
      if (rank(outcome) > 0) {
        completed_cores[{outcome.name, outcome.release}].insert(c);
      }
    }
  }
  std::vector<const model::JobOutcome*> deduped;
  std::map<Key, std::size_t> unserved_kept_on;
  for (std::size_t c = 0; c < per_core.size(); ++c) {
    for (const auto& outcome : per_core[c].jobs) {
      const Key key{outcome.name, outcome.release};
      if (rank(outcome) > 0) {
        deduped.push_back(&outcome);
        continue;
      }
      const auto done = completed_cores.find(key);
      if (done != completed_cores.end() &&
          (done->second.size() > 1 || *done->second.begin() != c)) {
        continue;
      }
      const auto kept = unserved_kept_on.find(key);
      if (kept != unserved_kept_on.end() && kept->second != c) continue;
      unserved_kept_on.emplace(key, c);
      deduped.push_back(&outcome);
    }
  }
  std::map<std::string, std::vector<const model::JobOutcome*>> by_name;
  for (const auto* outcome : deduped) by_name[outcome->name].push_back(outcome);
  for (const auto& job : spec.aperiodic_jobs) {
    auto it = by_name.find(job.name);
    if (it != by_name.end() && !it->second.empty()) {
      merged.jobs.push_back(*it->second.front());
      it->second.erase(it->second.begin());
    } else {
      model::JobOutcome o;
      o.name = job.name;
      o.release = job.release;
      o.cost = job.cost;
      merged.jobs.push_back(o);
    }
  }
  for (const auto& [name, extras] : by_name) {
    for (const auto* outcome : extras) merged.jobs.push_back(*outcome);
  }
  for (const auto& result : per_core) {
    merged.periodic_jobs.insert(merged.periodic_jobs.end(),
                                result.periodic_jobs.begin(),
                                result.periodic_jobs.end());
  }
  std::stable_sort(merged.periodic_jobs.begin(), merged.periodic_jobs.end(),
                   [](const model::PeriodicOutcome& a,
                      const model::PeriodicOutcome& b) {
                     return a.release < b.release;
                   });
  std::vector<common::TraceRecord> records;
  for (std::size_t c = 0; c < per_core.size(); ++c) {
    const std::string prefix = "c" + std::to_string(c) + "/";
    for (const auto& r : per_core[c].timeline.records()) {
      records.push_back(r);
      records.back().who = prefix + r.who;
    }
  }
  std::stable_sort(records.begin(), records.end(),
                   [](const common::TraceRecord& a,
                      const common::TraceRecord& b) { return a.at < b.at; });
  for (auto& r : records) {
    merged.timeline.record(r.at, r.kind, r.who, r.value, r.note);
  }
  for (std::size_t c = 0; c < per_core.size(); ++c) {
    for (model::ShedEvent event : per_core[c].shed_events) {
      event.core = c;
      merged.shed_events.push_back(std::move(event));
    }
  }
  for (const auto& result : per_core) {
    merged.server_activations += result.server_activations;
    merged.server_dispatches += result.server_dispatches;
  }
  return merged;
}

// Field-by-field equality of two whole RunResults.
void expect_same_result(const model::RunResult& want,
                        const model::RunResult& got) {
  auto job = [](const model::JobOutcome& o) {
    return std::tie(o.name, o.release, o.cost, o.served, o.interrupted,
                    o.shed, o.start, o.completion);
  };
  ASSERT_EQ(got.jobs.size(), want.jobs.size());
  for (std::size_t i = 0; i < want.jobs.size(); ++i) {
    EXPECT_TRUE(job(got.jobs[i]) == job(want.jobs[i]))
        << "job " << i << ": " << got.jobs[i].name << " vs "
        << want.jobs[i].name;
  }
  auto periodic = [](const model::PeriodicOutcome& o) {
    return std::tie(o.task, o.release, o.completion, o.deadline_missed);
  };
  ASSERT_EQ(got.periodic_jobs.size(), want.periodic_jobs.size());
  for (std::size_t i = 0; i < want.periodic_jobs.size(); ++i) {
    EXPECT_TRUE(periodic(got.periodic_jobs[i]) == periodic(want.periodic_jobs[i]))
        << "periodic outcome " << i;
  }
  auto record = [](const common::TraceRecord& r) {
    return std::tie(r.at, r.kind, r.who, r.value, r.note);
  };
  const auto& got_records = got.timeline.records();
  const auto& want_records = want.timeline.records();
  ASSERT_EQ(got_records.size(), want_records.size());
  for (std::size_t i = 0; i < want_records.size(); ++i) {
    EXPECT_TRUE(record(got_records[i]) == record(want_records[i]))
        << "record " << i << ": " << got_records[i].who << " vs "
        << want_records[i].who;
  }
  auto shed = [](const model::ShedEvent& e) {
    return std::tie(e.kind, e.job, e.release, e.at, e.reason, e.core);
  };
  ASSERT_EQ(got.shed_events.size(), want.shed_events.size());
  for (std::size_t i = 0; i < want.shed_events.size(); ++i) {
    EXPECT_TRUE(shed(got.shed_events[i]) == shed(want.shed_events[i]))
        << "shed event " << i;
  }
  EXPECT_EQ(got.server_activations, want.server_activations);
  EXPECT_EQ(got.server_dispatches, want.server_dispatches);
}

Partition bare_partition(std::size_t cores) {
  Partition partition;
  partition.cores.resize(cores);
  return partition;
}

model::JobOutcome outcome(const std::string& name, std::int64_t release_tu,
                          bool served) {
  model::JobOutcome o;
  o.name = name;
  o.release = at_tu(release_tu);
  o.cost = tu(1);
  o.served = served;
  if (served) {
    o.start = at_tu(release_tu + 1);
    o.completion = at_tu(release_tu + 2);
  }
  return o;
}

// Differential: on real runs of every engine and run-time mover — the
// simulator, the exec path under the partitioned, semi-partitioned and
// global policies, drift rebalancing, and shedding storms — the merged
// result equals the sort-based reference field by field.
TEST(MergeResults, MatchesReferenceOnGeneratedRuns) {
  struct Config {
    const char* name;
    RunEngine engine;
    SchedPolicy policy;
    bool drift;
  };
  const Config configs[] = {
      {"sim", RunEngine::kSim, SchedPolicy::kPartitioned, false},
      {"partitioned", RunEngine::kExec, SchedPolicy::kPartitioned, false},
      {"semi", RunEngine::kExec, SchedPolicy::kSemiPartitioned, false},
      {"global", RunEngine::kExec, SchedPolicy::kGlobal, false},
      {"drift", RunEngine::kExec, SchedPolicy::kSemiPartitioned, true},
  };
  std::uint64_t steals = 0, pool_dispatches = 0, migrations = 0;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    gen::MpGeneratorParams params;
    params.cores = 4;
    params.tasks_per_core = 3;
    params.per_core_utilization = 0.3;
    params.period_min = tu(5);
    params.period_max = tu(60);
    params.task_density = 3.0;
    params.average_cost_tu = 0.6;
    params.std_deviation_tu = 0.3;
    params.horizon_periods = 30;
    params.seed = seed;
    const auto spec = gen::generate_mp_system(params);
    for (const Config& config : configs) {
      SCOPED_TRACE(std::string(config.name) + " seed " + std::to_string(seed));
      MpRunOptions options;
      options.engine = config.engine;
      options.policy = config.policy;
      if (config.drift) {
        options.rebalance.mode = RebalanceMode::kDrift;
        options.rebalance.period = tu(6);
      }
      const auto run = mp::run(spec, options);
      ASSERT_FALSE(run.merged.timeline.records().empty());
      expect_same_result(reference_merge(spec, run.per_core), run.merged);
      steals += run.steals;
      pool_dispatches += run.pool_dispatches;
      migrations += run.rebalance_migrations;
    }
  }
  EXPECT_GT(steals, 0u) << "no run moved a job by stealing";
  EXPECT_GT(pool_dispatches, 0u) << "no run dispatched from the global pool";
  EXPECT_GT(migrations, 0u) << "no run rebalanced";

  std::size_t sheds = 0;
  for (const auto shape : {gen::StormShape::kRouterPacketStorm,
                           gen::StormShape::kMarketOpenBurst,
                           gen::StormShape::kCascadingFaultBurst}) {
    SCOPED_TRACE(gen::to_string(shape));
    gen::StormParams params;
    params.shape = shape;
    params.cores = 4;
    params.horizon_periods = 20;
    const auto spec = gen::make_storm(params);
    MpRunOptions options;
    options.exec.overload.mode = exp::OverloadMode::kShed;
    const auto run = mp::run(spec, options);
    expect_same_result(reference_merge(spec, run.per_core), run.merged);
    sheds += run.merged.shed_events.size();
  }
  EXPECT_GT(sheds, 0u) << "no storm shed a job";
}

// Simultaneous records on several cores come out in core order, each
// core's own records in record order; a core with an empty timeline and a
// core that finishes first are both handled.
TEST(MergeResults, SameInstantRecordsKeepCoreOrder) {
  model::SystemSpec spec;
  spec.cores = 4;
  std::vector<model::RunResult> per_core(4);
  auto add = [&](std::size_t core, std::int64_t t, const char* who) {
    per_core[core].timeline.record(at_tu(t), common::TraceKind::kNote, who,
                                   t, "n");
  };
  add(0, 1, "a");
  add(0, 1, "b");
  add(0, 3, "c");
  add(1, 0, "d");
  add(1, 1, "e");
  add(1, 2, "f");
  add(1, 3, "g");
  add(2, 1, "h");
  add(2, 3, "i");
  add(2, 3, "j");
  const auto merged = merge_results(spec, bare_partition(4), per_core);
  std::vector<std::string> order;
  for (const auto& r : merged.timeline.records()) order.push_back(r.who);
  const std::vector<std::string> expected = {"c1/d", "c0/a", "c0/b", "c1/e",
                                             "c2/h", "c1/f", "c0/c", "c1/g",
                                             "c2/i", "c2/j"};
  EXPECT_EQ(order, expected);
  expect_same_result(reference_merge(spec, per_core), merged);
}

// Cross-core shadows against the reference: an unserved record is dropped
// when another core completed or kept the same (job, release), even next to
// its own core's completion; shed counts as final; repeated completions and
// same-core records all stay.
TEST(MergeResults, CrossCoreShadowsMatchReference) {
  model::SystemSpec spec;
  spec.cores = 3;
  for (const char* name : {"j", "k", "m", "n", "p", "q"}) {
    model::AperiodicJobSpec job;
    job.name = name;
    job.cost = tu(1);
    spec.aperiodic_jobs.push_back(job);
  }
  std::vector<model::RunResult> per_core(3);
  per_core[0].jobs.push_back(outcome("j", 1, false));
  per_core[1].jobs.push_back(outcome("j", 1, true));  // stolen and served
  per_core[2].jobs.push_back(outcome("j", 1, false));
  per_core[1].jobs.push_back(outcome("k", 2, false));  // kept
  per_core[2].jobs.push_back(outcome("k", 2, false));  // shadow
  per_core[0].jobs.push_back(outcome("m", 3, true));
  per_core[1].jobs.push_back(outcome("m", 3, false));  // shadow
  per_core[2].jobs.push_back(outcome("m", 3, true));
  per_core[0].jobs.push_back(outcome("n", 4, false));  // shadow
  model::JobOutcome shed = outcome("n", 4, false);
  shed.shed = true;
  per_core[2].jobs.push_back(shed);
  per_core[0].jobs.push_back(outcome("p", 5, true));
  per_core[0].jobs.push_back(outcome("p", 5, false));  // same core: real
  per_core[0].jobs.push_back(outcome("q", 6, true));
  per_core[0].jobs.push_back(outcome("q", 6, false));  // shadow of core 1
  per_core[1].jobs.push_back(outcome("q", 6, true));
  const auto merged = merge_results(spec, bare_partition(3), per_core);
  expect_same_result(reference_merge(spec, per_core), merged);
  // j served, k pending, m twice, n shed, p served + pending, q twice.
  ASSERT_EQ(merged.jobs.size(), 9u);
  EXPECT_TRUE(merged.jobs[0].served);
  EXPECT_FALSE(merged.jobs[1].served);
  EXPECT_TRUE(merged.jobs[3].shed);
}

// A re-fired job's extra outcomes follow the spec-ordered slots in name
// order (each name's extras in core, then record order), whatever order
// the cores reported them in; a name missing from the spec is an extra too,
// and a name the spec lists twice fills both of its slots in order.
TEST(MergeResults, RefiredExtrasStayInNameOrder) {
  model::SystemSpec spec;
  spec.cores = 2;
  for (const char* name : {"z", "a", "never", "z"}) {
    model::AperiodicJobSpec job;
    job.name = name;
    job.release = at_tu(9);
    job.cost = tu(1);
    spec.aperiodic_jobs.push_back(job);
  }
  std::vector<model::RunResult> per_core(2);
  per_core[0].jobs.push_back(outcome("z", 1, true));
  per_core[0].jobs.push_back(outcome("z", 2, true));
  per_core[0].jobs.push_back(outcome("a", 1, true));
  per_core[1].jobs.push_back(outcome("z", 5, false));
  per_core[1].jobs.push_back(outcome("y", 4, true));
  per_core[1].jobs.push_back(outcome("a", 3, true));
  const auto merged = merge_results(spec, bare_partition(2), per_core);
  expect_same_result(reference_merge(spec, per_core), merged);
  std::vector<std::pair<std::string, TimePoint>> order;
  for (const auto& o : merged.jobs) order.emplace_back(o.name, o.release);
  const std::vector<std::pair<std::string, TimePoint>> expected = {
      {"z", at_tu(1)}, {"a", at_tu(1)}, {"never", at_tu(9)},
      {"z", at_tu(2)}, {"a", at_tu(3)}, {"y", at_tu(4)},
      {"z", at_tu(5)}};
  EXPECT_EQ(order, expected);
}

// The k-way merge relies on each per-core timeline being non-decreasing in
// time (the TraceSink contract) and checks it: a core whose records go back
// in time aborts the merge instead of being silently re-sorted.
TEST(MergeResultsDeathTest, OutOfOrderCoreTimelineAborts) {
  model::SystemSpec spec;
  spec.cores = 2;
  std::vector<model::RunResult> per_core(2);
  per_core[0].timeline.record(at_tu(1), common::TraceKind::kNote, "a");
  per_core[1].timeline.record(at_tu(5), common::TraceKind::kNote, "b");
  per_core[1].timeline.record(at_tu(3), common::TraceKind::kNote, "c");
  EXPECT_DEATH(merge_results(spec, bare_partition(2), per_core),
               "core 1 timeline goes back in time");
}

// End-to-end: a rebalanced run (drift mode) whose migrated jobs complete on
// their *new* home cores leaves no unserved shadow in the merge — the
// (job, release) dedupe holds for kRebalance moves exactly as for steals.
TEST(MergeResults, RebalancedJobCompletingOnNewHomeLeavesNoShadow) {
  model::SystemSpec spec;
  spec.name = "rebalance_dedupe";
  spec.cores = 2;
  spec.server.policy = model::ServerPolicy::kDeferrable;
  spec.server.capacity = tu(3);
  spec.server.period = tu(6);
  spec.server.priority = 30;
  for (int b = 0; b < 6; ++b) {
    for (int j = 0; j < 6; ++j) {
      model::AperiodicJobSpec job;
      job.name = "b" + std::to_string(b) + "_" + std::to_string(j);
      job.release =
          TimePoint::origin() + Duration::from_tu(1.0 + 8.0 * b + 0.05 * j);
      job.cost = Duration::from_tu(j % 2 == 0 ? 2.0 : 0.25);
      spec.aperiodic_jobs.push_back(job);
    }
  }
  spec.horizon = at_tu(65);  // 1 + 8 * 6 bursts + 16 drain

  MpRunOptions options;
  options.strategy = PackingStrategy::kWorstFitDecreasing;
  options.quantum = Duration::from_tu(0.5);
  options.rebalance.mode = RebalanceMode::kDrift;
  options.rebalance.drift = 0.15;
  options.rebalance.period = tu(6);
  const auto run = mp::run(spec, options);
  ASSERT_GT(run.rebalance_migrations, 0u)
      << "the workload must actually trigger rebalance migrations";

  std::map<std::pair<std::string, TimePoint>, std::size_t> outcomes;
  for (const auto& o : run.merged.jobs) ++outcomes[{o.name, o.release}];
  std::set<std::string> migrated;
  for (const auto& d : run.channel_deliveries) {
    if (d.kind != exp::ChannelDelivery::Kind::kRebalance) continue;
    migrated.insert(d.job);
    const auto key = std::make_pair(d.job, d.posted);
    ASSERT_EQ(outcomes[key], 1u)
        << d.job << ": the home core's unserved shadow survived the merge";
  }
  EXPECT_FALSE(migrated.empty());
  // And at least one migrated job was actually served on its new home.
  std::size_t served_after_move = 0;
  for (const auto& o : run.merged.jobs) {
    if (migrated.count(o.name) > 0 && o.served) ++served_after_move;
  }
  EXPECT_GT(served_after_move, 0u);
}

// End-to-end: a semi-partitioned run with a real steal produces exactly one
// outcome per job and books the stolen job as served.
TEST(MergeResults, StolenJobHasExactlyOneMergedOutcome) {
  model::SystemSpec spec;
  spec.name = "steal_e2e";
  spec.cores = 2;
  spec.server.policy = model::ServerPolicy::kDeferrable;
  spec.server.capacity = tu(3);
  spec.server.period = tu(6);
  spec.server.priority = 30;
  for (int j = 0; j < 6; ++j) {
    model::AperiodicJobSpec job;
    job.name = "b" + std::to_string(j);
    job.release = TimePoint::origin() + Duration::from_tu(1.0 + 0.05 * j);
    job.cost = Duration::from_tu(j % 2 == 0 ? 1.5 : 0.25);
    spec.aperiodic_jobs.push_back(job);
  }
  spec.horizon = at_tu(24);

  MpRunOptions options;
  options.policy = SchedPolicy::kSemiPartitioned;
  options.quantum = Duration::from_tu(0.5);
  const auto run = mp::run(spec, options);
  ASSERT_GT(run.steals, 0u) << "workload must actually trigger a steal";
  ASSERT_EQ(run.merged.jobs.size(), spec.aperiodic_jobs.size());
  std::set<std::string> names;
  for (const auto& outcome : run.merged.jobs) {
    EXPECT_TRUE(names.insert(outcome.name).second)
        << outcome.name << " merged twice";
    EXPECT_TRUE(outcome.served) << outcome.name;
  }
}

TEST(MpFeasibility, AgreesWithPerCoreSingleVmRta) {
  gen::MpGeneratorParams params;
  params.cores = 4;
  params.tasks_per_core = 4;
  params.per_core_utilization = 0.45;
  params.task_density = 1.0;
  const auto spec = gen::generate_mp_system(params);

  const auto verdict = analyze(spec, PackingStrategy::kWorstFitDecreasing);
  ASSERT_TRUE(verdict.partition.complete());
  const auto subs = split_spec(spec, verdict.partition);
  ASSERT_EQ(verdict.per_core.cores.size(), subs.size());

  bool all_cores_feasible = true;
  for (std::size_t c = 0; c < subs.size(); ++c) {
    const model::ServerSpec* server =
        subs[c].server.policy == model::ServerPolicy::kNone
            ? nullptr
            : &subs[c].server;
    const auto expected =
        analysis::response_times(subs[c].periodic_tasks, server);
    const auto& got = verdict.per_core.cores[c].response_times;
    ASSERT_EQ(got.size(), expected.size());
    bool core_feasible = true;
    for (std::size_t i = 0; i < expected.size(); ++i) {
      ASSERT_EQ(got[i].has_value(), expected[i].has_value());
      if (expected[i].has_value()) EXPECT_EQ(*got[i], *expected[i]);
      core_feasible = core_feasible && expected[i].has_value();
    }
    EXPECT_EQ(verdict.per_core.cores[c].feasible, core_feasible);
    all_cores_feasible = all_cores_feasible && core_feasible;
  }
  EXPECT_EQ(verdict.feasible, all_cores_feasible);
}

TEST(MpFeasibility, RejectionMakesSystemInfeasible) {
  auto spec = scenario_spec(2);
  model::PeriodicTaskSpec hog;
  hog.name = "hog";
  hog.period = tu(6);
  hog.cost = tu(7);  // u > 1
  spec.periodic_tasks.push_back(hog);
  const auto verdict = analyze(spec);
  EXPECT_FALSE(verdict.partition.complete());
  EXPECT_FALSE(verdict.feasible);
  // The placed cores can still each be feasible.
  EXPECT_TRUE(verdict.per_core.feasible);
}

// Acceptance: a partitioned 4-core run of the paper's scenario workload
// completes deterministically — same trace hash across two runs, on both
// engines.
TEST(MpRun, FourCoreScenarioIsDeterministic) {
  const auto spec = scenario_spec(4);
  const auto sim1 = mp::run(spec, sim_options());
  const auto sim2 = mp::run(spec, sim_options());
  EXPECT_EQ(common::fingerprint(sim1.merged.timeline),
            common::fingerprint(sim2.merged.timeline));
  ASSERT_EQ(sim1.merged.jobs.size(), sim2.merged.jobs.size());

  const auto exec1 = mp::run(spec);
  const auto exec2 = mp::run(spec);
  const auto hash1 = common::fingerprint(exec1.merged.timeline);
  const auto hash2 = common::fingerprint(exec2.merged.timeline);
  EXPECT_NE(exec1.merged.timeline.records().size(), 0u);
  EXPECT_EQ(hash1, hash2);
  ASSERT_EQ(exec1.merged.jobs.size(), exec2.merged.jobs.size());
  for (std::size_t i = 0; i < exec1.merged.jobs.size(); ++i) {
    EXPECT_EQ(exec1.merged.jobs[i].served, exec2.merged.jobs[i].served);
    EXPECT_EQ(exec1.merged.jobs[i].completion,
              exec2.merged.jobs[i].completion);
  }
}

TEST(MpRun, MergedJobsKeepSpecOrderAndEntitiesAreNamespaced) {
  const auto spec = scenario_spec(2);
  const auto run = mp::run(spec);
  ASSERT_EQ(run.merged.jobs.size(), spec.aperiodic_jobs.size());
  for (std::size_t i = 0; i < spec.aperiodic_jobs.size(); ++i) {
    EXPECT_EQ(run.merged.jobs[i].name, spec.aperiodic_jobs[i].name);
  }
  bool saw_c0 = false, saw_c1 = false;
  for (const auto& who : run.merged.timeline.entities()) {
    saw_c0 = saw_c0 || who.rfind("c0/", 0) == 0;
    saw_c1 = saw_c1 || who.rfind("c1/", 0) == 0;
  }
  EXPECT_TRUE(saw_c0);
  EXPECT_TRUE(saw_c1);
}

// On the exactly-schedulable scenario the periodic tasks never miss, on
// any core, under either engine — the partitioned runtime preserves the
// paper's uniprocessor guarantees core-by-core.
TEST(MpRun, ScenarioPeriodicsMeetDeadlinesOnAllCores) {
  const auto spec = scenario_spec(4);
  const auto exec = mp::run(spec);
  EXPECT_FALSE(exec.merged.periodic_jobs.empty());
  for (const auto& p : exec.merged.periodic_jobs) {
    EXPECT_FALSE(p.deadline_missed) << p.task;
  }
}

// Partitioned sim of a 1-core spec must match the plain simulator: the mp
// layer adds routing and namespacing, not behaviour.
TEST(MpRun, OneCorePartitionedSimMatchesUniprocessorSim) {
  auto spec = scenario_spec(1);
  const auto mp_run = mp::run(spec, sim_options());
  const auto flat = sim::simulate(spec);
  ASSERT_EQ(mp_run.merged.jobs.size(), flat.jobs.size());
  for (std::size_t i = 0; i < flat.jobs.size(); ++i) {
    EXPECT_EQ(mp_run.merged.jobs[i].served, flat.jobs[i].served);
    EXPECT_EQ(mp_run.merged.jobs[i].completion, flat.jobs[i].completion);
  }
}

}  // namespace
}  // namespace tsf::mp
