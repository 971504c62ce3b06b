#include "mp/mp_system.h"

#include <algorithm>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "common/diag.h"
#include "common/trace_stream.h"
#include "mp/channel.h"
#include "mp/multi_vm.h"
#include "mp/overload.h"
#include "sim/simulator.h"

namespace tsf::mp {

using common::TimePoint;

const char* to_string(ExecBackend backend) {
  switch (backend) {
    case ExecBackend::kLockstep:
      return "lockstep";
    case ExecBackend::kThreads:
      return "threads";
  }
  return "?";
}

std::optional<ExecBackend> parse_exec_backend(std::string_view name) {
  if (name == "lockstep") return ExecBackend::kLockstep;
  if (name == "threads") return ExecBackend::kThreads;
  return std::nullopt;
}

const char* to_string(RunEngine engine) {
  switch (engine) {
    case RunEngine::kSim:
      return "sim";
    case RunEngine::kExec:
      return "exec";
  }
  return "?";
}

std::optional<RunEngine> parse_run_engine(std::string_view name) {
  if (name == "sim") return RunEngine::kSim;
  if (name == "exec") return RunEngine::kExec;
  return std::nullopt;
}

bool pool_scheduled(const model::AperiodicJobSpec& job) {
  return job.affinity < 0 && !job.triggered;
}

std::vector<model::SystemSpec> split_spec(const model::SystemSpec& spec,
                                          const Partition& partition,
                                          SchedPolicy policy) {
  std::vector<model::SystemSpec> out;
  out.reserve(partition.cores.size());
  for (std::size_t c = 0; c < partition.cores.size(); ++c) {
    const CoreAssignment& core = partition.cores[c];
    model::SystemSpec sub;
    sub.name = spec.name + "/c" + std::to_string(c);
    sub.cores = 1;
    sub.horizon = spec.horizon;
    sub.server = spec.server;
    if (!core.has_server) sub.server.policy = model::ServerPolicy::kNone;
    sub.periodic_tasks.reserve(core.tasks.size());
    for (std::size_t i : core.tasks) {
      model::PeriodicTaskSpec t = spec.periodic_tasks[i];
      t.affinity = static_cast<int>(c);
      sub.periodic_tasks.push_back(std::move(t));
    }
    sub.aperiodic_jobs.reserve(core.jobs.size());
    for (std::size_t j : core.jobs) {
      if (spec.aperiodic_jobs[j].migrate) continue;  // fabric-released
      if (policy == SchedPolicy::kGlobal &&
          pool_scheduled(spec.aperiodic_jobs[j])) {
        continue;  // lives in the shared ready pool, not on a core
      }
      // Affinity is preserved, not overwritten: -1 marks the job stealable
      // by the semi-partitioned policy.
      sub.aperiodic_jobs.push_back(spec.aperiodic_jobs[j]);
    }
    sub.channel_latency = spec.channel_latency;
    out.push_back(std::move(sub));
  }
  return out;
}

namespace {

// How final an outcome is, for the (job, release) dedupe: a served record
// beats an interrupted or shed one beats an unserved placeholder. A shed
// outcome is final — the overload policy decided the job's fate, and the
// record must not be dropped as a shadow of some other core's pending copy.
int outcome_rank(const model::JobOutcome& o) {
  if (o.served) return 2;
  if (o.interrupted || o.shed) return 1;
  return 0;
}

constexpr std::size_t kNoIndex = static_cast<std::size_t>(-1);

// The dedupe key: a job name viewed in place in its per-core outcome, and
// the release.
struct JobKey {
  std::string_view name;
  TimePoint release;
  bool operator==(const JobKey&) const = default;
};

struct JobKeyHash {
  std::size_t operator()(const JobKey& key) const {
    const std::size_t h = std::hash<std::string_view>{}(key.name);
    return h ^ (static_cast<std::size_t>(key.release.ticks()) +
                0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2));
  }
};

// Where one (job, release) was booked across cores.
struct JobSeen {
  std::size_t completed_on = kNoIndex;  // lowest core with a final outcome
  bool completed_elsewhere = false;     // ...and a second core has one too
  std::size_t unserved_on = kNoIndex;   // first core whose unserved one stays
};

}  // namespace

model::RunResult merge_results(const model::SystemSpec& spec,
                               const Partition& partition,
                               const std::vector<model::RunResult>& per_core) {
  TSF_ASSERT(per_core.size() == partition.cores.size(),
             "one result per core required");
  model::RunResult merged;

  // Dedupe by (job, release): with run-time job movement (work stealing,
  // pool dispatch) a job can complete on a non-home core while its home
  // core still reports the same release as unserved — per-core outcomes
  // are no longer disjoint. The dedupe is strictly *cross-core*: within
  // one core every record is real (a re-fired triggered job can carry two
  // releases at the same instant, one served and one still pending), so
  // nothing a single core reports is ever collapsed. Across cores, an
  // unserved record is a shadow — of a completed record on another core
  // (the job was stolen and ran there) or of another core's unserved
  // record (it was stolen and is still pending there) — and is dropped.
  // The hash maps below are only looked up, never iterated.
  std::size_t outcomes = 0;
  for (const auto& result : per_core) outcomes += result.jobs.size();
  std::unordered_map<JobKey, JobSeen, JobKeyHash> seen;
  seen.reserve(outcomes);
  for (std::size_t c = 0; c < per_core.size(); ++c) {
    for (const auto& outcome : per_core[c].jobs) {
      if (outcome_rank(outcome) == 0) continue;
      JobSeen& s = seen[{outcome.name, outcome.release}];
      if (s.completed_on == kNoIndex) {
        s.completed_on = c;
      } else if (s.completed_on != c) {
        s.completed_elsewhere = true;
      }
    }
  }

  // Aperiodic outcomes, restored to the original spec order: the k-th kept
  // outcome named N (core, then record order) fills the k-th spec slot
  // named N. The rest (a triggered job fired repeatedly) are appended after
  // the slots in name order — deterministic, and the released/served counts
  // stay honest. `open_slot` maps a name to its first unfilled slot, and
  // `next_slot` chains the slots of one name in spec order.
  const auto& jobs = spec.aperiodic_jobs;
  std::unordered_map<std::string_view, std::size_t> open_slot;
  open_slot.reserve(jobs.size());
  std::vector<std::size_t> next_slot(jobs.size(), kNoIndex);
  for (std::size_t s = jobs.size(); s-- > 0;) {
    const auto [it, fresh] = open_slot.try_emplace(jobs[s].name, s);
    if (!fresh) {
      next_slot[s] = it->second;
      it->second = s;
    }
  }
  std::vector<const model::JobOutcome*> slots(jobs.size(), nullptr);
  std::vector<const model::JobOutcome*> extras;
  for (std::size_t c = 0; c < per_core.size(); ++c) {
    for (const auto& outcome : per_core[c].jobs) {
      if (outcome_rank(outcome) == 0) {
        JobSeen& s = seen[{outcome.name, outcome.release}];
        if (s.completed_on != kNoIndex &&
            (s.completed_elsewhere || s.completed_on != c)) {
          continue;  // shadow of a completion on another core
        }
        if (s.unserved_on != kNoIndex && s.unserved_on != c) {
          continue;  // shadow of another core's unserved record
        }
        s.unserved_on = c;
      }
      const auto open = open_slot.find(outcome.name);
      if (open != open_slot.end() && open->second != kNoIndex) {
        slots[open->second] = &outcome;
        open->second = next_slot[open->second];
      } else {
        extras.push_back(&outcome);
      }
    }
  }
  merged.jobs.reserve(jobs.size() + extras.size());
  for (std::size_t s = 0; s < jobs.size(); ++s) {
    if (slots[s] != nullptr) {
      merged.jobs.push_back(*slots[s]);
      continue;
    }
    // Never ran anywhere: a migratable job with no serving core, or a
    // triggered job nobody fired (or a core that was never built).
    model::JobOutcome o;
    o.name = jobs[s].name;
    o.release = jobs[s].release;
    o.cost = jobs[s].cost;
    merged.jobs.push_back(o);
  }
  std::stable_sort(extras.begin(), extras.end(),
                   [](const model::JobOutcome* a, const model::JobOutcome* b) {
                     return a->name < b->name;
                   });
  for (const auto* outcome : extras) merged.jobs.push_back(*outcome);

  // Periodic outcomes: stable order — by release, then core, then record
  // order (std::stable_sort over the concatenation in core order).
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

  // Timelines: a k-way merge by instant, simultaneous records in core
  // order — exactly the stable sort of the core-ordered concatenation,
  // because every per-core timeline is already non-decreasing in time (the
  // TraceSink contract, asserted record by record). Each round takes the
  // core with the earliest head and copies its records, namespaced "c<k>/"
  // in one reused buffer, until the best other head comes first.
  std::size_t records = 0;
  for (const auto& result : per_core) {
    records += result.timeline.records().size();
  }
  merged.timeline.reserve(records);
  std::vector<std::size_t> head(per_core.size(), 0);
  auto head_at = [&](std::size_t c) {
    return per_core[c].timeline.records()[head[c]].at;
  };
  std::string who;
  for (;;) {
    std::size_t best = kNoIndex;
    std::size_t runner = kNoIndex;  // the earliest head among the others
    for (std::size_t c = 0; c < per_core.size(); ++c) {
      if (head[c] == per_core[c].timeline.records().size()) continue;
      if (best == kNoIndex || head_at(c) < head_at(best)) {
        runner = best;
        best = c;
      } else if (runner == kNoIndex || head_at(c) < head_at(runner)) {
        runner = c;
      }
    }
    if (best == kNoIndex) break;
    const auto& core_records = per_core[best].timeline.records();
    const TimePoint bound =
        runner == kNoIndex ? TimePoint::never() : head_at(runner);
    // Ties go to the lower core; with no runner every record is taken.
    const bool take_ties = runner == kNoIndex || best < runner;
    who = "c" + std::to_string(best) + "/";
    const std::size_t prefix = who.size();
    std::size_t& i = head[best];
    do {
      const common::TraceRecord& r = core_records[i];
      TSF_ASSERT(i == 0 || core_records[i - 1].at <= r.at,
                 "core " << best << " timeline goes back in time at record "
                         << i << ": " << r.at << " after "
                         << core_records[i - 1].at);
      who.resize(prefix);
      who += r.who;
      merged.timeline.record(r.at, r.kind, who, r.value, r.note);
      ++i;
    } while (i < core_records.size() &&
             (core_records[i].at < bound ||
              (take_ties && core_records[i].at == bound)));
  }

  // The shed/takeover ledger: concatenated in core order (each core's
  // events are already in decision order), with the deciding core stamped.
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

MpFeasibility analyze(const model::SystemSpec& spec,
                      PackingStrategy strategy) {
  MpFeasibility out;
  out.partition = Partitioner(strategy).partition(spec);

  std::vector<std::vector<model::PeriodicTaskSpec>> tasks_per_core;
  std::vector<const model::ServerSpec*> servers;
  tasks_per_core.reserve(out.partition.cores.size());
  servers.reserve(out.partition.cores.size());
  for (const auto& core : out.partition.cores) {
    std::vector<model::PeriodicTaskSpec> tasks;
    tasks.reserve(core.tasks.size());
    for (std::size_t i : core.tasks) tasks.push_back(spec.periodic_tasks[i]);
    tasks_per_core.push_back(std::move(tasks));
    servers.push_back(core.has_server ? &spec.server : nullptr);
  }
  out.per_core = analysis::analyze_cores(tasks_per_core, servers);
  out.feasible = out.per_core.feasible && out.partition.complete();
  return out;
}

namespace {

MpRunResult run_sim(const model::SystemSpec& spec, Partition partition) {
  MpRunResult out;
  out.partition = std::move(partition);
  const auto subs = split_spec(spec, out.partition);
  out.per_core.reserve(subs.size());
  for (const auto& sub : subs) out.per_core.push_back(sim::simulate(sub));
  out.merged = merge_results(spec, out.partition, out.per_core);
  return out;
}

MpRunResult run_exec(const model::SystemSpec& spec, Partition partition,
                     const MpRunOptions& options) {
  MpRunResult out;
  out.partition = std::move(partition);
  double wall_seconds = 0.0;
  {
    // Scoped: the per-core worlds are torn down before the merge.
    MultiVm machine(spec, out.partition, options);
    machine.run(spec.horizon, options.quantum);
    wall_seconds = machine.wall_seconds();
    out.per_core = machine.collect();
    const ChannelFabric& fabric = machine.fabric();
    const SchedPolicyEngine& engine = machine.engine();
    out.channel_deliveries = fabric.deliveries();
    out.channel_in_flight = fabric.in_flight() + engine.pool_pending();
    out.pool_dispatches = engine.pool_dispatches();
    out.steals = engine.steal_count();
    if (const Rebalancer* rebalancer = machine.rebalancer()) {
      out.rebalance_passes = rebalancer->passes();
      out.rebalance_migrations = rebalancer->migrations();
      out.rebalance_admissions = rebalancer->admissions();
      out.rebalance_still_rejected = rebalancer->still_rejected();
      out.rebalance_utilization = rebalancer->measured_utilization();
    }
    if (const OverloadGovernor* governor = machine.governor()) {
      out.overload_passes = governor->passes();
      out.overload_utilization = governor->measured_utilization();
    }
  }
  out.merged = merge_results(spec, out.partition, out.per_core);
  // Fold the per-core shed/takeover ledger into the delivery ledger — one
  // kShed / kTakeover record per event, deciding core on both ends — so the
  // channel metrics and the invariant checker read a single source.
  for (const auto& event : out.merged.shed_events) {
    exp::ChannelDelivery d;
    d.kind = event.kind == model::ShedEvent::Kind::kTakeover
                 ? exp::ChannelDelivery::Kind::kTakeover
                 : exp::ChannelDelivery::Kind::kShed;
    d.job = event.job;
    d.from_core = event.core;
    d.to_core = event.core;
    d.posted = event.release;
    d.delivered = event.at;
    d.ok = true;
    out.channel_deliveries.push_back(std::move(d));
    if (event.kind == model::ShedEvent::Kind::kTakeover) {
      ++out.takeovers;
    } else {
      ++out.sheds;
    }
  }
  if (options.metrics != nullptr) {
    common::MetricsRegistry& m = *options.metrics;
    m.add_counter("mp.channel.in_flight_at_horizon", out.channel_in_flight);
    m.add_counter("mp.policy.pool_dispatches", out.pool_dispatches);
    m.add_counter("mp.policy.steals", out.steals);
    m.add_counter("mp.rebalance.passes", out.rebalance_passes);
    m.add_counter("mp.rebalance.migrations", out.rebalance_migrations);
    m.add_counter("mp.rebalance.admissions", out.rebalance_admissions);
    m.add_counter("mp.overload.passes", out.overload_passes);
    m.add_counter("mp.overload.sheds", out.sheds);
    m.add_counter("mp.overload.takeovers", out.takeovers);
    // Busy fraction of each core over the whole run: entities of one core
    // never overlap, so their busy windows sum to processor time. One pass
    // over each core's records.
    const double horizon_ticks =
        static_cast<double>((spec.horizon - TimePoint::origin()).count());
    for (std::size_t c = 0; c < out.per_core.size(); ++c) {
      common::StreamingTraceMetrics core;
      for (const auto& r : out.per_core[c].timeline.records()) {
        core.record(r.at, r.kind, r.who, r.value, r.note);
      }
      m.set_gauge("mp.core." + std::to_string(c) + ".utilization",
                  horizon_ticks > 0.0
                      ? static_cast<double>(core.busy_ticks()) / horizon_ticks
                      : 0.0);
    }
    if (options.backend == ExecBackend::kThreads) {
      // The measurement the deterministic oracle can't make: wall-clock
      // throughput and response-time tails on real threads. The response
      // samples are virtual-time quantities (identical to the oracle's,
      // cross-validated by backend_equivalence_test); the *_per_sec gauges
      // and wall_seconds are host measurements and vary run to run.
      std::size_t served = 0;
      for (const auto& job : out.merged.jobs) {
        if (!job.served) continue;
        ++served;
        m.observe("threads.response_tu", job.response().to_tu());
      }
      if (wall_seconds > 0.0) {
        m.set_gauge("threads.events_per_sec",
                    static_cast<double>(out.merged.timeline.records().size()) /
                        wall_seconds);
        m.set_gauge("threads.jobs_per_sec",
                    static_cast<double>(served) / wall_seconds);
      }
    }
  }
  return out;
}

}  // namespace

MpRunResult run(const model::SystemSpec& spec, const MpRunOptions& options) {
  return run(spec, Partitioner(options.strategy).partition(spec), options);
}

MpRunResult run(const model::SystemSpec& spec, Partition partition,
                const MpRunOptions& options) {
  switch (options.engine) {
    case RunEngine::kSim:
      return run_sim(spec, std::move(partition));
    case RunEngine::kExec:
      return run_exec(spec, std::move(partition), options);
  }
  TSF_PANIC("unknown run engine");
}

}  // namespace tsf::mp
