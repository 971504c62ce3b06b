// Cross-core communication interfaces between per-core execution worlds.
//
// The partitioned runtime (tsf::mp) advances one VirtualMachine per core in
// deterministic lock-step epochs; cross-core traffic rides those epoch
// boundaries. This header holds the vocabulary shared by both sides of that
// boundary: the per-core *port* a handler posts into (implemented by
// mp::ChannelFabric), and the per-core *endpoint* the fabric delivers into
// (implemented by exp::ExecSystem). The endpoint also carries the boundary
// policies' hooks into a core: stealing, load sensing, online admission and
// the overload governor's shed pass (shed_lowest_density, one call per
// overloaded core per pass; the shed order itself lives in
// core::TaskServer). Keeping the interfaces here — below the mp layer —
// lets the exec runner stay ignorant of mailboxes, epochs and routing while
// the fabric stays ignorant of servers, fibers and timers.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "common/annotations.h"
#include "common/time.h"
#include "model/spec.h"

namespace tsf::exp {

// A job handed across cores by the migration channel, the global ready pool
// or the semi-partitioned work stealer: enough of the spec to rebuild a
// servable handler on the receiving core. `actual_cost` already includes any
// execution-time jitter (applied once, deterministically, when the run is
// set up — not per delivery attempt).
struct MigratedJob {
  std::string name;
  common::Duration declared_cost = common::Duration::zero();
  common::Duration actual_cost = common::Duration::zero();
  // Propagated fires target: a migrated job may itself fire another job's
  // event on completion.
  std::string fires;
  // Scheduling value (ready-pool / steal ordering); zero means "use the
  // declared cost", mirroring AperiodicJobSpec::effective_value().
  double value = 0.0;
  // Firm deadline relative to release (zero = soft job, never shed). Travels
  // with the job so the receiving core's overload policy keeps honoring it.
  common::Duration relative_deadline = common::Duration::zero();

  double effective_value() const {
    return value == 0.0 ? declared_cost.to_tu() : value;
  }
};

// The shared ordering key of the global ready pool and the steal chooser:
// `a` is scheduled before `b` iff it has the higher value, breaking ties by
// earlier release and then by name. Deliberately independent of spec
// declaration order, which keeps the declaration-order-invariance
// determinism property true under the global/semi-partitioned policies.
inline bool schedules_before(double value_a, common::TimePoint release_a,
                             const std::string& name_a, double value_b,
                             common::TimePoint release_b,
                             const std::string& name_b) {
  if (value_a != value_b) return value_a > value_b;
  if (release_a != release_b) return release_a < release_b;
  return name_a < name_b;
}

// A pending request removed from a core's queue by the work stealer:
// the job identity plus its original release instant, preserved so the
// outcome on the thief core keeps the true response time (and so
// mp::merge_results can deduplicate by (job, release) against the home
// core's bookkeeping).
struct StolenJob {
  MigratedJob job;
  common::TimePoint release = common::TimePoint::never();
};

// One core's outbound side of the channel fabric. A handler that completes a
// job with a `fires` target posts here; delivery happens at a later epoch
// boundary, never synchronously.
class CrossCorePort {
 public:
  virtual ~CrossCorePort() = default;
  // Posts a fire of `job`'s event (resolved to its core by the fabric's
  // routing table) at virtual instant `now`.
  virtual void fire_remote(const std::string& job, common::TimePoint now) = 0;
};

// One core's inbound side: the fabric calls these while every VM is paused
// at an epoch boundary, so the effects (releases, server wake-ups) are
// processed when the core's VM resumes — deterministically at the boundary
// instant.
class CoreEndpoint {
 public:
  virtual ~CoreEndpoint() = default;
  // Fires the local event of `job`. Returns false when this core hosts no
  // such event (the fabric counts the message as undeliverable).
  //
  // Every mutating endpoint hook below is TSF_BARRIER_ONLY: the fabric and
  // the boundary policies (sched_policy, rebalance, overload) may only call
  // in while all VMs are paused at an epoch boundary. tsf_lint enforces
  // that no TSF_WORKER_PHASE code can reach them.
  TSF_BARRIER_ONLY
  virtual bool deliver_fire(const std::string& job) = 0;
  // Instantiates a migrated job on this core (handler + event bound to the
  // local server) and releases it immediately.
  TSF_BARRIER_ONLY
  virtual void deliver_migrated(const MigratedJob& job) = 0;
  // Whether this core has an aperiodic server (migration targets only
  // serving cores).
  virtual bool serves_aperiodics() const = 0;
  // Current pending-queue depth — the load signal behind least-loaded
  // migration, shared-pool dispatch and steal-victim selection.
  virtual std::size_t queue_depth() const = 0;

  // --- scheduling-policy hooks (mp::SchedPolicyEngine; defaults keep
  //     plain endpoints — tests, uniprocessor worlds — working unchanged)

  // Instantiates (or re-uses) `job`'s handler on this core and releases it
  // carrying the given original release instant. Unlike deliver_migrated the
  // outcome keeps the job's true release, so its response time includes the
  // time spent waiting in the shared pool or the victim's queue.
  TSF_BARRIER_ONLY
  virtual void deliver_job(const MigratedJob& job, common::TimePoint release) {
    (void)release;
    deliver_migrated(job);
  }
  // Removes and returns the highest-priority *stealable* pending request
  // (unpinned job, not currently being served), or nullopt when none exists.
  TSF_BARRIER_ONLY
  virtual std::optional<StolenJob> steal_pending() { return std::nullopt; }

  // --- load sensing / online admission (mp::Rebalancer; defaults keep
  //     plain endpoints working unchanged)

  // Read-only copies of every pending request steal_pending could take
  // right now (stealable and released strictly before the current instant),
  // in queue order. The rebalancer packs from this snapshot and then
  // removes, via steal_exact, only the requests that actually move — so an
  // unplaceable request is never popped and re-released.
  TSF_BARRIER_ONLY
  virtual std::vector<StolenJob> stealable_snapshot() const { return {}; }
  // Removes the specific pending request the snapshot promised (matched by
  // (job, release)), or nullopt if it is no longer there.
  TSF_BARRIER_ONLY
  virtual std::optional<StolenJob> steal_exact(const std::string& job,
                                               common::TimePoint release) {
    (void)job;
    (void)release;
    return std::nullopt;
  }

  // Cumulative declared cost of every aperiodic request released on this
  // core so far — the signal the online rebalancer integrates over its
  // sliding window to measure this core's offered aperiodic utilization.
  virtual common::Duration released_cost() const {
    return common::Duration::zero();
  }
  // Summed utilization of the periodic tasks this core runs, including
  // tasks admitted online by admit_task — the static side of the measured
  // load every mp::LoadMeter adds the offered aperiodic rate to.
  virtual double periodic_utilization() const { return 0.0; }
  // Online admission of a periodic task the offline partitioner rejected
  // (rebalance = admit): builds the task's thread on this core and starts
  // it. The task's `start` must be at or after the core's current virtual
  // instant. Returns false when this endpoint cannot host periodic tasks.
  TSF_BARRIER_ONLY
  virtual bool admit_task(const model::PeriodicTaskSpec& task) {
    (void)task;
    return false;
  }

  // --- overload shedding (mp::OverloadGovernor; defaults keep plain
  //     endpoints working unchanged)

  // Drops pending firm requests, lowest value density first, until at
  // least `budget_tu` of declared cost is gone (the order and reach are
  // core::TaskServer::shed_lowest_density's): each one is removed from the
  // queue and gets its shed outcome, kShed trace record and ledger event.
  // Returns how many were shed.
  TSF_BARRIER_ONLY TSF_NO_ALLOC
  virtual std::size_t shed_lowest_density(double budget_tu) {
    (void)budget_tu;
    return 0;
  }
};

// One message's life, recorded by the fabric for the latency metrics: when
// it was posted, when (and whether) it was delivered, and between which
// cores. `from_core == kNoCore` marks a migration release (posted by the
// fabric itself at the job's release instant, not by a core).
struct ChannelDelivery {
  // kFire / kMigrate: PR 2 channel messages (posted → delivered is wire +
  // quantization latency). kPool: a shared-ready-pool dispatch under the
  // global policy (posted = the job's release; the gap is pool wait).
  // kSteal: a work-steal under the semi-partitioned policy (posted = the
  // job's original release on the victim core; the gap is the queue wait
  // before the steal).
  // kRebalance: a move decided by the online rebalancer (mp/rebalance.h) at
  // an epoch boundary. from_core != kNoCore: a pending job migrated to its
  // re-packed home, release-preserving like kSteal (posted = the original
  // release; the gap is the queue wait before the rebalance). from_core ==
  // kNoCore: the online admission of a periodic task the offline
  // partitioner had rejected (posted == delivered == the admission instant).
  // kShed / kTakeover: overload-policy ledger entries folded in from the
  // per-core ShedEvent records (from_core == to_core == the deciding core;
  // posted = the job's release, delivered = the decision instant).
  enum class Kind { kFire, kMigrate, kPool, kSteal, kRebalance, kShed,
                    kTakeover };
  static constexpr std::size_t kNoCore = static_cast<std::size_t>(-1);

  Kind kind = Kind::kFire;
  std::string job;  // target job name
  std::size_t from_core = kNoCore;
  std::size_t to_core = kNoCore;
  common::TimePoint posted = common::TimePoint::never();
  common::TimePoint delivered = common::TimePoint::never();
  bool ok = false;  // delivered to a live endpoint before the horizon

  common::Duration latency() const {
    return ok ? delivered - posted : common::Duration::infinite();
  }
};

}  // namespace tsf::exp
