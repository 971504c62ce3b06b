// Lowers a model::SystemSpec onto the RTSJ-style runtime and runs it — the
// "execution" side of the paper's §6 comparison.
//
// Every aperiodic job becomes a ServableAsyncEvent fired by a OneShotTimer
// at its release instant, bound to a ServableAsyncEventHandler whose body
// consumes the job's true cost; every periodic task becomes a
// RealtimeThread. The server is built from the spec's ServerSpec.
#pragma once

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/time.h"
#include "exp/cross_core.h"
#include "exp/overload.h"
#include "model/run_result.h"
#include "model/spec.h"
#include "rtsj/vm/vm.h"

namespace tsf::core {
class ServableAsyncEvent;
class ServableAsyncEventHandler;
class TaskServer;
struct Request;
}  // namespace tsf::core
namespace tsf::rtsj {
class OneShotTimer;
class RealtimeThread;
}  // namespace tsf::rtsj

namespace tsf::exp {

struct ExecOptions {
  // Kernel costs (timer fires, context switches, releases).
  rtsj::vm::OverheadModel kernel;
  // Framework bookkeeping charged by the server itself.
  common::Duration poll_overhead = common::Duration::zero();
  common::Duration dispatch_overhead = common::Duration::zero();
  // Execution-time jitter: each handler's *actual* demand is its declared
  // cost scaled by uniform(1 - jitter, 1 + jitter), deterministically in
  // (jitter_seed, job order). Models the paper's real-machine effect that a
  // task "overruns its WCET", one of the two interruption causes named in
  // §7. Zero disables it; the declared cost (what the server admits against)
  // is never changed.
  double cost_jitter = 0.0;
  std::uint64_t jitter_seed = 7;
  // Overload policy (exp/overload.h). kDover swaps each serving core's
  // pending queue for the D-over discipline at construction; kShed is acted
  // on by the mp layer's OverloadGovernor at epoch boundaries.
  OverloadConfig overload;
  // Burst batching ([run] batch): the server dispatches up to this many
  // pending releases under one Timed section, charging dispatch_overhead
  // once per batch. 1 reproduces per-event dispatch bit-for-bit. Ignored
  // under overload = dover (D-over's admission/LST triage is inherently
  // per-event) and by the sporadic server (per-dispatch replenishment).
  int batch = 1;
};

// One job's actual demand under ExecOptions::cost_jitter: the cost scaled
// by uniform(1 - jitter, 1 + jitter), floored at one tick. Draws from `rng`
// only when jitter is enabled, so callers' RNG streams are unaffected by
// jitterless runs. Shared by the per-core ExecSystems and the fabric-side
// job registration (migratables, ready-pool jobs) so every job sees the
// same jitter model regardless of which path releases it.
common::Duration jittered_cost(common::Rng& rng, const ExecOptions& options,
                               common::Duration cost);

// An ideal machine: every overhead zero. The residual differences from the
// simulation are then purely the policy adaptations (non-resumable
// handlers, first-fit queue).
ExecOptions ideal_execution_options();

// Overheads standing in for the paper's TimeSys RI / rtlinux testbed
// (DESIGN.md §2 documents the substitution; EXPERIMENTS.md the calibration).
ExecOptions paper_execution_options();

model::RunResult run_exec(const model::SystemSpec& spec,
                          const ExecOptions& options = {});

// One spec lowered onto one VM, with the run loop left to the caller — the
// building block behind run_exec and the per-core worlds of mp::MultiVm
// (which advances several VMs to common epoch boundaries). Lifecycle:
//
//     rtsj::vm::VirtualMachine vm(options.kernel);
//     ExecSystem system(vm, spec, options);   // builds server/threads/timers
//     system.start();                         // arms them
//     vm.run_until(...);                      // as many times as you like
//     model::RunResult result = system.collect();   // once, at the end
//
// The ExecSystem must be destroyed before its VM.
//
// As a CoreEndpoint it is also one core's terminus of the cross-core
// channel fabric (multi-core runs): `port` is where handlers whose job has a
// `fires` target post their outbound fires, and deliver_fire /
// deliver_migrated are invoked by the fabric at epoch boundaries. With a
// null port (uniprocessor run_exec), `fires` resolves locally and fires
// synchronously at handler completion.
//
// Threading contract (backend = threads): completion posting through `port`
// happens mid-epoch, concurrently with other cores' worlds — the port
// implementation must be thread-safe (mp::MultiVm hands each core a port
// staging into a lock-free MPSC mailbox). Every CoreEndpoint method,
// by contrast, is only ever invoked at an epoch boundary while all workers
// are synchronized at the barrier, so the endpoint itself needs no locks.
class ExecSystem : public CoreEndpoint {
 public:
  ExecSystem(rtsj::vm::VirtualMachine& vm, const model::SystemSpec& spec,
             const ExecOptions& options, CrossCorePort* port = nullptr);
  ~ExecSystem() override;
  ExecSystem(const ExecSystem&) = delete;
  ExecSystem& operator=(const ExecSystem&) = delete;

  void start();
  // Ends the VM's run (VirtualMachine::finish), extracts outcomes (spec
  // order; re-fired jobs append extra outcomes after the spec-ordered
  // block) and moves the VM's timeline out. Destructive; call once after
  // the final run_until.
  model::RunResult collect();

  // --- CoreEndpoint (called by mp::ChannelFabric / the scheduling-policy
  //     engine at epoch boundaries; TSF_BARRIER_ONLY mirrors the interface
  //     contract in exp/cross_core.h) ---
  TSF_BARRIER_ONLY
  bool deliver_fire(const std::string& job) override;
  TSF_BARRIER_ONLY
  void deliver_migrated(const MigratedJob& job) override;
  bool serves_aperiodics() const override;
  std::size_t queue_depth() const override;
  TSF_BARRIER_ONLY
  void deliver_job(const MigratedJob& job,
                   common::TimePoint release) override;
  TSF_BARRIER_ONLY
  std::optional<StolenJob> steal_pending() override;
  TSF_BARRIER_ONLY
  std::vector<StolenJob> stealable_snapshot() const override;
  TSF_BARRIER_ONLY
  std::optional<StolenJob> steal_exact(const std::string& job,
                                       common::TimePoint release) override;
  common::Duration released_cost() const override;
  double periodic_utilization() const override { return periodic_util_; }
  TSF_BARRIER_ONLY
  bool admit_task(const model::PeriodicTaskSpec& task) override;
  TSF_BARRIER_ONLY TSF_NO_ALLOC
  std::size_t shed_lowest_density(double budget_tu) override;

 private:
  // What deliver_job / steal_pending need to rebuild a job elsewhere
  // beyond what its handler carries (name, declared cost, value, firm
  // deadline): the actual cost and fires target build_job was given, plus
  // whether the work stealer may take a pending release of it (spec
  // affinity == -1; delivered jobs are always unpinned by construction).
  struct JobInfo {
    common::Duration actual = common::Duration::zero();
    std::string fires;
    bool stealable = false;
  };

  const JobInfo& info_of(const core::Request& r) const;
  StolenJob to_stolen(const core::Request& r) const;
  // Builds one periodic task's RealtimeThread (body records
  // PeriodicOutcomes against task.start + k * period).
  rtsj::RealtimeThread* build_task(const model::PeriodicTaskSpec& task);
  // Builds handler + event (+ optional release timer) for one job and
  // registers the event under the job's name.
  void build_job(const std::string& name, common::Duration declared,
                 common::Duration actual, const std::string& fires,
                 bool with_timer, common::TimePoint release,
                 double value = 0.0, bool stealable = false,
                 common::Duration relative_deadline = common::Duration::zero());
  // Routes a completed handler's `fires` target: through the port when the
  // fabric is attached, synchronously otherwise.
  void fire_target(const std::string& job);

  rtsj::vm::VirtualMachine& vm_;
  model::SystemSpec spec_;
  model::RunResult result_;
  CrossCorePort* port_ = nullptr;
  std::unique_ptr<core::TaskServer> server_;
  std::vector<std::unique_ptr<rtsj::RealtimeThread>> threads_;
  double periodic_util_ = 0.0;  // summed over threads_, in build order
  std::vector<std::unique_ptr<core::ServableAsyncEventHandler>> handlers_;
  std::vector<std::unique_ptr<core::ServableAsyncEvent>> events_;
  std::vector<std::unique_ptr<rtsj::OneShotTimer>> timers_;
  std::map<std::string, core::ServableAsyncEvent*> events_by_job_;
  std::map<std::string, core::ServableAsyncEventHandler*> handlers_by_job_;
  std::map<std::string, JobInfo> job_info_;
  // Jobs a steal removed from this core's queue (and that never came
  // back): their fate is recorded by the thief core, so collect() must not
  // book the usual never-ran placeholder for them.
  std::set<std::string> stolen_away_;
};

}  // namespace tsf::exp
