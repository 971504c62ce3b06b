// MultiVm — the epoch loop of the partitioned multi-core runtime.
//
// Partitioned scheduling has no cross-core preemption, so a multi-core
// machine is modelled as one deterministic rtsj::vm::VirtualMachine per
// core, each hosting one exp::ExecSystem (the same lowering run_exec uses).
// MultiVm drives every core to the same sequence of epoch boundaries: the
// grid points (multiples of `quantum`, and the horizon) at which a boundary
// can act. Within an epoch a core's VM is a closed deterministic world;
// cross-core effects enter only at boundaries, where one function,
// boundary(now), runs the whole sequence while every VM is paused:
//
//   1. staged-fire replay — handlers stage their outbound fires through
//      their core's port into one MPSC queue (mp/mailbox.h); the boundary
//      replays them into the fabric in (from_core, seq) order;
//   2. fabric drain — remote fires and migrations are delivered;
//   3. scheduling-policy engine — pool dispatch / work stealing;
//   4. rebalancer — drift migration / online admission (rebalance != off);
//   5. overload governor — shedding, the final resort (overload = shed);
//   6. metrics, and the next boundary.
//
// Which grid points are boundaries (the lookahead rule of conservative
// parallel discrete-event simulation — a core runs on to the earliest
// instant at which another could affect it):
//  * every one, when a boundary can act at any grid point: a job of the
//    spec `fires` (a completion can post at any instant), a migratable or
//    global-pool job is registered (it is delivered at the first grid point
//    >= its due instant), the policy is semi (a steal can follow any
//    completion), or a Rebalancer or OverloadGovernor is armed (they
//    sample the LoadMeter at every boundary, so their decisions depend on
//    the quantum by design);
//  * otherwise only the horizon: nothing can cross cores, so a fire-free
//    partitioned run is one epoch.
// Pauses are invisible to a core's trace, so the rule changes no trace,
// ledger or outcome; only the count of boundaries ("mp.epochs") and what
// is observed per boundary.
//
// Only the executor that advances the cores between boundaries depends on
// the backend:
//  * ExecBackend::kLockstep — an inline loop on the calling thread runs
//    each core's VM to the boundary in core order, then calls boundary().
//  * ExecBackend::kThreads — one worker per core, pinned to a CPU where the
//    platform allows it, runs its VM concurrently with the others (the
//    VM's fibers switch in process on that worker, so a core is exactly
//    one OS thread); the workers meet at a std::barrier whose completion
//    step (one thread, synchronized with every worker by the barrier)
//    calls boundary().
//
// Both executors present the same staged batch to the same boundary, so
// every trace, outcome and ledger is bit-identical across backends
// (tests/mp/backend_equivalence_test.cc): the merged trace depends only on
// the specs and the quantum, never on host scheduling. What differs run to
// run is host time only ("mp.epoch.host_seconds", "threads.*").
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "common/annotations.h"
#include "common/metrics_registry.h"
#include "common/time.h"
#include "common/trace_sink.h"
#include "exp/exec_runner.h"
#include "model/run_result.h"
#include "model/spec.h"
#include "mp/channel.h"
#include "mp/mailbox.h"
#include "mp/mp_system.h"
#include "mp/overload.h"
#include "mp/partition.h"
#include "mp/rebalance.h"
#include "mp/sched_policy.h"
#include "rtsj/vm/vm.h"

namespace tsf::mp {

class MultiVm {
 public:
  // Builds the machine `options` describe for `spec` under `partition`:
  // one VM + ExecSystem per core (split_spec), every core's jobs bound into
  // the fabric's routing table, migratable and pool jobs registered, the
  // rebalancer (rebalance != off) and governor (overload = shed) armed,
  // options.core_trace_sinks teed onto the per-core timelines, and
  // options.metrics as the counter registry. `spec`, `partition`, the
  // sinks and the registry must outlive the MultiVm.
  MultiVm(const model::SystemSpec& spec, const Partition& partition,
          const MpRunOptions& options);
  ~MultiVm();
  MultiVm(const MultiVm&) = delete;
  MultiVm& operator=(const MultiVm&) = delete;

  // Starts every core's world and advances it to `horizon` through the
  // grid points (multiples of `quantum`, the last epoch clipped to the
  // horizon) at which a boundary can act (see the file comment), on the
  // executor options.backend selects. One-shot. Rethrows the first error a
  // core's world raised.
  //
  // Metrics: "mp.epochs" (boundaries executed), "mp.epoch.host_seconds"
  // (host time from the end of the previous boundary, or the run's start,
  // to the start of this one), "mp.fabric.deliveries",
  // "mp.fabric.drain_size" (one observation per boundary); under threads
  // also the gauges "threads.wall_seconds" and "threads.workers_pinned".
  void run(common::TimePoint horizon,
           common::Duration quantum = common::Duration::time_units(1));

  // Per-core results, in core order. Destructive; call once after run().
  std::vector<model::RunResult> collect();

  // --- boundary state, for the run's result ---
  const ChannelFabric& fabric() const { return fabric_; }
  const SchedPolicyEngine& engine() const { return engine_; }
  // Null when the policy is not configured.
  const Rebalancer* rebalancer() const {
    return rebalancer_ ? &*rebalancer_ : nullptr;
  }
  const OverloadGovernor* governor() const {
    return governor_ ? &*governor_ : nullptr;
  }
  // Host seconds run() spent advancing the cores.
  double wall_seconds() const { return wall_seconds_; }

 private:
  struct StagedPort;
  struct BoundaryFn {
    MultiVm* machine;
    void operator()() noexcept {
      machine->boundary(machine->next_boundary(machine->now_));
    }
  };

  // The boundary after `now`: the next grid point at which a boundary can
  // act (the rule of the file comment), clipped to the horizon.
  common::TimePoint next_boundary(common::TimePoint now) const {
    return every_boundary_ ? common::min(now + quantum_, horizon_) : horizon_;
  }
  void run_inline();
  void run_threads();
  // The boundary sequence (see the file comment). Every VM is paused at
  // `now`; on the threads executor every worker is parked at the barrier.
  TSF_BARRIER_ONLY
  void boundary(common::TimePoint now);
  void record_failure(std::exception_ptr error);

  // Boundary state first: the worlds below hold pointers into it.
  ChannelFabric fabric_;
  SchedPolicyEngine engine_;
  std::optional<Rebalancer> rebalancer_;
  std::optional<OverloadGovernor> governor_;
  common::MetricsRegistry* metrics_ = nullptr;
  ExecBackend backend_;

  // The one staging queue every core's port pushes into; drained only by
  // boundary().
  MpscQueue<StagedFire> staged_;
  std::vector<StagedFire> replay_;  // reused per-boundary batch buffer
  std::vector<std::unique_ptr<StagedPort>> ports_;
  std::vector<std::unique_ptr<common::TeeSink>> tees_;
  // Destruction order matters: systems_ (fibers, timers) must go before
  // the VMs they run on, so vms_ is declared first.
  std::vector<std::unique_ptr<rtsj::vm::VirtualMachine>> vms_;
  std::vector<std::unique_ptr<exp::ExecSystem>> systems_;

  // Whether a boundary can act at every grid point (none is elided). Set
  // by the constructor only.
  bool every_boundary_ = false;
  // Epoch cursor: the last boundary reached. Threads workers track the
  // identical sequence locally (same arithmetic, same inputs).
  common::TimePoint now_ = common::TimePoint::origin();
  common::TimePoint horizon_ = common::TimePoint::origin();
  common::Duration quantum_ = common::Duration::time_units(1);
  std::chrono::steady_clock::time_point boundary_end_;

  std::atomic<bool> failed_{false};
  std::atomic<std::size_t> pinned_{0};
  std::mutex error_mutex_;
  std::exception_ptr first_error_;
  double wall_seconds_ = 0.0;
  bool ran_ = false;
};

}  // namespace tsf::mp
