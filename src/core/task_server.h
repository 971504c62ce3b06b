// TaskServer — the abstract server of the paper's framework (§3).
//
// "This abstract class represents a task server. It implements Schedulable
// and extends Scheduler. It is a schedulable object since it is in fact a
// periodic real-time thread and it is a scheduler since it has to schedule
// SAEHs. It has a method servableEventReleased() which ... is called by the
// AE fire() method."
//
// Concrete policies (PollingTaskServer, DeferrableTaskServer, and the
// extension servers) differ in *when* they serve and *how* capacity is
// replenished; the shared machinery here covers the pending queue, the
// Timed-bounded dispatch with wall-clock capacity accounting, per-request
// outcome records, and the feasibility interface (including the paper's
// getInterference() proposal).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/annotations.h"
#include "core/dover_queue.h"
#include "core/pending_queue.h"
#include "core/servable_async_event_handler.h"
#include "core/task_server_parameters.h"
#include "model/run_result.h"
#include "model/spec.h"
#include "rtsj/schedulable.h"
#include "rtsj/vm/vm.h"

namespace tsf::core {

class TaskServer : public rtsj::Schedulable, public rtsj::Scheduler {
 public:
  TaskServer(rtsj::vm::VirtualMachine& machine, TaskServerParameters params);
  ~TaskServer() override = default;

  // Begins the server's activity (thread / timers). Call before run_until.
  virtual void start() = 0;

  // Called by ServableAsyncEvent::fire() for each bound servable handler.
  // Release is the hot path: it runs at every event fire, inside the fiber
  // quantum, and must neither block nor allocate past the reserve() mark.
  // (Annotations merge across overloads of the same name.)
  TSF_WORKER_PHASE TSF_REALTIME
  void servable_event_released(ServableAsyncEventHandler* handler);
  // Same, but the request carries an explicit release instant instead of
  // the VM clock — the delivery half of cross-core pool dispatch / work
  // stealing, where the job's true release happened elsewhere (or earlier).
  void servable_event_released(ServableAsyncEventHandler* handler,
                               rtsj::AbsoluteTime release);

  // The victim half of the semi-partitioned work stealer: removes the
  // pending request `before` ranks first among the `eligible` ones. Only
  // queued (never running) requests can be taken; the caller re-creates the
  // job on the thief core. Returns nullopt when nothing is eligible.
  //
  // Requests whose release coincides with the current VM instant are never
  // eligible: at a lock-step epoch boundary such a request was bound into
  // the queue by this very boundary's fabric drain (or a timer firing at
  // it), and the server's own wake-up for it is still in flight — stealing
  // it mid-bind would leave the home core reacting to a request that no
  // longer exists. Only strictly earlier releases can be taken.
  TSF_BARRIER_ONLY
  std::optional<Request> steal_pending_request(const StealEligibleFn& eligible,
                                               const StealBeforeFn& before);

  // Read-only walk over the stealable queue (same reach as
  // steal_pending_request, including requests the mid-bind rule would
  // reject) — the online rebalancer snapshots pending work through this
  // before deciding what to move.
  void visit_pending(const VisitFn& fn) const { queue_->visit(fn); }

  // Swaps the pending queue for the D-over overload discipline
  // (core/dover_queue.h), with kAdmit/kDemote/kShed trace records and the
  // exactly-once shed ledger emitted from here. `importance_ratio` is k
  // (analysis/dover.h); each job's value and firm deadline come from its
  // handler. Call before start() and before any release — the queue must
  // still be empty.
  void enable_dover(double importance_ratio);

  // The utilization governor's shed pass (overload = shed). Sheddable
  // requests are firm (non-zero relative deadline) and released strictly
  // before now — a boundary-coincident release is still mid-bind, as for
  // stealing. Taken lowest value density first (value / max(1 tu, declared
  // cost); ties by earlier release, then name, then queue order) while the
  // declared cost removed so far is below `budget_tu`. Each is removed from
  // the queue, its outcome marked shed, and its kShed trace record and
  // ledger event emitted with reason "overload", in that order. Returns how
  // many were shed. One walk over the queue plus a heap over the sheddable
  // ones: only the shed prefix is ever ordered.
  TSF_BARRIER_ONLY TSF_NO_ALLOC
  std::size_t shed_lowest_density(double budget_tu);

  // Every overload decision taken on this server, in decision order — the
  // exactly-once ledger half the invariant checker reconciles.
  const std::vector<model::ShedEvent>& shed_events() const {
    return shed_events_;
  }
  std::uint64_t shed_count() const { return shed_count_; }

  const TaskServerParameters& params() const { return params_; }
  rtsj::RelativeTime remaining_capacity() const { return remaining_; }
  std::size_t pending_count() const { return queue_->size(); }
  // Cumulative declared cost of every request released so far — the load
  // signal the online rebalancer (mp/rebalance.h) samples at epoch
  // boundaries to measure this core's offered aperiodic utilization.
  rtsj::RelativeTime released_cost() const { return released_cost_; }

  // --- statistics / experiment extraction ---
  std::uint64_t released_count() const { return released_; }
  std::uint64_t served_count() const { return served_; }
  std::uint64_t interrupted_count() const { return interrupted_; }
  std::uint64_t activation_count() const { return activations_; }
  std::uint64_t dispatch_count() const { return dispatches_; }
  // Outcomes of all completed (served or interrupted) requests so far.
  const std::vector<model::JobOutcome>& outcomes() const { return outcomes_; }
  // outcomes() plus everything still pending, marked unserved. Destructive
  // on the queue; call once, after the run.
  std::vector<model::JobOutcome> final_outcomes();

  // --- Schedulable ---
  const std::string& name() const override { return params_.name(); }
  int priority() const override { return params_.priority(); }
  const rtsj::ReleaseParameters* release_parameters() const override {
    return &params_;
  }
  rtsj::RelativeTime deadline() const override { return params_.period(); }
  rtsj::RelativeTime cost() const override { return params_.capacity(); }
  // Default: periodic-task interference ceil(w/T)*C (exact for the Polling
  // Server, which "can be included in the feasibility analysis like any
  // periodic task", §2.1). Deferred policies override with their modified
  // bound — the point of the paper's getInterference() proposal.
  rtsj::RelativeTime interference(rtsj::RelativeTime window) const override;
  double utilization() const override {
    return params_.capacity().to_tu() / params_.period().to_tu();
  }

  // --- Scheduler --- (the server schedules its SAEHs; the queue is the
  // policy, so the server-as-scheduler is feasible iff its own analysis
  // holds, delegated to the owning PriorityScheduler in practice.)
  bool is_feasible() const override { return true; }

  rtsj::vm::VirtualMachine& machine() { return vm_; }
  const rtsj::vm::VirtualMachine& machine() const { return vm_; }

 public:
  // Pre-sizes the outcome and shed ledgers for an expected request count
  // so the steady-state serve loop and shed passes never grow a vector
  // mid-run (the zero-alloc contract the interposer test asserts).
  // Optional; vectors still grow past the reservation as usual.
  void reserve(std::size_t expected_requests);

 protected:
  struct DispatchResult {
    rtsj::RelativeTime elapsed = rtsj::RelativeTime::zero();
    bool served = false;
  };

  // Pops up to params_.batch_limit() requests into batch_: the head via
  // `head_fits` (the policy's full single-request rule), followers via
  // `follow_fits`, which sees the batch's cumulative declared cost so the
  // group as a whole still obeys the capacity rule. Returns batch_.size().
  using BatchFitsFn =
      common::FunctionRef<bool(rtsj::RelativeTime declared_cost,
                               rtsj::RelativeTime planned)>;
  TSF_REALTIME
  std::size_t collect_batch(const FitsFn& head_fits,
                            const BatchFitsFn& follow_fits);

  // Serves batch_[0..count) under ONE Timed(budget) section in the
  // server's fiber, charging dispatch_overhead once for the whole burst —
  // the §7 bind/dispatch amortization. Each member gets its own label
  // window, start/completion instants and kComplete record, emitted at its
  // true instant inside the section. If the section's budget expires
  // mid-batch, the running member is recorded interrupted and the
  // unstarted tail goes back to the front of the queue untouched.
  TSF_REALTIME
  DispatchResult dispatch_batch(std::size_t count, rtsj::RelativeTime budget);

  // Policy hook invoked on every release (after queueing). The Polling
  // Server ignores it; event-driven servers wake up.
  virtual void on_release(const Request& request) = 0;

  // Shared shed bookkeeping (dover callbacks + the governor hook): outcome,
  // trace record and ledger event, exactly once per dropped request.
  void record_shed(const Request& request, std::string_view reason);

  rtsj::vm::VirtualMachine& vm_;
  TaskServerParameters params_;
  // Backs the pending queue's request storage; declared before queue_ so
  // the queue (whose deques deallocate into it) dies first.
  common::Arena arena_;
  std::unique_ptr<PendingQueue> queue_;
  std::vector<Request> batch_;  // collect_batch scratch, reused per burst
  rtsj::RelativeTime remaining_ = rtsj::RelativeTime::zero();
  std::uint64_t released_ = 0;
  rtsj::RelativeTime released_cost_ = rtsj::RelativeTime::zero();
  std::uint64_t served_ = 0;
  std::uint64_t interrupted_ = 0;
  std::uint64_t activations_ = 0;
  std::uint64_t dispatches_ = 0;
  std::uint64_t next_seq_ = 0;
  std::vector<model::JobOutcome> outcomes_;
  std::uint64_t shed_count_ = 0;
  std::vector<model::ShedEvent> shed_events_;

 private:
  // shed_lowest_density scratch, reused every pass.
  struct Sheddable {
    double density = 0.0;
    Request request;
    std::size_t position = 0;  // queue order, the last tie-break
  };
  static bool sheds_before(const Sheddable& a, const Sheddable& b);
  std::vector<Sheddable> sheddable_;
  std::vector<std::uint64_t> shed_seqs_;
};

}  // namespace tsf::core
