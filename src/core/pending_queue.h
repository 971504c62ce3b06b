// Pending-event queues for task servers.
//
// The paper uses a FIFO list whose chooseNextEvent() returns "the first
// handler in the list which has a cost lower than the remaining capacity"
// (§4.1) — our kFifoFirstFit. kStrictFifo is the head-blocking variant the
// theoretical servers use, and kListOfLists is the §7 proposal: handlers are
// packed into per-server-instance buckets so that the response time of a new
// release is computable in constant time (equation (5)).
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "common/annotations.h"
#include "common/arena.h"
#include "common/function_ref.h"
#include "model/spec.h"
#include "rtsj/time.h"

namespace tsf::core {

class ServableAsyncEventHandler;

// One release of a servable event bound to a handler.
struct Request {
  ServableAsyncEventHandler* handler = nullptr;
  rtsj::AbsoluteTime release;
  std::uint64_t seq = 0;  // global release order
};

// Predicate deciding whether a request with the given declared cost can be
// dispatched right now (the servers encode their capacity rules here).
// Non-owning (common::FunctionRef): the servers rebuild these per
// activation on the hot path, so binding must never allocate — pass
// lambdas in the call expression or keep the lambda alive alongside.
using FitsFn = common::FunctionRef<bool(rtsj::RelativeTime declared_cost)>;

// Work-stealing selectors (mp semi-partitioned policy): which pending
// requests may leave this core, and which of two ranks first.
using StealEligibleFn = common::FunctionRef<bool(const Request&)>;
using StealBeforeFn =
    common::FunctionRef<bool(const Request&, const Request&)>;
// Read-only walkers (visit): non-owning, so a boundary pass walking the
// queue never heap-allocates a closure.
using VisitFn = common::FunctionRef<void(const Request&)>;

// The request containers: deque chunks come from the owning server's arena
// (freelist-recycled, so steady-state push/pop touches no heap); with a
// null arena they fall back to the global heap.
using RequestDeque = std::deque<Request, common::ArenaAllocator<Request>>;

class PendingQueue {
 public:
  virtual ~PendingQueue() = default;

  // push / requeue / pop_fitting / begin_instance run inside the serve
  // loop (every release, every activation): TSF_REALTIME — arena-backed
  // storage keeps the steady state off the heap. drain / steal only run at
  // epoch boundaries or end-of-run: TSF_BARRIER_ONLY.
  TSF_REALTIME
  virtual void push(Request r) = 0;
  // Returns a popped-but-unserved request to the *front* of the service
  // order (the batched dispatcher's interrupted-tail path: requests behind
  // an interrupted batch member never started and must not lose their
  // place). Call in reverse pop order to restore the original sequence.
  // Default: plain push (disciplines without a meaningful front).
  TSF_REALTIME
  virtual void requeue(Request r) { push(std::move(r)); }
  // Removes and returns the next dispatchable request, or nullopt when no
  // queued request satisfies `fits`.
  TSF_REALTIME
  virtual std::optional<Request> pop_fitting(const FitsFn& fits) = 0;
  virtual bool empty() const = 0;
  virtual std::size_t size() const = 0;
  // Removes and returns everything still pending (end-of-run accounting).
  TSF_BARRIER_ONLY
  virtual std::vector<Request> drain() = 0;
  // Removes and returns the request that `before` ranks first among those
  // `eligible`, or nullopt when none is eligible — the victim side of the
  // semi-partitioned work stealer. Only pending (never running) requests
  // live in the queue, so a stolen job can never be mid-dispatch. A request
  // can, however, be mid-*bind*: released at this very instant (an epoch
  // boundary), with the home server's wake-up for it still in flight —
  // TaskServer::steal_pending_request therefore excludes boundary-
  // coincident releases from `eligible` before delegating here.
  TSF_BARRIER_ONLY
  virtual std::optional<Request> steal(const StealEligibleFn& eligible,
                                       const StealBeforeFn& before) = 0;
  // Read-only walk over every request steal() could reach, in queue order
  // (the list-of-lists queue skips its parked unservable requests, exactly
  // like steal does). The online rebalancer snapshots queues through this
  // before deciding what — if anything — to move, so nothing is ever
  // popped and re-pushed just to be put back.
  virtual void visit(const VisitFn& fn) const = 0;
  // Removes, in one walk, every request visit() reaches whose seq is in
  // `seqs` (sorted ascending); every other request keeps its place. The
  // removal half of the overload governor's shed pass
  // (TaskServer::shed_lowest_density).
  TSF_BARRIER_ONLY TSF_NO_ALLOC
  virtual void remove_seqs(std::span<const std::uint64_t> seqs) = 0;
  // Called by instance-based servers at each activation; only the
  // list-of-lists queue reacts (it rotates to the next instance bucket).
  TSF_REALTIME
  virtual void begin_instance() {}

  // `arena`, when non-null, backs the queue's request storage (one arena
  // per owning server; the queue must not outlive it).
  static std::unique_ptr<PendingQueue> make(model::QueueDiscipline discipline,
                                            rtsj::RelativeTime capacity,
                                            common::Arena* arena = nullptr);
};

// Serve strictly in release order; an oversized head blocks everything.
class StrictFifoQueue : public PendingQueue {
 public:
  explicit StrictFifoQueue(common::Arena* arena = nullptr)
      : q_(common::ArenaAllocator<Request>(arena)) {}
  TSF_REALTIME
  void push(Request r) override { q_.push_back(std::move(r)); }
  TSF_REALTIME
  void requeue(Request r) override { q_.push_front(std::move(r)); }
  TSF_REALTIME
  std::optional<Request> pop_fitting(const FitsFn& fits) override;
  bool empty() const override { return q_.empty(); }
  std::size_t size() const override { return q_.size(); }
  TSF_BARRIER_ONLY
  std::vector<Request> drain() override;
  TSF_BARRIER_ONLY
  std::optional<Request> steal(const StealEligibleFn& eligible,
                               const StealBeforeFn& before) override;
  void visit(const VisitFn& fn) const override;
  TSF_BARRIER_ONLY TSF_NO_ALLOC
  void remove_seqs(std::span<const std::uint64_t> seqs) override;

 private:
  RequestDeque q_;
};

// The paper's chooseNextEvent(): first request (in release order) that fits.
class FifoFirstFitQueue : public PendingQueue {
 public:
  explicit FifoFirstFitQueue(common::Arena* arena = nullptr)
      : q_(common::ArenaAllocator<Request>(arena)) {}
  TSF_REALTIME
  void push(Request r) override { q_.push_back(std::move(r)); }
  TSF_REALTIME
  void requeue(Request r) override { q_.push_front(std::move(r)); }
  TSF_REALTIME
  std::optional<Request> pop_fitting(const FitsFn& fits) override;
  bool empty() const override { return q_.empty(); }
  std::size_t size() const override { return q_.size(); }
  TSF_BARRIER_ONLY
  std::vector<Request> drain() override;
  TSF_BARRIER_ONLY
  std::optional<Request> steal(const StealEligibleFn& eligible,
                               const StealBeforeFn& before) override;
  void visit(const VisitFn& fn) const override;
  TSF_BARRIER_ONLY TSF_NO_ALLOC
  void remove_seqs(std::span<const std::uint64_t> seqs) override;

 private:
  RequestDeque q_;
};

// §7: a list of lists of handlers, each inner list holding at most one
// server instance worth of declared cost, plus the parallel list of
// cumulative costs. Releases append to the last open instance (or open a
// new one), so registration and the placement query are O(1) — the paper's
// constant-time response-time claim — and global FIFO order is preserved
// (a later release never jumps into an earlier instance). The bucket index
// and the cumulative cost before a request give its response time via
// equation (5) (see ResponseTimePredictor).
class ListOfListsQueue : public PendingQueue {
 public:
  explicit ListOfListsQueue(rtsj::RelativeTime capacity,
                            common::Arena* arena = nullptr);

  TSF_REALTIME
  void push(Request r) override;
  // Back to the front of the active instance (batched-dispatch tail).
  TSF_REALTIME
  void requeue(Request r) override;
  // Serves only the active instance's list (detached at begin_instance).
  TSF_REALTIME
  std::optional<Request> pop_fitting(const FitsFn& fits) override;
  bool empty() const override;
  std::size_t size() const override;
  TSF_BARRIER_ONLY
  std::vector<Request> drain() override;
  // Scans the active list and every future bucket (bucket loads are
  // adjusted; an underfull bucket is harmless). Unservable requests are
  // excluded — the thief's server replica has the same capacity, so they
  // could not be served there either.
  TSF_BARRIER_ONLY
  std::optional<Request> steal(const StealEligibleFn& eligible,
                               const StealBeforeFn& before) override;
  // Active list, then every future bucket; parked unservable requests are
  // skipped (they are outside steal's reach too).
  void visit(const VisitFn& fn) const override;
  // Same reach as visit; bucket loads are adjusted and emptied buckets
  // dropped, exactly as steal leaves them.
  TSF_BARRIER_ONLY TSF_NO_ALLOC
  void remove_seqs(std::span<const std::uint64_t> seqs) override;
  // Rotates: unserved leftovers of the active list are re-registered, then
  // the first future bucket becomes the active list.
  TSF_REALTIME
  void begin_instance() override;

  // --- the §7 prediction interface ---
  // Where would a request with this declared cost land, were it released
  // now? Returns {instances_from_next_activation, cumulative_cost_before}.
  struct Placement {
    std::int64_t instance_offset = 0;
    rtsj::RelativeTime cumulative_before = rtsj::RelativeTime::zero();
  };
  Placement placement_for(rtsj::RelativeTime declared_cost) const;

  std::size_t bucket_count() const { return buckets_.size(); }

 private:
  struct Bucket {
    RequestDeque items;
    rtsj::RelativeTime load = rtsj::RelativeTime::zero();
    explicit Bucket(common::ArenaAllocator<Request> alloc)
        : items(std::move(alloc)) {}
  };

  void append(Request r);

  rtsj::RelativeTime capacity_;
  common::ArenaAllocator<Request> alloc_;
  RequestDeque active_;  // the instance currently being served
  // Future instances, in order (the buckets' own deque chunks come from
  // the same arena as their items).
  std::deque<Bucket, common::ArenaAllocator<Bucket>> buckets_;
  // Requests whose declared cost exceeds the capacity violate the
  // framework's §4 constraint and can never be served; they are parked here
  // (reported by size()/drain()) instead of wasting a whole instance.
  std::vector<Request> unservable_;
};

}  // namespace tsf::core
