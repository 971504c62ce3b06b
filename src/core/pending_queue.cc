#include "core/pending_queue.h"

#include <algorithm>

#include "common/diag.h"
#include "core/servable_async_event_handler.h"

namespace tsf::core {

namespace {
rtsj::RelativeTime declared(const Request& r) {
  return r.handler->cost();
}

// Shared steal scan over one deque: removes the request `before` ranks
// first among the `eligible` ones.
std::optional<Request> steal_from(RequestDeque& q,
                                  const StealEligibleFn& eligible,
                                  const StealBeforeFn& before) {
  auto best = q.end();
  for (auto it = q.begin(); it != q.end(); ++it) {
    if (!eligible(*it)) continue;
    if (best == q.end() || before(*it, *best)) best = it;
  }
  if (best == q.end()) return std::nullopt;
  Request r = std::move(*best);
  q.erase(best);
  return r;
}

bool listed(std::span<const std::uint64_t> seqs, const Request& r) {
  return std::binary_search(seqs.begin(), seqs.end(), r.seq);
}

// Shared remove_seqs pass over one deque: a stable compaction, so the
// survivors keep their relative order.
void remove_listed(RequestDeque& q, std::span<const std::uint64_t> seqs) {
  q.erase(std::remove_if(q.begin(), q.end(),
                         [&](const Request& r) { return listed(seqs, r); }),
          q.end());
}
}  // namespace

std::unique_ptr<PendingQueue> PendingQueue::make(
    model::QueueDiscipline discipline, rtsj::RelativeTime capacity,
    common::Arena* arena) {
  switch (discipline) {
    case model::QueueDiscipline::kStrictFifo:
      return std::make_unique<StrictFifoQueue>(arena);
    case model::QueueDiscipline::kFifoFirstFit:
      return std::make_unique<FifoFirstFitQueue>(arena);
    case model::QueueDiscipline::kListOfLists:
      return std::make_unique<ListOfListsQueue>(capacity, arena);
  }
  TSF_PANIC("unknown queue discipline");
}

std::optional<Request> StrictFifoQueue::pop_fitting(const FitsFn& fits) {
  if (q_.empty() || !fits(declared(q_.front()))) return std::nullopt;
  Request r = std::move(q_.front());
  q_.pop_front();
  return r;
}

std::vector<Request> StrictFifoQueue::drain() {
  std::vector<Request> out(q_.begin(), q_.end());
  q_.clear();
  return out;
}

std::optional<Request> StrictFifoQueue::steal(const StealEligibleFn& eligible,
                                              const StealBeforeFn& before) {
  return steal_from(q_, eligible, before);
}

void StrictFifoQueue::visit(const VisitFn& fn) const {
  for (const auto& r : q_) fn(r);
}

void StrictFifoQueue::remove_seqs(std::span<const std::uint64_t> seqs) {
  remove_listed(q_, seqs);
}

std::optional<Request> FifoFirstFitQueue::pop_fitting(const FitsFn& fits) {
  for (auto it = q_.begin(); it != q_.end(); ++it) {
    if (fits(declared(*it))) {
      Request r = std::move(*it);
      q_.erase(it);
      return r;
    }
  }
  return std::nullopt;
}

std::vector<Request> FifoFirstFitQueue::drain() {
  std::vector<Request> out(q_.begin(), q_.end());
  q_.clear();
  return out;
}

std::optional<Request> FifoFirstFitQueue::steal(
    const StealEligibleFn& eligible, const StealBeforeFn& before) {
  return steal_from(q_, eligible, before);
}

void FifoFirstFitQueue::visit(const VisitFn& fn) const {
  for (const auto& r : q_) fn(r);
}

void FifoFirstFitQueue::remove_seqs(std::span<const std::uint64_t> seqs) {
  remove_listed(q_, seqs);
}

ListOfListsQueue::ListOfListsQueue(rtsj::RelativeTime capacity,
                                   common::Arena* arena)
    : capacity_(capacity),
      alloc_(arena),
      active_(alloc_),
      buckets_(common::ArenaAllocator<Bucket>(arena)) {
  TSF_ASSERT(capacity_ > rtsj::RelativeTime::zero(),
             "list-of-lists queue needs a positive capacity");
}

void ListOfListsQueue::append(Request r) {
  // O(1): only the last open instance is considered, so registration cost
  // does not grow with the backlog and FIFO order is never violated.
  const rtsj::RelativeTime c = declared(r);
  if (c > capacity_) {
    unservable_.push_back(std::move(r));
    return;
  }
  if (buckets_.empty() || buckets_.back().load + c > capacity_) {
    buckets_.emplace_back(alloc_);
  }
  buckets_.back().load += c;
  buckets_.back().items.push_back(std::move(r));
}

void ListOfListsQueue::push(Request r) { append(std::move(r)); }

void ListOfListsQueue::requeue(Request r) {
  // The batched dispatcher only requeues requests it popped from the active
  // instance this very activation, so the front of the active list is their
  // original place (requeue happens in reverse pop order).
  active_.push_front(std::move(r));
}

std::optional<Request> ListOfListsQueue::pop_fitting(const FitsFn& fits) {
  if (active_.empty() || !fits(declared(active_.front()))) return std::nullopt;
  Request r = std::move(active_.front());
  active_.pop_front();
  return r;
}

bool ListOfListsQueue::empty() const {
  // Unservable requests are deliberately excluded: they must not make an
  // event-driven server wake up for work it can never dispatch.
  return active_.empty() && buckets_.empty();
}

std::size_t ListOfListsQueue::size() const {
  std::size_t n = active_.size() + unservable_.size();
  for (const auto& b : buckets_) n += b.items.size();
  return n;
}

std::vector<Request> ListOfListsQueue::drain() {
  std::vector<Request> out(active_.begin(), active_.end());
  active_.clear();
  for (auto& b : buckets_) {
    out.insert(out.end(), b.items.begin(), b.items.end());
  }
  buckets_.clear();
  out.insert(out.end(), unservable_.begin(), unservable_.end());
  unservable_.clear();
  return out;
}

std::optional<Request> ListOfListsQueue::steal(
    const StealEligibleFn& eligible, const StealBeforeFn& before) {
  // Two passes keep every untaken request exactly where it was: first find
  // the winner across the active list and all future buckets, then remove
  // it by its (unique) release seq.
  const Request* best = nullptr;
  for (const auto& r : active_) {
    if (eligible(r) && (best == nullptr || before(r, *best))) best = &r;
  }
  for (const auto& bucket : buckets_) {
    for (const auto& r : bucket.items) {
      if (eligible(r) && (best == nullptr || before(r, *best))) best = &r;
    }
  }
  if (best == nullptr) return std::nullopt;
  const std::uint64_t seq = best->seq;
  for (auto it = active_.begin(); it != active_.end(); ++it) {
    if (it->seq != seq) continue;
    Request r = std::move(*it);
    active_.erase(it);
    return r;
  }
  for (auto bucket = buckets_.begin(); bucket != buckets_.end(); ++bucket) {
    for (auto it = bucket->items.begin(); it != bucket->items.end(); ++it) {
      if (it->seq != seq) continue;
      Request r = std::move(*it);
      bucket->load -= declared(r);
      bucket->items.erase(it);
      if (bucket->items.empty()) buckets_.erase(bucket);
      return r;
    }
  }
  return std::nullopt;  // unreachable: the winner was just seen above
}

void ListOfListsQueue::visit(const VisitFn& fn) const {
  for (const auto& r : active_) fn(r);
  for (const auto& bucket : buckets_) {
    for (const auto& r : bucket.items) fn(r);
  }
}

void ListOfListsQueue::remove_seqs(std::span<const std::uint64_t> seqs) {
  remove_listed(active_, seqs);
  for (auto& bucket : buckets_) {
    for (const auto& r : bucket.items) {
      if (listed(seqs, r)) bucket.load -= declared(r);
    }
    remove_listed(bucket.items, seqs);
  }
  buckets_.erase(std::remove_if(buckets_.begin(), buckets_.end(),
                                [](const Bucket& b) { return b.items.empty(); }),
                 buckets_.end());
}

void ListOfListsQueue::begin_instance() {
  // Leftovers of the previous instance (possible only under overhead or
  // under-declared costs) are re-registered like fresh releases.
  RequestDeque leftovers(alloc_);
  leftovers.swap(active_);
  for (auto& r : leftovers) append(std::move(r));
  if (!buckets_.empty()) {
    active_ = std::move(buckets_.front().items);
    buckets_.pop_front();
  }
}

ListOfListsQueue::Placement ListOfListsQueue::placement_for(
    rtsj::RelativeTime declared_cost) const {
  // O(1): a new release can only land in the last open instance or a fresh
  // one (mirrors append()).
  Placement p;
  if (!buckets_.empty() &&
      buckets_.back().load + declared_cost <= capacity_) {
    p.instance_offset = static_cast<std::int64_t>(buckets_.size()) - 1;
    p.cumulative_before = buckets_.back().load;
    return p;
  }
  p.instance_offset = static_cast<std::int64_t>(buckets_.size());
  p.cumulative_before = rtsj::RelativeTime::zero();
  return p;
}

}  // namespace tsf::core
