#include "core/pending_queue.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/dover_queue.h"
#include "core/servable_async_event_handler.h"

namespace tsf::core {
namespace {

using common::Duration;
using common::TimePoint;

Duration tu(std::int64_t n) { return Duration::time_units(n); }

// Handlers with declared costs only; logic never runs in these tests.
class HandlerPool {
 public:
  ServableAsyncEventHandler* make(const std::string& name, Duration cost) {
    pool_.push_back(std::make_unique<ServableAsyncEventHandler>(
        name, cost, [](rtsj::Timed&) {}));
    return pool_.back().get();
  }

 private:
  std::vector<std::unique_ptr<ServableAsyncEventHandler>> pool_;
};

Request req(ServableAsyncEventHandler* h, std::uint64_t seq) {
  Request r;
  r.handler = h;
  r.release = TimePoint::origin();
  r.seq = seq;
  return r;
}

// Returns the lambda itself (not a FitsFn, which is a non-owning reference
// and would dangle past this statement); call expressions bind it in place.
auto fits_under(Duration budget) {
  return [budget](Duration cost) { return cost <= budget; };
}

TEST(StrictFifoQueue, HeadBlocksWhenTooExpensive) {
  HandlerPool pool;
  StrictFifoQueue q;
  q.push(req(pool.make("big", tu(3)), 0));
  q.push(req(pool.make("small", tu(1)), 1));
  // Head does not fit: nothing is served, even though "small" would fit.
  EXPECT_FALSE(q.pop_fitting(fits_under(tu(2))).has_value());
  auto r = q.pop_fitting(fits_under(tu(3)));
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->handler->name(), "big");
}

TEST(StrictFifoQueue, FifoOrder) {
  HandlerPool pool;
  StrictFifoQueue q;
  q.push(req(pool.make("a", tu(1)), 0));
  q.push(req(pool.make("b", tu(1)), 1));
  EXPECT_EQ(q.pop_fitting(fits_under(tu(4)))->handler->name(), "a");
  EXPECT_EQ(q.pop_fitting(fits_under(tu(4)))->handler->name(), "b");
  EXPECT_TRUE(q.empty());
}

TEST(FifoFirstFitQueue, SkipsOversizedHead) {
  // The §6.2.2 example: "if the event queue contains two tasks tau1 and
  // tau2, with c1 = 3 and c2 = 1, if the remaining capacity of the server
  // is 2, then tau2 can be executed instantaneously, even if it has been
  // released after tau1."
  HandlerPool pool;
  FifoFirstFitQueue q;
  q.push(req(pool.make("tau1", tu(3)), 0));
  q.push(req(pool.make("tau2", tu(1)), 1));
  auto r = q.pop_fitting(fits_under(tu(2)));
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->handler->name(), "tau2");
  // tau1 is still queued.
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.pop_fitting(fits_under(tu(3)))->handler->name(), "tau1");
}

TEST(FifoFirstFitQueue, PrefersFifoAmongFitting) {
  HandlerPool pool;
  FifoFirstFitQueue q;
  q.push(req(pool.make("a", tu(2)), 0));
  q.push(req(pool.make("b", tu(1)), 1));
  EXPECT_EQ(q.pop_fitting(fits_under(tu(2)))->handler->name(), "a");
}

TEST(FifoFirstFitQueue, DrainReturnsEverythingInOrder) {
  HandlerPool pool;
  FifoFirstFitQueue q;
  q.push(req(pool.make("a", tu(9)), 0));
  q.push(req(pool.make("b", tu(9)), 1));
  const auto rest = q.drain();
  ASSERT_EQ(rest.size(), 2u);
  EXPECT_EQ(rest[0].handler->name(), "a");
  EXPECT_EQ(rest[1].handler->name(), "b");
  EXPECT_TRUE(q.empty());
}

TEST(ListOfListsQueue, AppendsToLastOpenBucket) {
  HandlerPool pool;
  ListOfListsQueue q(tu(4));
  q.push(req(pool.make("a", tu(3)), 0));  // bucket 0 (load 3)
  q.push(req(pool.make("b", tu(2)), 1));  // bucket 1 (3+2 > 4)
  q.push(req(pool.make("c", tu(1)), 2));  // bucket 1 (2+1 <= 4, FIFO kept)
  EXPECT_EQ(q.bucket_count(), 2u);
  EXPECT_EQ(q.size(), 3u);

  // A cost-2 release would overflow the last bucket (3+2 > 4): it opens
  // instance 2; a cost-1 release still fits behind c.
  const auto p2 = q.placement_for(tu(2));
  EXPECT_EQ(p2.instance_offset, 2);
  EXPECT_EQ(p2.cumulative_before, Duration::zero());
  const auto p1 = q.placement_for(tu(1));
  EXPECT_EQ(p1.instance_offset, 1);
  EXPECT_EQ(p1.cumulative_before, tu(3));
}

TEST(ListOfListsQueue, PlacementForFullBucketsOpensNewOne) {
  HandlerPool pool;
  ListOfListsQueue q(tu(4));
  q.push(req(pool.make("a", tu(4)), 0));
  const auto p = q.placement_for(tu(4));
  EXPECT_EQ(p.instance_offset, 1);
  EXPECT_EQ(p.cumulative_before, Duration::zero());
}

TEST(ListOfListsQueue, ServesOnlyActiveInstance) {
  HandlerPool pool;
  ListOfListsQueue q(tu(4));
  q.push(req(pool.make("a", tu(3)), 0));
  q.push(req(pool.make("b", tu(3)), 1));  // next instance
  // Nothing is active until the first activation.
  EXPECT_FALSE(q.pop_fitting(fits_under(tu(4))).has_value());
  q.begin_instance();
  EXPECT_EQ(q.pop_fitting(fits_under(tu(4)))->handler->name(), "a");
  EXPECT_FALSE(q.pop_fitting(fits_under(tu(4))).has_value());
  q.begin_instance();
  EXPECT_EQ(q.pop_fitting(fits_under(tu(4)))->handler->name(), "b");
  EXPECT_TRUE(q.empty());
}

TEST(ListOfListsQueue, LeftoversAreReRegistered) {
  HandlerPool pool;
  ListOfListsQueue q(tu(4));
  q.push(req(pool.make("a", tu(3)), 0));
  q.begin_instance();
  // Not served (e.g. capacity consumed by overhead); next activation must
  // still offer it.
  q.begin_instance();
  auto r = q.pop_fitting(fits_under(tu(4)));
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->handler->name(), "a");
}

TEST(ListOfListsQueue, DrainCoversActiveAndFuture) {
  HandlerPool pool;
  ListOfListsQueue q(tu(4));
  q.push(req(pool.make("a", tu(3)), 0));
  q.push(req(pool.make("b", tu(3)), 1));
  q.begin_instance();
  const auto rest = q.drain();
  EXPECT_EQ(rest.size(), 2u);
  EXPECT_TRUE(q.empty());
}

TEST(ListOfListsQueue, OversizedRequestsParkedNotBlocking) {
  // A request above the capacity violates the §4 constraint; it must not
  // waste a server instance, but it must still appear in the final drain.
  HandlerPool pool;
  ListOfListsQueue q(tu(4));
  q.push(req(pool.make("huge", tu(5)), 0));
  q.push(req(pool.make("ok", tu(2)), 1));
  EXPECT_TRUE(!q.empty());
  EXPECT_EQ(q.size(), 2u);
  q.begin_instance();
  // The servable request comes straight out; the oversized one never does.
  EXPECT_EQ(q.pop_fitting(fits_under(tu(4)))->handler->name(), "ok");
  EXPECT_FALSE(q.pop_fitting(fits_under(tu(4))).has_value());
  EXPECT_TRUE(q.empty());  // no *servable* work left
  const auto rest = q.drain();
  ASSERT_EQ(rest.size(), 1u);
  EXPECT_EQ(rest[0].handler->name(), "huge");
}

// remove_seqs leaves the buckets exactly as one-by-one steals would: the
// removed costs leave their bucket's load, an emptied bucket disappears,
// and survivors (parked unservable requests included) keep their place.
TEST(ListOfListsQueue, RemoveSeqsAdjustsLoadsAndDropsEmptiedBuckets) {
  HandlerPool pool;
  ListOfListsQueue q(tu(4));
  q.push(req(pool.make("a", tu(3)), 0));  // bucket 0 (load 3)
  q.push(req(pool.make("b", tu(2)), 1));  // bucket 1 (load 2)
  q.push(req(pool.make("c", tu(2)), 2));  // bucket 1 (load 4)
  q.push(req(pool.make("d", tu(3)), 3));  // bucket 2 (load 3)
  q.push(req(pool.make("huge", tu(5)), 4));  // parked
  const std::uint64_t seqs[] = {0, 2, 4};
  q.remove_seqs(seqs);
  // Bucket 0 emptied and dropped; parked requests are outside the reach.
  EXPECT_EQ(q.bucket_count(), 2u);
  EXPECT_EQ(q.size(), 3u);
  std::vector<std::string> left;
  q.visit([&](const Request& r) { left.push_back(r.handler->name()); });
  EXPECT_EQ(left, (std::vector<std::string>{"b", "d"}));
  // The last bucket (d, load 3) still takes a cost-1 release behind d.
  const auto p = q.placement_for(tu(1));
  EXPECT_EQ(p.instance_offset, 1);
  EXPECT_EQ(p.cumulative_before, tu(3));
  // Once d goes too, b's bucket is the last one; its load dropped to 2, so
  // a cost-2 release still fits behind b.
  const std::uint64_t last[] = {3};
  q.remove_seqs(last);
  const auto p2 = q.placement_for(tu(2));
  EXPECT_EQ(p2.instance_offset, 0);
  EXPECT_EQ(p2.cumulative_before, tu(2));
}

TEST(PendingQueueFactory, MakesEachDiscipline) {
  EXPECT_NE(PendingQueue::make(model::QueueDiscipline::kStrictFifo, tu(4)),
            nullptr);
  EXPECT_NE(PendingQueue::make(model::QueueDiscipline::kFifoFirstFit, tu(4)),
            nullptr);
  EXPECT_NE(PendingQueue::make(model::QueueDiscipline::kListOfLists, tu(4)),
            nullptr);
}

// A DOverQueue on a full-bandwidth server of period 10 tu (demand is not
// scaled; an entry is critical once its LST is within 10 tu), with a
// settable clock and every callback appended to `log` in call order.
class DOverHarness {
 public:
  explicit DOverHarness(double importance_ratio) {
    DOverQueue::Config config;
    config.importance_ratio = importance_ratio;
    config.bandwidth_num = tu(10).count();
    config.bandwidth_den = tu(10).count();
    config.now = [this] { return now; };
    config.on_admit = [this](const Request& r, bool takeover) {
      log.push_back("admit " + r.handler->name() +
                    (takeover ? " takeover" : ""));
    };
    config.on_demote = [this](const Request& r) {
      log.push_back("demote " + r.handler->name());
    };
    config.on_shed = [this](const Request& r, const std::string& reason) {
      log.push_back("shed " + r.handler->name() + " " + reason);
    };
    queue = std::make_unique<DOverQueue>(std::move(config));
  }

  // Releases job `name` at the current instant.
  void release(const std::string& name, std::int64_t cost,
               std::int64_t deadline, double value) {
    Request r;
    r.handler = pool.make(name, tu(cost));
    r.handler->set_value(value);
    r.handler->set_relative_deadline(tu(deadline));
    r.release = now;
    r.seq = seq++;
    queue->push(r);
  }

  TimePoint now = TimePoint::origin();
  std::vector<std::string> log;
  std::unique_ptr<DOverQueue> queue;

 private:
  HandlerPool pool;
  std::uint64_t seq = 0;
};

using Log = std::vector<std::string>;

TEST(DOverQueue, FeasibleReleasesAreAdmittedAndServedEdf) {
  DOverHarness h(1.0);
  h.release("late", 2, 9, 2.0);
  h.release("soon", 2, 4, 2.0);
  EXPECT_EQ(h.log, (Log{"admit late", "admit soon"}));
  EXPECT_EQ(h.queue->privileged_count(), 2u);
  EXPECT_EQ(h.queue->pop_fitting(fits_under(tu(10)))->handler->name(),
            "soon");
  EXPECT_EQ(h.queue->pop_fitting(fits_under(tu(10)))->handler->name(),
            "late");
  EXPECT_TRUE(h.queue->empty());
}

// p (4 tu by t=11) is privileged; c (9 tu by t=12) cannot join it and is
// critical at once (LST 3 < now + period). Under k = 14/9 the takeover
// factor is ~2.25, so c (value 14) beats p (value 4): p is demoted, c is
// admitted with takeover, and p, now unable to rejoin, meets its own LST
// decision against c and is shed.
TEST(DOverQueue, LstTakeoverDemotesThePrivilegedSetThenAdmits) {
  DOverHarness h(14.0 / 9.0);
  h.now = TimePoint::origin() + tu(1);
  h.release("p", 4, 10, 4.0);
  h.now = TimePoint::origin() + tu(2);
  h.release("c", 9, 10, 14.0);
  EXPECT_EQ(h.log, (Log{"admit p", "demote p", "admit c takeover",
                        "shed p lst"}));
  EXPECT_EQ(h.queue->size(), 1u);
  EXPECT_EQ(h.queue->privileged_count(), 1u);
}

// The same releases under k = 9 (factor 4): 14 does not beat 16, so the
// challenger is shed at its LST decision and p keeps its place.
TEST(DOverQueue, LstChallengerThatLosesIsShed) {
  DOverHarness h(9.0);
  h.now = TimePoint::origin() + tu(1);
  h.release("p", 4, 10, 4.0);
  h.now = TimePoint::origin() + tu(2);
  h.release("c", 9, 10, 14.0);
  EXPECT_EQ(h.log, (Log{"admit p", "shed c lst"}));
  EXPECT_EQ(h.queue->privileged_count(), 1u);
}

// A privileged entry that was never served and whose LST has passed can no
// longer make its deadline: it leaves the privileged set, then is shed.
TEST(DOverQueue, PrivilegedEntryPastItsLstIsDemotedThenShed) {
  DOverHarness h(1.0);
  h.release("a", 4, 10, 4.0);
  h.now = TimePoint::origin() + tu(7);  // LST was 6
  EXPECT_FALSE(h.queue->pop_fitting(fits_under(tu(10))).has_value());
  EXPECT_EQ(h.log, (Log{"admit a", "demote a", "shed a missed-lst"}));
  EXPECT_TRUE(h.queue->empty());
}

}  // namespace
}  // namespace tsf::core
