// Differential test of the overload governor's shed selection,
// core::TaskServer::shed_lowest_density, against the straightforward
// full-sort algorithm: snapshot every sheddable request (firm, released
// strictly before now), std::sort the whole snapshot by (value density,
// release, name), then take requests until the removed declared cost
// reaches the budget, removing each by (name, release) — the first match in
// queue order.
//
// Random backlogs mix density ties (costs at or under 1 tu share the
// max(1 tu, cost) denominator), release ties, a job re-released under the
// same name (as a triggered job fired again), soft jobs that are never
// shed, releases that coincide with the current instant (still mid-bind,
// never shed) and, under the list-of-lists discipline, parked unservable
// requests. Every trial runs several passes on one server, so the
// reused scratch and the queue left behind by each pass are exercised
// too.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/polling_task_server.h"
#include "core/servable_async_event_handler.h"
#include "rtsj/vm/vm.h"

namespace tsf::core {
namespace {

using common::Duration;
using common::TimePoint;

constexpr int kTrials = 400;

struct Shed {
  std::string job;
  std::int64_t release_ticks = 0;
  bool operator==(const Shed&) const = default;
};

std::vector<Request> pending(const TaskServer& server) {
  std::vector<Request> out;
  server.visit_pending([&](const Request& r) { out.push_back(r); });
  return out;
}

// The reference: removes the shed requests from `queue` and returns them
// in shed order.
std::vector<Shed> reference_shed(std::vector<Request>& queue, TimePoint now,
                                 double budget_tu) {
  struct Candidate {
    std::string job;
    TimePoint release;
    Duration declared_cost;
    double value = 0.0;
  };
  std::vector<Candidate> candidates;
  for (const Request& r : queue) {
    if (r.handler->relative_deadline().is_zero() || r.release >= now) {
      continue;
    }
    candidates.push_back({r.handler->name(), r.release, r.handler->cost(),
                          r.handler->value()});
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              const double da =
                  a.value / std::max(1.0, a.declared_cost.to_tu());
              const double db =
                  b.value / std::max(1.0, b.declared_cost.to_tu());
              if (da != db) return da < db;
              if (a.release != b.release) return a.release < b.release;
              return a.job < b.job;
            });
  std::vector<Shed> shed;
  double removed_tu = 0.0;
  for (const Candidate& c : candidates) {
    if (removed_tu >= budget_tu) break;
    const auto it = std::find_if(queue.begin(), queue.end(),
                                 [&](const Request& r) {
                                   return r.release < now &&
                                          r.release == c.release &&
                                          r.handler->name() == c.job;
                                 });
    if (it == queue.end()) continue;
    queue.erase(it);
    shed.push_back({c.job, c.release.ticks()});
    removed_tu += c.declared_cost.to_tu();
  }
  return shed;
}

std::vector<std::uint64_t> seqs_of(const std::vector<Request>& requests) {
  std::vector<std::uint64_t> out;
  for (const Request& r : requests) out.push_back(r.seq);
  return out;
}

TEST(ShedSelection, MatchesTheFullSortReferenceOnRandomBacklogs) {
  const model::QueueDiscipline disciplines[] = {
      model::QueueDiscipline::kStrictFifo,
      model::QueueDiscipline::kFifoFirstFit,
      model::QueueDiscipline::kListOfLists};
  // Coarse grids make ties likely on every key.
  const double costs_tu[] = {0.25, 0.5, 1.0, 1.5, 2.0, 4.0};
  const double values[] = {0.5, 1.0, 1.5, 2.0, 4.0};
  std::size_t total_shed = 0;
  std::size_t boundary_releases = 0;

  for (int trial = 0; trial < kTrials; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    common::Rng rng(9'000 + static_cast<std::uint64_t>(trial));
    rtsj::vm::VirtualMachine vm;
    TaskServerParameters params("server", Duration::time_units(3),
                                Duration::time_units(6), 30);
    params.set_queue_discipline(disciplines[trial % 3]);
    // Never started: nothing is dispatched, so the backlog only changes
    // through the shed passes under test.
    PollingTaskServer server(vm, params);

    std::vector<std::unique_ptr<ServableAsyncEventHandler>> handlers;
    const int jobs = 3 + static_cast<int>(rng.uniform_u64(8));
    for (int j = 0; j < jobs; ++j) {
      const Duration cost = Duration::from_tu(costs_tu[rng.uniform_u64(6)]);
      handlers.push_back(std::make_unique<ServableAsyncEventHandler>(
          "j" + std::to_string(j), cost, [](rtsj::Timed&) {}));
      handlers.back()->set_server(&server);
      handlers.back()->set_value(values[rng.uniform_u64(5)]);
      // About one job in four is soft.
      if (rng.uniform_u64(4) != 0) {
        handlers.back()->set_relative_deadline(
            Duration::time_units(1 + rng.uniform_i64(0, 20)));
      }
    }

    std::vector<Shed> expected_ledger;
    TimePoint now = TimePoint::origin();
    for (int pass = 0; pass < 3; ++pass) {
      now = now + Duration::time_units(4);
      vm.run_until(now);
      ASSERT_EQ(vm.now(), now);
      // Releases on a 0.5 tu grid over the last 4 tu, the current instant
      // included; each picks a random job, so names repeat.
      const int releases = static_cast<int>(rng.uniform_u64(40));
      for (int i = 0; i < releases; ++i) {
        ServableAsyncEventHandler* h =
            handlers[rng.uniform_u64(handlers.size())].get();
        const TimePoint release =
            now - Duration::from_tu(0.5 * rng.uniform_i64(0, 8));
        if (release == now) ++boundary_releases;
        server.servable_event_released(h, release);
      }

      std::vector<Request> reference_queue = pending(server);
      double queued_tu = 0.0;
      for (const Request& r : reference_queue) {
        queued_tu += r.handler->cost().to_tu();
      }
      // From nothing to more than everything, on the cost grid so the
      // budget often lands exactly on a removed-cost sum.
      const double budget_tu =
          0.25 * static_cast<double>(rng.uniform_i64(
                     0, static_cast<std::int64_t>(4.8 * queued_tu)));
      const std::vector<Shed> expected =
          reference_shed(reference_queue, now, budget_tu);

      const std::size_t before = server.shed_events().size();
      const std::size_t shed = server.shed_lowest_density(budget_tu);
      EXPECT_EQ(shed, expected.size()) << "pass " << pass;
      expected_ledger.insert(expected_ledger.end(), expected.begin(),
                             expected.end());
      std::vector<Shed> ledger;
      for (std::size_t i = 0; i < server.shed_events().size(); ++i) {
        const model::ShedEvent& event = server.shed_events()[i];
        EXPECT_EQ(event.kind, model::ShedEvent::Kind::kShed);
        EXPECT_EQ(event.reason, "overload");
        if (i >= before) {
          EXPECT_EQ(event.at, now);
        }
        ledger.push_back({event.job, event.release.ticks()});
      }
      ASSERT_EQ(ledger, expected_ledger) << "pass " << pass;
      // Survivors keep their queue order, down to which of two identical
      // (name, release) requests stayed.
      EXPECT_EQ(seqs_of(pending(server)), seqs_of(reference_queue))
          << "pass " << pass;
      total_shed += shed;
    }
    EXPECT_EQ(server.shed_count(), expected_ledger.size());
  }
  // The generator really produced the interesting cases.
  EXPECT_GT(total_shed, static_cast<std::size_t>(kTrials));
  EXPECT_GT(boundary_releases, static_cast<std::size_t>(kTrials));
}

}  // namespace
}  // namespace tsf::core
