// Scheduling policies for the multiprocessor runtime.
//
// The partitioned baseline (PR 1) statically maps every job to one core; a
// backed-up pending queue on one core cannot be helped by an idle neighbour.
// This layer adds the two classic alternatives for comparison, both riding
// the deterministic epoch boundaries of mp::MultiVm:
//
//  * global — unpinned aperiodic jobs bypass the static split and enter one
//    shared priority-ordered ready pool. At every epoch boundary the pool is
//    drained: each due job goes to the serving core with the shallowest
//    pending queue (ties to the lowest core id), highest-priority job first.
//    The pool is a shared structure, not a channel, so no channel_latency
//    applies — its cost is pure epoch quantization (a job released mid-epoch
//    waits for the next boundary before it can even queue anywhere).
//
//  * semi-partitioned — the PR 1 packing is kept, but at every epoch
//    boundary an idle core (empty pending queue) steals the
//    highest-priority eligible job from the most-loaded core's pending
//    queue (depth >= 2, so the victim keeps local work). The steal moves
//    the pending request — never a running job — and preserves its original
//    release instant, so response times stay honest and stealing is exactly
//    as bit-reproducible as the fabric drains it runs beside.
//
// Job priority for both the pool and the steal ordering: higher
// effective_value first, then earlier release, then job name — a key that
// is independent of spec declaration order, which is what keeps the
// declaration-order-invariance determinism property of the PR 2 suite true
// under the new policies as well.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/annotations.h"
#include "common/time.h"
#include "exp/cross_core.h"

namespace tsf::mp {

class ChannelFabric;

enum class SchedPolicy {
  kPartitioned,      // PR 1: static split, no cross-core job movement
  kGlobal,           // shared priority-ordered ready pool
  kSemiPartitioned,  // static split + deterministic work stealing
};

const char* to_string(SchedPolicy policy);
// "partitioned" | "global" | "semi" | "semi-partitioned"; nullopt otherwise.
std::optional<SchedPolicy> parse_sched_policy(const std::string& text);

// The ordering key of the pool and the steal chooser is
// exp::schedules_before (cross_core.h) — shared with the ExecSystem side.

// The epoch-boundary scheduler. Owned by mp::MultiVm and invoked by
// MultiVm::boundary right after the fabric drain at every boundary (all VMs
// paused, queue depths stable); a no-op under the partitioned policy.
// Records every pool dispatch / steal as a ChannelDelivery through the
// fabric, so the existing metrics and determinism machinery see them.
class SchedPolicyEngine {
 public:
  SchedPolicyEngine(SchedPolicy policy, ChannelFabric& fabric);

  SchedPolicy policy() const { return policy_; }

  // Registers an unpinned job in the shared ready pool (global policy).
  // The job becomes dispatchable at the first epoch boundary >= release.
  void add_pool_job(exp::MigratedJob job, common::TimePoint release);

  // The boundary hook: drains the due part of the pool (global) or runs one
  // steal pass (semi-partitioned). Deterministic in (specs, quantum).
  TSF_BARRIER_ONLY
  void on_epoch(common::TimePoint boundary);

  // --- results ---
  std::uint64_t pool_dispatches() const { return pool_dispatches_; }
  std::uint64_t steal_count() const { return steals_; }
  // Pool jobs still waiting at the end of the run.
  std::size_t pool_pending() const;

 private:
  struct PoolEntry {
    exp::MigratedJob job;
    common::TimePoint release;
    bool dispatched = false;
  };

  void drain_pool(common::TimePoint boundary);
  void steal_pass(common::TimePoint boundary);

  SchedPolicy policy_;
  ChannelFabric& fabric_;
  std::vector<PoolEntry> pool_;
  std::uint64_t pool_dispatches_ = 0;
  std::uint64_t steals_ = 0;
};

}  // namespace tsf::mp
