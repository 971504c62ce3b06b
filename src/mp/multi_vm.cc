#include "mp/multi_vm.h"

#include <barrier>
#include <string>
#include <thread>
#include <utility>

#include "common/diag.h"
#include "common/rng.h"

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#include <unistd.h>
#endif

namespace tsf::mp {

using common::Duration;
using common::TimePoint;

namespace {

// Pins the calling thread to `core` (modulo the host CPU count). Returns
// whether the pin took; on platforms without pthread_setaffinity_np the
// worker simply runs wherever the OS puts it — the backend's correctness
// never depends on placement, only the wall-clock numbers do.
bool pin_current_thread(std::size_t core) {
#if defined(__linux__)
  const long cpus = sysconf(_SC_NPROCESSORS_ONLN);
  if (cpus <= 0) return false;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(static_cast<int>(core % static_cast<std::size_t>(cpus)), &set);
  return pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0;
#else
  (void)core;
  return false;
#endif
}

double seconds_since(std::chrono::steady_clock::time_point begin) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       begin)
      .count();
}

}  // namespace

// A core's completion port: a handler finishing on core `core` (a fiber
// of that core's VM, on the thread driving it) stages the fire into the
// shared MPSC queue instead of touching the fabric. `next_seq` is
// plain — only this core's world posts through this port, and within one
// world exactly one fiber (or the executor) runs at a time.
struct MultiVm::StagedPort : exp::CrossCorePort {
  StagedPort(MultiVm* machine, std::size_t core)
      : machine(machine), core(core) {}
  TSF_WORKER_PHASE
  void fire_remote(const std::string& job, TimePoint now) override {
    machine->staged_.push(StagedFire{job, core, now, next_seq++});
  }
  MultiVm* machine;
  std::size_t core;
  std::uint64_t next_seq = 0;
};

MultiVm::MultiVm(const model::SystemSpec& spec, const Partition& partition,
                 const MpRunOptions& options)
    : fabric_(partition.cores.size(), ChannelConfig{spec.channel_latency}),
      engine_(options.policy, fabric_),
      metrics_(options.metrics),
      backend_(options.backend) {
  TSF_ASSERT(!spec.horizon.is_never(), "exec needs a finite horizon");
  const auto subs = split_spec(spec, partition, options.policy);
  TSF_ASSERT(!subs.empty(), "MultiVm needs at least one core");
  vms_.reserve(subs.size());
  systems_.reserve(subs.size());
  ports_.reserve(subs.size());
  for (std::size_t c = 0; c < subs.size(); ++c) {
    vms_.push_back(
        std::make_unique<rtsj::vm::VirtualMachine>(options.exec.kernel));
    ports_.push_back(std::make_unique<StagedPort>(this, c));
    systems_.push_back(std::make_unique<exp::ExecSystem>(
        *vms_.back(), subs[c], options.exec, ports_.back().get()));
    fabric_.connect(c, systems_.back().get());
    for (const auto& job : subs[c].aperiodic_jobs) fabric_.bind(c, job.name);
    common::TraceSink* sink = c < options.core_trace_sinks.size()
                                  ? options.core_trace_sinks[c]
                                  : nullptr;
    if (sink != nullptr) {
      auto tee = std::make_unique<common::TeeSink>();
      tee->add(&vms_[c]->timeline());
      tee->add(sink);
      vms_[c]->set_trace_sink(tee.get());
      tees_.push_back(std::move(tee));
    }
  }

  // Jobs that bypass the static split — migratables under every policy,
  // plus every unpinned untriggered job under global (they belong to the
  // shared ready pool). Execution-time jitter is applied here, once, from
  // the same seed the per-core systems use — deterministic in spec order.
  const bool global = options.policy == SchedPolicy::kGlobal;
  common::Rng jitter_rng(options.exec.jitter_seed);
  for (const auto& job : spec.aperiodic_jobs) {
    // A completion that fires can post at any instant.
    if (!job.fires.empty()) every_boundary_ = true;
    const bool pooled = global && pool_scheduled(job);
    if (!job.migrate && !pooled) continue;
    every_boundary_ = true;
    exp::MigratedJob m;
    m.name = job.name;
    m.declared_cost = job.effective_declared_cost();
    m.actual_cost = exp::jittered_cost(jitter_rng, options.exec, job.cost);
    m.fires = job.fires;
    m.value = job.value;
    m.relative_deadline = job.relative_deadline;
    if (pooled) {
      // The pool is a shared structure, not a channel: no channel_latency,
      // only the wait for the first epoch boundary >= release.
      engine_.add_pool_job(std::move(m), job.release);
    } else {
      fabric_.add_migratable(std::move(m), job.release);
    }
  }

  if (options.rebalance.mode != RebalanceMode::kOff) {
    rebalancer_.emplace(options.rebalance, fabric_, spec, partition,
                        options.strategy);
  }
  // Mode kDover needs no governor — the per-core D-over queues shed and
  // take over locally.
  if (options.exec.overload.mode == exp::OverloadMode::kShed) {
    governor_.emplace(options.exec.overload, fabric_, spec, partition);
  }
  if (options.policy == SchedPolicy::kSemiPartitioned || rebalancer_ ||
      governor_) {
    every_boundary_ = true;
  }
}

MultiVm::~MultiVm() = default;

void MultiVm::record_failure(std::exception_ptr error) {
  const std::lock_guard<std::mutex> lock(error_mutex_);
  if (!first_error_) first_error_ = std::move(error);
}

void MultiVm::boundary(TimePoint now) {
  now_ = now;
  if (metrics_ != nullptr) {
    metrics_->add_counter("mp.epochs");
    metrics_->observe("mp.epoch.host_seconds", seconds_since(boundary_end_));
  }

  // 1. Replay the epoch's staged fires in (from_core, seq) order — the
  // order the inline executor produces them in. Every producer is paused
  // (inline) or parked at the barrier (threads), and its pushes
  // happen-before this step, so the drain loop sees the complete batch.
  replay_.clear();
  StagedFire fire;
  while (staged_.pop(&fire)) replay_.push_back(std::move(fire));
  // Producers are still paused, so this is the one safe point to publish
  // the drained nodes back onto the queue's free stack (see mailbox.h).
  staged_.recycle();
  sort_replay_order(&replay_);
  for (auto& f : replay_) fabric_.post_fire(f.from_core, f.job, f.posted);

  // 2. The deterministic instant at which cross-core messages become
  // visible. Effects (event fires, releases, server wake-ups) are enqueued
  // now and processed when the VMs resume into the next epoch.
  const std::size_t delivered = fabric_.drain(now);
  if (metrics_ != nullptr) {
    metrics_->add_counter("mp.fabric.deliveries", delivered);
    metrics_->observe("mp.fabric.drain_size", static_cast<double>(delivered));
  }
  // 3-5. Each step sees the queue depths the previous one produced: pool
  // dispatch and steals see this boundary's deliveries, the rebalancer
  // sees the policy's moves, and the governor sheds last — only backlog
  // migration could not (or chose not to) place.
  engine_.on_epoch(now);
  if (rebalancer_) rebalancer_->on_epoch(now);
  if (governor_) governor_->on_epoch(now);
  // 6. The host-time split point of the next epoch.
  if (metrics_ != nullptr) boundary_end_ = std::chrono::steady_clock::now();
}

void MultiVm::run(TimePoint horizon, Duration quantum) {
  TSF_ASSERT(quantum > Duration::zero(), "epoch quantum must be positive");
  TSF_ASSERT(!ran_, "MultiVm::run is one-shot");
  ran_ = true;
  horizon_ = horizon;
  quantum_ = quantum;

  const auto run_begin = std::chrono::steady_clock::now();
  boundary_end_ = run_begin;
  // Every endpoint is armed before any executor can reach a boundary.
  for (auto& system : systems_) system->start();
  if (backend_ == ExecBackend::kThreads) {
    run_threads();
  } else {
    run_inline();
  }
  wall_seconds_ = seconds_since(run_begin);
  if (metrics_ != nullptr && backend_ == ExecBackend::kThreads) {
    metrics_->set_gauge("threads.wall_seconds", wall_seconds_);
    metrics_->set_gauge("threads.workers_pinned",
                        static_cast<double>(pinned_.load()));
  }
  if (first_error_) std::rethrow_exception(first_error_);
}

void MultiVm::run_inline() {
  while (now_ < horizon_) {
    const TimePoint next = next_boundary(now_);
    for (auto& vm : vms_) vm->run_until(next);
    boundary(next);
  }
}

void MultiVm::run_threads() {
  const std::size_t cores = vms_.size();
  std::barrier<BoundaryFn> epoch_barrier(static_cast<std::ptrdiff_t>(cores),
                                         BoundaryFn{this});
  std::vector<std::thread> workers;
  workers.reserve(cores);
  for (std::size_t c = 0; c < cores; ++c) {
    workers.emplace_back([this, c, &epoch_barrier] {
      if (pin_current_thread(c)) {
        pinned_.fetch_add(1, std::memory_order_relaxed);
      }
      TimePoint now = TimePoint::origin();
      while (now < horizon_) {
        now = next_boundary(now);
        try {
          vms_[c]->run_until(now);
        } catch (...) {
          // Mid-horizon abort: surface the first error, leave the barrier
          // (arrive_and_drop completes the current phase for the others)
          // and let every worker unwind after this phase.
          record_failure(std::current_exception());
          failed_.store(true, std::memory_order_relaxed);
          epoch_barrier.arrive_and_drop();
          return;
        }
        epoch_barrier.arrive_and_wait();
        // The barrier completion step ordered this read after any failing
        // worker's store: all survivors agree on the abort phase.
        if (failed_.load(std::memory_order_relaxed)) return;
      }
    });
  }
  for (auto& w : workers) w.join();
}

std::vector<model::RunResult> MultiVm::collect() {
  std::vector<model::RunResult> out;
  out.reserve(systems_.size());
  for (auto& system : systems_) out.push_back(system->collect());
  return out;
}

}  // namespace tsf::mp
