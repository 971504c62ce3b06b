#include "mp/load_meter.h"

#include "common/diag.h"
#include "mp/channel.h"

namespace tsf::mp {

using common::Duration;
using common::TimePoint;

LoadMeter::LoadMeter(const ChannelFabric& fabric,
                     const model::SystemSpec& spec, Duration window)
    : fabric_(fabric),
      window_(window),
      samples_(fabric.cores()),
      migrated_in_(fabric.cores(), Duration::zero()) {
  TSF_ASSERT(window_ > Duration::zero(), "load window must be positive");
  measured_.reserve(fabric_.cores());
  for (std::size_t c = 0; c < fabric_.cores(); ++c) {
    measured_.push_back(fabric_.endpoint(c)->periodic_utilization());
  }
  for (const auto& job : spec.aperiodic_jobs) {
    declared_[job.name] = job.effective_declared_cost();
  }
}

void LoadMeter::sample(TimePoint boundary) {
  const auto& ledger = fabric_.deliveries();
  for (; ledger_seen_ < ledger.size(); ++ledger_seen_) {
    const auto& d = ledger[ledger_seen_];
    if (!d.ok) continue;
    if (d.kind != exp::ChannelDelivery::Kind::kSteal &&
        d.kind != exp::ChannelDelivery::Kind::kRebalance) {
      continue;
    }
    if (d.from_core == exp::ChannelDelivery::kNoCore ||
        d.to_core == exp::ChannelDelivery::kNoCore) {
      continue;
    }
    const auto it = declared_.find(d.job);
    if (it != declared_.end()) migrated_in_[d.to_core] += it->second;
  }

  for (std::size_t c = 0; c < fabric_.cores(); ++c) {
    const exp::CoreEndpoint* endpoint = fabric_.endpoint(c);
    const Duration released = endpoint->released_cost() - migrated_in_[c];
    auto& window = samples_[c];
    window.push_back({boundary, released});
    // Keep the newest sample that is at least one window old as the base,
    // so the measured rate spans the full window once warmed up.
    while (window.size() >= 2 && window[1].at + window_ <= boundary) {
      window.pop_front();
    }
    const Sample& base = window.front();
    const Duration span = boundary - base.at;
    const double aperiodic_rate =
        span > Duration::zero()
            ? (released - base.released_cost).to_tu() / span.to_tu()
            : 0.0;
    measured_[c] = endpoint->periodic_utilization() + aperiodic_rate;
  }
}

}  // namespace tsf::mp
