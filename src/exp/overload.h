// Overload policy configuration, shared by the exec runner (which enables
// the D-over pending-queue discipline per core) and the mp layer (whose
// OverloadGovernor sheds at epoch boundaries). Spec key:
//
//   [run] overload = off | shed | dover
//         overload_threshold = 0.75   # utilization above which `shed` drops
//         overload_period = 6         # governor window / pass period, tu
//
// `off`   — serve everything the queue discipline accepts (the baseline).
// `shed`  — utilization-based admission control: at each epoch boundary a
//           core whose measured utilization exceeds the threshold drops
//           pending firm work in lowest-value-density-first order.
// `dover` — Koren & Shasha's D-over discipline as the per-core pending
//           queue (core/dover_queue.h; rules in analysis/dover.h).
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "common/time.h"

namespace tsf::exp {

enum class OverloadMode {
  kOff,
  kShed,
  kDover,
};

const char* to_string(OverloadMode mode);
std::optional<OverloadMode> parse_overload_mode(std::string_view name);

struct OverloadConfig {
  OverloadMode mode = OverloadMode::kOff;
  // `shed`: measured utilization above which a core sheds; also the target
  // the governor sheds down to.
  double threshold = 0.75;
  // Sliding measurement window and minimum spacing between governor passes.
  common::Duration period = common::Duration::time_units(6);

  bool enabled() const { return mode != OverloadMode::kOff; }
};

}  // namespace tsf::exp
