#include "common/sketch.h"

#include <cmath>

#include "common/diag.h"

namespace tsf::common {

LogSketch::LogSketch(double relative_accuracy) : alpha_(relative_accuracy) {
  TSF_ASSERT(alpha_ > 0.0 && alpha_ < 1.0,
             "sketch accuracy must be in (0,1), got " << alpha_);
  gamma_ = (1.0 + alpha_) / (1.0 - alpha_);
  inv_log_gamma_ = 1.0 / std::log(gamma_);
}

void LogSketch::add(double x) {
  ++total_;
  if (!(x >= kMinValue)) {  // zero, negative, NaN
    ++zero_;
    return;
  }
  const auto index =
      static_cast<std::int32_t>(std::ceil(std::log(x) * inv_log_gamma_));
  ++buckets_[index];
}

void LogSketch::merge(const LogSketch& other) {
  TSF_ASSERT(alpha_ == other.alpha_,
             "merging sketches with different accuracies ("
                 << alpha_ << " vs " << other.alpha_ << ")");
  zero_ += other.zero_;
  total_ += other.total_;
  for (const auto& [index, count] : other.buckets_) {
    buckets_[index] += count;
  }
}

double LogSketch::quantile(double q) const {
  if (total_ == 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Nearest-rank convention shared with QuantileReservoir: the sample at
  // sorted index floor(q * (n-1)).
  const auto rank = static_cast<std::uint64_t>(
      q * static_cast<double>(total_ - 1));
  std::uint64_t cumulative = zero_;
  if (rank < cumulative) return 0.0;
  for (const auto& [index, count] : buckets_) {
    cumulative += count;
    if (rank < cumulative) {
      // Midpoint of (gamma^(i-1), gamma^i]: relative error <= alpha for any
      // point in the bucket.
      return 2.0 * std::pow(gamma_, index) / (gamma_ + 1.0);
    }
  }
  return 0.0;  // unreachable when counts are consistent
}

}  // namespace tsf::common
