// Streaming statistics used by the experiment harness and the benches.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace tsf::common {

// Welford-style accumulator: numerically stable mean/variance plus extrema.
// The sum is tracked exactly (Kahan-compensated) rather than reconstructed
// from the mean, so mixed-magnitude sequences don't lose mass to rounding.
class Accumulator {
 public:
  void add(double x);

  std::size_t count() const { return count_; }
  bool empty() const { return count_ == 0; }
  // Mean of the added samples; 0 for an empty accumulator.
  double mean() const { return count_ == 0 ? 0.0 : mean_; }
  // Unbiased sample variance; 0 for fewer than two samples.
  double variance() const;
  double stddev() const;
  double min() const { return min_; }
  double max() const { return max_; }
  double sum() const { return sum_ + sum_c_; }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;    // Kahan-compensated running sum
  double sum_c_ = 0.0;  // compensation term
};

// Exact nearest-rank quantiles over every sample added. A run's reported
// p50/p95/p99 come from here: each is a sample that actually occurred.
// common::LogSketch answers the same questions mergeably in O(buckets)
// memory, but only within 1% relative error of these values — not
// byte-identical to them — so it cannot replace this class there.
class QuantileReservoir {
 public:
  void add(double x) {
    samples_.push_back(x);
    sorted_ = false;
  }

  std::size_t count() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }

  // Nearest-rank quantile, q in [0,1]; 0 when empty. Sorts on demand
  // (cached until the next add).
  double quantile(double q) const;
  double p50() const { return quantile(0.50); }
  double p95() const { return quantile(0.95); }
  double p99() const { return quantile(0.99); }

 private:
  mutable std::vector<double> samples_;
  mutable bool sorted_ = true;
};

// A counted ratio (e.g. served events / released events). Distinguishes
// "no denominator" from a true zero.
class Ratio {
 public:
  void add(bool hit) {
    den_ += 1;
    num_ += hit ? 1 : 0;
  }
  void add(std::uint64_t num, std::uint64_t den) {
    num_ += num;
    den_ += den;
  }
  std::uint64_t numerator() const { return num_; }
  std::uint64_t denominator() const { return den_; }
  bool defined() const { return den_ != 0; }
  // Value in [0,1]; 0 when undefined.
  double value() const {
    return den_ == 0 ? 0.0
                     : static_cast<double>(num_) / static_cast<double>(den_);
  }

 private:
  std::uint64_t num_ = 0;
  std::uint64_t den_ = 0;
};

}  // namespace tsf::common
