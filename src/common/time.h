// Integer virtual time.
//
// Every engine in this repository (the RTSS-style discrete-event simulator and
// the RTSJ-style virtual machine) runs on the same integer clock. One paper
// "time unit" (tu) is 1000 ticks, so the generator's 0.1 tu cost floor
// (paper §6.2.1) is exactly 100 ticks and no floating point ever enters a
// scheduling decision or a capacity account.
#pragma once

#include <compare>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>

namespace tsf::common {

// A span of virtual time, in ticks. 1 tu == 1000 ticks.
class Duration {
 public:
  static constexpr std::int64_t kTicksPerTimeUnit = 1000;

  constexpr Duration() = default;

  // Named constructors, so call sites state their unit.
  static constexpr Duration ticks(std::int64_t n) { return Duration(n); }
  static constexpr Duration time_units(std::int64_t tu) {
    return Duration(tu * kTicksPerTimeUnit);
  }
  // Rounds to the nearest tick (used at the generator/reporting boundary).
  // `tu` must be finite and in range; see checked_from_tu.
  static Duration from_tu(double tu);
  // from_tu for untrusted input (spec files): nullopt unless `tu` is finite
  // and rounds to a tick count strictly between -infinite() and infinite().
  static std::optional<Duration> checked_from_tu(double tu);

  constexpr std::int64_t count() const { return ticks_; }
  double to_tu() const {
    return static_cast<double>(ticks_) / static_cast<double>(kTicksPerTimeUnit);
  }

  static constexpr Duration zero() { return Duration(0); }
  // A sentinel large enough to mean "never" yet safe to add to any TimePoint
  // reached in practice without overflowing.
  static constexpr Duration infinite() {
    return Duration(std::int64_t{1} << 60);
  }

  constexpr bool is_zero() const { return ticks_ == 0; }
  constexpr bool is_negative() const { return ticks_ < 0; }
  constexpr bool is_infinite() const { return *this >= infinite(); }

  constexpr Duration operator+(Duration o) const {
    return Duration(ticks_ + o.ticks_);
  }
  constexpr Duration operator-(Duration o) const {
    return Duration(ticks_ - o.ticks_);
  }
  constexpr Duration operator-() const { return Duration(-ticks_); }
  constexpr Duration operator*(std::int64_t k) const {
    return Duration(ticks_ * k);
  }
  // Integer division; truncates toward zero like the underlying i64.
  constexpr std::int64_t operator/(Duration o) const {
    return ticks_ / o.ticks_;
  }
  constexpr Duration operator%(Duration o) const {
    return Duration(ticks_ % o.ticks_);
  }
  Duration& operator+=(Duration o) {
    ticks_ += o.ticks_;
    return *this;
  }
  Duration& operator-=(Duration o) {
    ticks_ -= o.ticks_;
    return *this;
  }

  constexpr auto operator<=>(const Duration&) const = default;

 private:
  constexpr explicit Duration(std::int64_t t) : ticks_(t) {}
  std::int64_t ticks_ = 0;
};

constexpr Duration operator*(std::int64_t k, Duration d) { return d * k; }

// An instant of virtual time, in ticks since the start of a run.
class TimePoint {
 public:
  constexpr TimePoint() = default;

  static constexpr TimePoint at_ticks(std::int64_t n) { return TimePoint(n); }
  static constexpr TimePoint origin() { return TimePoint(0); }
  static constexpr TimePoint never() {
    return TimePoint(Duration::infinite().count());
  }

  constexpr std::int64_t ticks() const { return ticks_; }
  double to_tu() const {
    return static_cast<double>(ticks_) /
           static_cast<double>(Duration::kTicksPerTimeUnit);
  }
  constexpr bool is_never() const { return *this >= never(); }

  constexpr TimePoint operator+(Duration d) const {
    return TimePoint(ticks_ + d.count());
  }
  constexpr TimePoint operator-(Duration d) const {
    return TimePoint(ticks_ - d.count());
  }
  constexpr Duration operator-(TimePoint o) const {
    return Duration::ticks(ticks_ - o.ticks_);
  }
  TimePoint& operator+=(Duration d) {
    ticks_ += d.count();
    return *this;
  }

  constexpr auto operator<=>(const TimePoint&) const = default;

 private:
  constexpr explicit TimePoint(std::int64_t t) : ticks_(t) {}
  std::int64_t ticks_ = 0;
};

constexpr TimePoint min(TimePoint a, TimePoint b) { return a < b ? a : b; }
constexpr TimePoint max(TimePoint a, TimePoint b) { return a < b ? b : a; }
constexpr Duration min(Duration a, Duration b) { return a < b ? a : b; }
constexpr Duration max(Duration a, Duration b) { return a < b ? b : a; }

// "3.25tu"-style rendering, used by traces and tables.
std::string to_string(Duration d);
std::string to_string(TimePoint t);
std::ostream& operator<<(std::ostream& os, Duration d);
std::ostream& operator<<(std::ostream& os, TimePoint t);

}  // namespace tsf::common
