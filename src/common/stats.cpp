#include "common/stats.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/check.hpp"

namespace phisched {

void Summary::add(double x) {
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

void Summary::merge(const Summary& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(count_);
  const double nb = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  const double n = na + nb;
  mean_ += delta * nb / n;
  m2_ += other.m2_ + delta * delta * na * nb / n;
  count_ += other.count_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double Summary::mean() const { return count_ == 0 ? 0.0 : mean_; }

double Summary::variance() const {
  return count_ < 2 ? 0.0 : m2_ / static_cast<double>(count_ - 1);
}

double Summary::stddev() const { return std::sqrt(variance()); }

double Summary::min() const { return count_ == 0 ? 0.0 : min_; }

double Summary::max() const { return count_ == 0 ? 0.0 : max_; }

std::string Summary::to_string() const {
  std::ostringstream os;
  os << "n=" << count_ << " mean=" << mean() << " sd=" << stddev()
     << " min=" << min() << " max=" << max();
  return os.str();
}

void TimeWeighted::reset(SimTime t, double value) {
  start_ = t;
  last_ = t;
  value_ = value;
  integral_ = 0.0;
  started_ = true;
}

void TimeWeighted::set(SimTime t, double value) {
  if (!started_) {
    reset(t, value);
    return;
  }
  PHISCHED_REQUIRE(t >= last_, "TimeWeighted: time went backwards");
  integral_ += value_ * (t - last_);
  last_ = t;
  value_ = value;
}

void TimeWeighted::advance_to(SimTime t) { set(t, value_); }

double TimeWeighted::mean() const {
  const double span = last_ - start_;
  return span <= 0.0 ? 0.0 : integral_ / span;
}

double TimeWeighted::mean_until(SimTime t) const {
  if (!started_) return 0.0;
  PHISCHED_REQUIRE(t >= last_, "TimeWeighted: query before last update");
  const double span = t - start_;
  if (span <= 0.0) return 0.0;
  return (integral_ + value_ * (t - last_)) / span;
}

double TimeWeighted::integral_until(SimTime t) const {
  if (!started_) return 0.0;
  return integral_ + value_ * (t > last_ ? t - last_ : 0.0);
}

}  // namespace phisched
