// Streaming summary statistics (Welford) and time-weighted accumulators.
#pragma once

#include <cstddef>
#include <limits>
#include <string>

#include "common/types.hpp"

namespace phisched {

/// Streaming count/mean/variance/min/max over a sequence of samples.
class Summary {
 public:
  void add(double x);
  void merge(const Summary& other);

  [[nodiscard]] std::size_t count() const { return count_; }
  [[nodiscard]] double mean() const;
  [[nodiscard]] double variance() const;  ///< Sample variance (n-1).
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;
  [[nodiscard]] double sum() const { return mean_ * static_cast<double>(count_); }

  [[nodiscard]] std::string to_string() const;

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Integrates a piecewise-constant signal over simulated time.
///
/// Feed it every change of the signal via set(t, value); query the
/// time-weighted integral or mean over [start, last update].
class TimeWeighted {
 public:
  /// Starts (or restarts) the signal at time t with the given value.
  void reset(SimTime t, double value);

  /// Records that the signal changed to `value` at time `t`.
  /// Times must be non-decreasing.
  void set(SimTime t, double value);

  /// Advances the clock without changing the value.
  void advance_to(SimTime t);

  [[nodiscard]] double integral() const { return integral_; }
  [[nodiscard]] double current() const { return value_; }
  [[nodiscard]] SimTime start_time() const { return start_; }
  [[nodiscard]] SimTime last_time() const { return last_; }

  /// Time-weighted mean over [start, last]; 0 over an empty interval.
  [[nodiscard]] double mean() const;

  /// Time-weighted mean over [start, t], extending the last value to t.
  [[nodiscard]] double mean_until(SimTime t) const;

  /// Integral over [start, t], extending the last value to t (a t before
  /// the last update adds nothing); 0 before the first set.
  [[nodiscard]] double integral_until(SimTime t) const;

 private:
  SimTime start_ = 0.0;
  SimTime last_ = 0.0;
  double value_ = 0.0;
  double integral_ = 0.0;
  bool started_ = false;
};

}  // namespace phisched
