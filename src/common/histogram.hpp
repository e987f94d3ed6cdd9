// Fixed-bin histogram with ASCII rendering, used to reproduce the Fig. 7
// resource-distribution plots and for workload diagnostics.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace phisched {

class Histogram {
 public:
  /// Bins [lo, hi) into `bins` equal-width buckets; samples outside the
  /// range land in the first/last bucket.
  Histogram(double lo, double hi, std::size_t bins);

  /// Adds one sample. Samples outside [lo, hi) clamp to the edge bins
  /// (including ±inf); a NaN sample or weight throws InternalError —
  /// NaN has no bucket, and admitting it would silently corrupt
  /// total()/fraction() for every later read.
  void add(double x, double weight = 1.0);

  [[nodiscard]] std::size_t bins() const { return counts_.size(); }
  [[nodiscard]] double total() const { return total_; }
  [[nodiscard]] double count(std::size_t bin) const;
  /// Share of total weight in `bin`; defined as 0 for an empty
  /// histogram (never a 0/0 NaN).
  [[nodiscard]] double fraction(std::size_t bin) const;
  [[nodiscard]] double bin_low(std::size_t bin) const;
  [[nodiscard]] double bin_high(std::size_t bin) const;

  /// Renders a horizontal bar chart, one row per bin, `width` chars at the
  /// modal bin. `label_fmt` controls how bin edges are printed ("%.0f").
  [[nodiscard]] std::string ascii(std::size_t width = 50,
                                  const char* label_fmt = "%.0f") const;

 private:
  double lo_;
  double hi_;
  double bin_width_;
  std::vector<double> counts_;
  double total_ = 0.0;
};

}  // namespace phisched
