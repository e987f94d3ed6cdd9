#include "common/histogram.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "common/check.hpp"

namespace phisched {

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), bin_width_((hi - lo) / static_cast<double>(bins)),
      counts_(bins, 0.0) {
  PHISCHED_REQUIRE(hi > lo, "Histogram: hi must exceed lo");
  PHISCHED_REQUIRE(bins > 0, "Histogram: need at least one bin");
}

void Histogram::add(double x, double weight) {
  // A NaN sample (or weight) must fail loudly: depending on comparison
  // order it would otherwise either vanish or land in an arbitrary
  // bucket (casting the NaN bin index is undefined behaviour), and
  // every downstream fraction()/ascii() read would be silently wrong.
  PHISCHED_CHECK(!std::isnan(x),
                 "Histogram::add: NaN sample (lo=", lo_, ", hi=", hi_, ")");
  PHISCHED_CHECK(!std::isnan(weight), "Histogram::add: NaN weight for x=", x);
  auto bin = static_cast<std::ptrdiff_t>(
      std::clamp(std::floor((x - lo_) / bin_width_),
                 0.0, static_cast<double>(counts_.size()) - 1.0));
  counts_[static_cast<std::size_t>(bin)] += weight;
  total_ += weight;
}

double Histogram::count(std::size_t bin) const {
  PHISCHED_REQUIRE(bin < counts_.size(), "Histogram: bin out of range");
  return counts_[bin];
}

double Histogram::fraction(std::size_t bin) const {
  return total_ == 0.0 ? 0.0 : count(bin) / total_;
}

double Histogram::bin_low(std::size_t bin) const {
  PHISCHED_REQUIRE(bin < counts_.size(), "Histogram: bin out of range");
  return lo_ + bin_width_ * static_cast<double>(bin);
}

double Histogram::bin_high(std::size_t bin) const {
  return bin_low(bin) + bin_width_;
}

std::string Histogram::ascii(std::size_t width, const char* label_fmt) const {
  const double peak = counts_.empty()
                          ? 0.0
                          : *std::max_element(counts_.begin(), counts_.end());
  std::ostringstream os;
  char label[64];
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    std::snprintf(label, sizeof label, label_fmt, bin_low(i));
    std::string lo = label;
    std::snprintf(label, sizeof label, label_fmt, bin_high(i));
    std::string hi = label;
    const auto bar_len =
        peak <= 0.0 ? std::size_t{0}
                    : static_cast<std::size_t>(std::lround(
                          counts_[i] / peak * static_cast<double>(width)));
    os << "[" << lo << ", " << hi << ")\t" << std::string(bar_len, '#') << " "
       << counts_[i] << "\n";
  }
  return os.str();
}

}  // namespace phisched
