#include "obs/metrics.hpp"

namespace phisched::obs {

void Registry::counter(const std::string& name,
                       std::function<std::uint64_t()> source) {
  counters_[name] = std::move(source);
}

Gauge& Registry::gauge(const std::string& name) {
  return gauges_[name];
}

TimeWeighted& Registry::series(const std::string& name) {
  return series_[name];
}

TimeHistogram& Registry::time_histogram(const std::string& name, double lo,
                                        double hi, std::size_t bins) {
  auto it = time_histograms_.find(name);
  if (it == time_histograms_.end()) {
    it = time_histograms_.emplace(name, TimeHistogram(lo, hi, bins)).first;
  }
  return it->second;
}

Histogram& Registry::histogram(const std::string& name, double lo, double hi,
                               std::size_t bins) {
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(name, Histogram(lo, hi, bins)).first;
  }
  return it->second;
}

MetricsSnapshot::HistogramData histogram_data(const Histogram& h) {
  MetricsSnapshot::HistogramData data;
  data.lo = h.bin_low(0);
  data.hi = h.bin_high(h.bins() - 1);
  data.counts.reserve(h.bins());
  for (std::size_t b = 0; b < h.bins(); ++b) data.counts.push_back(h.count(b));
  return data;
}

MetricsSnapshot Registry::snapshot(SimTime until) const {
  MetricsSnapshot snap;
  for (const auto& [name, source] : counters_) {
    snap.counters.emplace(name, source());
  }
  for (const auto& [name, g] : gauges_) snap.gauges.emplace(name, g.value());
  for (const auto& [name, s] : series_) {
    snap.gauges.emplace(name + ".mean", s.mean_until(until));
    snap.gauges.emplace(name + ".integral", s.integral_until(until));
  }
  for (const auto& [name, h] : time_histograms_) {
    snap.histograms.emplace(name, histogram_data(h.finalized(until)));
  }
  for (const auto& [name, h] : histograms_) {
    snap.histograms.emplace(name, histogram_data(h));
  }
  return snap;
}

}  // namespace phisched::obs
