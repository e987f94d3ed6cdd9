// phisched::obs — metrics registry.
//
// The registry holds named instruments that instrumented components
// (phi::Device, cosmic::NodeMiddleware, condor::Negotiator/Schedd,
// cluster::Experiment) update during a run:
//
//   Counter         monotone event count (OOM kills, match cycles, ...)
//   Gauge           last-write-wins scalar (makespan, max pending age)
//   TimeSeriesGauge piecewise-constant signal integrated over SIM time
//                   (busy cores, offload queue depth, device speed)
//   TimeHistogram   seconds spent at each value of such a signal
//   ValueHistogram  plain count histogram (per-job slowdown)
//
// Instruments are registered lazily by name; names are dotted paths,
// layer first ("phi.node0.mic0.oom_kills"). References returned by the
// registry are stable for its lifetime, so hot paths cache pointers and
// pay one branch when telemetry is off.
//
// snapshot() flattens everything into a MetricsSnapshot — plain ordered
// data with operator==, which is what the determinism tests compare and
// the JSON exporter serializes.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/histogram.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"

namespace phisched::obs {

class Counter {
 public:
  void inc(std::uint64_t n = 1) { value_ += n; }
  [[nodiscard]] std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

class Gauge {
 public:
  void set(double v) { value_ = v; }
  void add(double v) { value_ += v; }
  /// Keeps the running maximum (for e.g. peak queue age).
  void set_max(double v) {
    if (v > value_) value_ = v;
  }
  [[nodiscard]] double value() const { return value_; }

 private:
  double value_ = 0.0;
};

/// Piecewise-constant signal over simulated time; snapshots report the
/// time-weighted mean and the integral (value·seconds).
class TimeSeriesGauge {
 public:
  void set(SimTime t, double v) {
    if (!started_) {
      series_.reset(t, v);
      started_ = true;
      return;
    }
    series_.set(t, v);
  }
  [[nodiscard]] double mean_until(SimTime t) const {
    return started_ ? series_.mean_until(t) : 0.0;
  }
  [[nodiscard]] double integral_until(SimTime t) const {
    if (!started_) return 0.0;
    return series_.integral() +
           series_.current() * (t > series_.last_time()
                                    ? t - series_.last_time()
                                    : 0.0);
  }

 private:
  TimeWeighted series_;
  bool started_ = false;
};

/// Histogram of time spent at each value of a piecewise-constant signal:
/// each set(t, v) charges the elapsed interval to the previous value's
/// bin. finalize(t) closes the last interval.
class TimeHistogram {
 public:
  TimeHistogram(double lo, double hi, std::size_t bins) : hist_(lo, hi, bins) {}

  void set(SimTime t, double v) {
    if (started_ && t > last_) hist_.add(value_, t - last_);
    value_ = v;
    last_ = t;
    started_ = true;
  }
  [[nodiscard]] Histogram finalized(SimTime until) const {
    Histogram h = hist_;
    if (started_ && until > last_) h.add(value_, until - last_);
    return h;
  }

 private:
  Histogram hist_;
  double value_ = 0.0;
  SimTime last_ = 0.0;
  bool started_ = false;
};

/// Plain sample-count histogram (thin registry wrapper over Histogram).
class ValueHistogram {
 public:
  ValueHistogram(double lo, double hi, std::size_t bins) : hist_(lo, hi, bins) {}
  void add(double x, double weight = 1.0) { hist_.add(x, weight); }
  /// Drops all samples (bin edges survive) so a finalization pass can
  /// rebuild the distribution from scratch, idempotently.
  void reset() { hist_.clear(); }
  [[nodiscard]] const Histogram& histogram() const { return hist_; }

 private:
  Histogram hist_;
};

/// Flattened, comparable, serializable view of a registry.
struct MetricsSnapshot {
  struct HistogramData {
    double lo = 0.0;
    double hi = 0.0;
    std::vector<double> counts;
    friend bool operator==(const HistogramData&, const HistogramData&) = default;
  };

  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramData> histograms;

  friend bool operator==(const MetricsSnapshot&, const MetricsSnapshot&) =
      default;
};

class Registry {
 public:
  /// Get-or-create; references stay valid for the registry's lifetime.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  TimeSeriesGauge& series(const std::string& name);
  TimeHistogram& time_histogram(const std::string& name, double lo, double hi,
                                std::size_t bins);
  ValueHistogram& histogram(const std::string& name, double lo, double hi,
                            std::size_t bins);

  /// Flattens every instrument, extending time-based ones to `until`.
  /// Series contribute "<name>.mean" and "<name>.integral" gauges; time
  /// histograms' counts are seconds per bin.
  [[nodiscard]] MetricsSnapshot snapshot(SimTime until) const;

 private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, TimeSeriesGauge> series_;
  std::map<std::string, TimeHistogram> time_histograms_;
  std::map<std::string, ValueHistogram> histograms_;
};

}  // namespace phisched::obs
