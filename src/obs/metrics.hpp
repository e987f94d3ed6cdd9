// phisched::obs — metrics registry.
//
// The registry holds named instruments that instrumented components
// (phi::Device, cosmic::NodeMiddleware, condor::Negotiator/Schedd)
// update during a run:
//
//   bound counter   monotone event count (OOM kills, match cycles, ...)
//                   read at snapshot time from the count the component
//                   already keeps in its stats
//   Gauge           scalar that is summed or maxed in place
//                   (summed admission wait, max pending age)
//   TimeWeighted    piecewise-constant signal integrated over SIM time
//                   (busy cores, offload queue depth, device speed)
//   TimeHistogram   seconds spent at each value of such a signal
//   Histogram       plain sample-count histogram (admission waits)
//
// Instruments are registered lazily by name; names are dotted paths,
// layer first ("phi.node0.mic0.oom_kills"). References returned by the
// registry are stable for its lifetime, so hot paths cache pointers and
// pay one branch when telemetry is off. A bound counter costs the hot
// path nothing: the component counts once, in its own stats.
//
// snapshot() flattens everything into a MetricsSnapshot — plain ordered
// data with operator==, which is what the determinism tests compare and
// the JSON exporter serializes. End-of-run rollups (cluster::Harness)
// are written straight into that snapshot, never into the registry.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/histogram.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"

namespace phisched::obs {

class Gauge {
 public:
  void add(double v) { value_ += v; }
  /// Keeps the running maximum (for e.g. peak queue age).
  void set_max(double v) {
    if (v > value_) value_ = v;
  }
  [[nodiscard]] double value() const { return value_; }

 private:
  double value_ = 0.0;
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

/// The flattened form of one histogram, as snapshots and rollups hold it.
[[nodiscard]] MetricsSnapshot::HistogramData histogram_data(const Histogram& h);

class Registry {
 public:
  /// Binds `name` to a count its component keeps: every snapshot reads
  /// `source()`, so the export cannot drift from the component's stats.
  /// The component must outlive every snapshot of this registry.
  /// Rebinding a name replaces its source.
  void counter(const std::string& name, std::function<std::uint64_t()> source);
  /// Get-or-create; references stay valid for the registry's lifetime.
  Gauge& gauge(const std::string& name);
  TimeWeighted& series(const std::string& name);
  TimeHistogram& time_histogram(const std::string& name, double lo, double hi,
                                std::size_t bins);
  Histogram& histogram(const std::string& name, double lo, double hi,
                       std::size_t bins);

  /// Flattens every instrument, extending time-based ones to `until`.
  /// Series contribute "<name>.mean" and "<name>.integral" gauges; time
  /// histograms' counts are seconds per bin.
  [[nodiscard]] MetricsSnapshot snapshot(SimTime until) const;

 private:
  std::map<std::string, std::function<std::uint64_t()>> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, TimeWeighted> series_;
  std::map<std::string, TimeHistogram> time_histograms_;
  std::map<std::string, Histogram> histograms_;
};

}  // namespace phisched::obs
