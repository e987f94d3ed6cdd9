// Host-time measurement primitives for the benchmark: a steady clock, an
// in-memory span store for the traced run, and the median/tail summary
// every timing distribution is reported with.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// One timed call into a layer, recorded from the benchmark's own code.
struct Span {
  std::string name;
  /// Index of the span that caused this one; -1 for the root.
  std::int64_t parent = -1;
  Clock::time_point start;
  Clock::time_point end;
};

/// Spans of one traced workload run. Every span shares the trace id;
/// they stay in memory and are written out once, when the benchmark ends.
class Tracer {
 public:
  explicit Tracer(std::string trace_id);

  /// Opens a span now and returns its index; close() stamps its end.
  std::int64_t open(std::string name, std::int64_t parent);
  void close(std::int64_t span);
  /// Records an already-measured interval.
  std::int64_t add(std::string name, std::int64_t parent,
                   Clock::time_point start, Clock::time_point end);

  /// Writes {"trace_id":..,"spans":[{"id","parent","name","start_us",
  /// "dur_us","self_us"}..]}; self time is the duration minus the part
  /// covered by child spans. Returns false when the file cannot be written.
  bool write_json(const std::string& path) const;

 private:
  std::string trace_id_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

/// A timing distribution: the median, and the tail — the highest
/// percentile on a fixed ladder with at least ten samples beyond it
/// (the maximum when there are ten samples or fewer).
struct Distribution {
  double p50 = 0.0;
  double tail = 0.0;
  double tail_pct = 0.0;
  double max = 0.0;
  std::size_t n = 0;
};

[[nodiscard]] Distribution summarize(std::vector<double> samples);

/// Nearest-rank percentile of an ascending-sorted, non-empty sample.
[[nodiscard]] double percentile_sorted(const std::vector<double>& sorted,
                                       double pct);

[[nodiscard]] double median(std::vector<double> samples);

}  // namespace perfbench
