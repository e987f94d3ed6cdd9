#include "spans.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <utility>

namespace perfbench {

Tracer::Tracer(std::string trace_id)
    : trace_id_(std::move(trace_id)), epoch_(Clock::now()) {}

std::int64_t Tracer::open(std::string name, std::int64_t parent) {
  const auto now = Clock::now();
  return add(std::move(name), parent, now, now);
}

void Tracer::close(std::int64_t span) {
  spans_[static_cast<std::size_t>(span)].end = Clock::now();
}

std::int64_t Tracer::add(std::string name, std::int64_t parent,
                         Clock::time_point start, Clock::time_point end) {
  spans_.push_back(Span{std::move(name), parent, start, end});
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

bool Tracer::write_json(const std::string& path) const {
  std::vector<double> child_us(spans_.size(), 0.0);
  const auto us = [](Clock::time_point a, Clock::time_point b) {
    return seconds_between(a, b) * 1e6;
  };
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_us[static_cast<std::size_t>(s.parent)] += us(s.start, s.end);
    }
  }
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"trace_id\":\"" << trace_id_ << "\",\"spans\":[";
  char buf[160];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const double dur = us(s.start, s.end);
    std::snprintf(buf, sizeof buf,
                  "\"start_us\":%.3f,\"dur_us\":%.3f,\"self_us\":%.3f}",
                  us(epoch_, s.start), dur, dur - child_us[i]);
    out << (i == 0 ? "" : ",") << "\n{\"id\":" << i
        << ",\"parent\":" << s.parent << ",\"name\":\"" << s.name << "\","
        << buf;
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

namespace {

/// Nearest rank (1-based) of percentile `basis_points` / 100 in n samples,
/// in integer arithmetic so ladder thresholds are exact.
std::size_t rank_of(std::size_t basis_points, std::size_t n) {
  return std::clamp<std::size_t>((basis_points * n + 9999) / 10000, 1, n);
}

}  // namespace

double percentile_sorted(const std::vector<double>& sorted, double pct) {
  const auto bp = static_cast<std::size_t>(std::llround(pct * 100.0));
  return sorted[rank_of(bp, sorted.size()) - 1];
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t mid = samples.size() / 2;
  return samples.size() % 2 == 1 ? samples[mid]
                                 : (samples[mid - 1] + samples[mid]) / 2.0;
}

Distribution summarize(std::vector<double> samples) {
  Distribution d;
  d.n = samples.size();
  if (samples.empty()) return d;
  std::sort(samples.begin(), samples.end());
  d.p50 = percentile_sorted(samples, 50.0);
  d.max = samples.back();
  d.tail = d.max;
  d.tail_pct = 100.0;
  for (const std::size_t bp : {9999, 9990, 9900, 9500, 9000, 7500, 5000}) {
    const std::size_t rank = rank_of(bp, d.n);
    if (d.n - rank >= 10) {
      d.tail = samples[rank - 1];
      d.tail_pct = static_cast<double>(bp) / 100.0;
      break;
    }
  }
  return d;
}

}  // namespace perfbench
