// bench_diff: compare two BENCH_*.json reports (bench_json.cpp --json
// output) metric by metric and fail loudly on regressions.
//
//   bench_diff BASELINE.json CANDIDATE.json [--threshold 0.02]
//              [--abs-threshold 1e-6] [--all]
//   bench_diff BASELINE.json CANDIDATE.json --exact
//
// --exact is the golden gate for deterministic benches: both files must
// list the same seeds and, per seed, the same results[].metrics keys,
// and every value must be bit-equal — a 1-ulp drift and an
// "improvement" fail alike. Host-time keys are skipped: every key
// containing a kHostTimeKeys entry ("events_per_sec"). Top-level fields
// such as wall_time_s and environment are never read in either mode.
//
// Per-metric means are taken across the seeds each file contains; seeds
// present in both files are also compared pairwise so a single bad seed
// cannot hide inside a stable mean. A metric "regresses" when it moves
// in its bad direction by more than the threshold (relative): makespan,
// turnaround, wait and energy regress upward; utilization regresses
// downward. When the baseline value is exactly 0 (e.g. wait time at low
// load) a relative delta is undefined — the table prints "n/a" and the
// verdict falls back to the absolute delta against --abs-threshold.
// Other metrics are informational only. Exit codes: 0 clean,
// 1 regression (or, with --exact, any difference), 2 usage or parse
// failure, including a malformed or non-finite option value.
//
// Reports are read with the library's one JSON reader (json_parse in
// common/json.hpp): anything that is not RFC 8259 JSON, or nests deeper
// than kMaxJsonDepth, is a parse error naming the file and byte offset.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/args.hpp"
#include "common/json.hpp"
#include "common/table.hpp"

namespace {

using phisched::AsciiTable;
using phisched::JsonValue;

// ---------------------------------------------------------------------
// Report model
// ---------------------------------------------------------------------

struct BenchReport {
  std::string bench;
  /// seed -> metric -> value
  std::map<std::uint64_t, std::map<std::string, double>> runs;
};

std::optional<BenchReport> load_report(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "bench_diff: cannot read %s\n", path.c_str());
    return std::nullopt;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  phisched::JsonError error;
  const auto doc = phisched::json_parse(buffer.str(), &error);
  if (!doc) {
    std::fprintf(stderr, "bench_diff: parse error in %s at offset %zu: %s\n",
                 path.c_str(), error.offset, error.message.c_str());
    return std::nullopt;
  }
  if (doc->kind != JsonValue::Kind::kObject) {
    std::fprintf(stderr, "bench_diff: %s is not a JSON report object\n",
                 path.c_str());
    return std::nullopt;
  }
  BenchReport report;
  if (const JsonValue* name = doc->find("bench");
      name != nullptr && name->kind == JsonValue::Kind::kString) {
    report.bench = name->string;
  }
  const JsonValue* results = doc->find("results");
  if (results == nullptr || results->kind != JsonValue::Kind::kArray) {
    std::fprintf(stderr, "bench_diff: %s has no \"results\" array\n",
                 path.c_str());
    return std::nullopt;
  }
  for (const JsonValue& run : results->array) {
    const JsonValue* seed = run.find("seed");
    const JsonValue* metrics = run.find("metrics");
    // A seed is a whole number a uint64 holds: the cast below is
    // undefined for anything else (-1, 1e300).
    const bool whole_seed =
        seed != nullptr && seed->kind == JsonValue::Kind::kNumber &&
        seed->number >= 0.0 && seed->number < 0x1p64 &&
        std::trunc(seed->number) == seed->number;
    if (!whole_seed || metrics == nullptr ||
        metrics->kind != JsonValue::Kind::kObject) {
      std::fprintf(stderr, "bench_diff: %s has a malformed results entry\n",
                   path.c_str());
      return std::nullopt;
    }
    auto& row = report.runs[static_cast<std::uint64_t>(seed->number)];
    for (const auto& [key, value] : metrics->object) {
      if (value.kind == JsonValue::Kind::kNumber) row[key] = value.number;
    }
  }
  return report;
}

// ---------------------------------------------------------------------
// Comparison
// ---------------------------------------------------------------------

/// +1: larger is worse (makespan, turnaround, wait, energy, latency).
/// -1: smaller is worse (utilization, throughput in MiB/s, parallel
///     speedup).
///  0: informational only.
int bad_direction(const std::string& metric) {
  const auto contains = [&metric](const char* needle) {
    return metric.find(needle) != std::string::npos;
  };
  if (contains("makespan") || contains("turnaround") || contains("wait") ||
      contains("energy") || contains("latency")) {
    return +1;
  }
  if (contains("util") || contains("mib_s") || contains("speedup")) return -1;
  return 0;
}

/// Wall-clock measurements, not simulation outputs: --exact skips every
/// metric whose key contains one of these.
constexpr const char* kHostTimeKeys[] = {"events_per_sec"};

bool host_time_key(const std::string& metric) {
  return std::any_of(std::begin(kHostTimeKeys), std::end(kHostTimeKeys),
                     [&metric](const char* needle) {
                       return metric.find(needle) != std::string::npos;
                     });
}

/// --exact: the same seeds, the same metric keys per seed, and bit-equal
/// values. Returns the exit code.
int diff_exact(const BenchReport& baseline, const BenchReport& candidate) {
  std::vector<std::string> mismatches;
  std::size_t compared = 0;
  const auto missing = [&mismatches](const std::string& what,
                                     const char* side) {
    mismatches.push_back(what + ": missing in " + side);
  };
  for (const auto& [seed, base_metrics] : baseline.runs) {
    const std::string tag = "seed " + std::to_string(seed);
    const auto run = candidate.runs.find(seed);
    if (run == candidate.runs.end()) {
      missing(tag, "candidate");
      continue;
    }
    for (const auto& [metric, base] : base_metrics) {
      if (host_time_key(metric)) continue;
      const auto it = run->second.find(metric);
      if (it == run->second.end()) {
        missing(metric + " (" + tag + ")", "candidate");
      } else if (std::bit_cast<std::uint64_t>(base) !=
                 std::bit_cast<std::uint64_t>(it->second)) {
        char values[96];
        std::snprintf(values, sizeof values, "%.17g -> %.17g", base,
                      it->second);
        mismatches.push_back(metric + " (" + tag + "): " + values);
      } else {
        ++compared;
      }
    }
    for (const auto& [metric, cand] : run->second) {
      if (!host_time_key(metric) && base_metrics.count(metric) == 0) {
        missing(metric + " (" + tag + ")", "baseline");
      }
    }
  }
  for (const auto& [seed, cand_metrics] : candidate.runs) {
    if (baseline.runs.count(seed) == 0) {
      missing("seed " + std::to_string(seed), "baseline");
    }
  }

  std::printf("exact: %zu metric values compared over %zu seeds "
              "(host-time keys skipped)\n",
              compared, baseline.runs.size());
  if (!mismatches.empty()) {
    std::printf("\nDIFFERENCES (%zu):\n", mismatches.size());
    for (const std::string& m : mismatches) std::printf("  %s\n", m.c_str());
    return 1;
  }
  std::printf("bit-identical.\n");
  return 0;
}

std::map<std::string, double> metric_means(const BenchReport& report) {
  std::map<std::string, double> sums;
  std::map<std::string, std::size_t> counts;
  for (const auto& [_, metrics] : report.runs) {
    for (const auto& [key, value] : metrics) {
      sums[key] += value;
      counts[key] += 1;
    }
  }
  for (auto& [key, sum] : sums) sum /= static_cast<double>(counts[key]);
  return sums;
}

int diff_main(int argc, char** argv) {
  const phisched::ArgParser args(argc, argv);
  if (args.positional().size() != 2 || args.has("help")) {
    std::fprintf(stderr,
                 "usage: %s BASELINE.json CANDIDATE.json "
                 "[--threshold FRACTION] [--abs-threshold UNITS] [--all] "
                 "[--exact]\n"
                 "  --threshold      relative regression tolerance "
                 "(default 0.02 = 2%%)\n"
                 "  --abs-threshold  absolute tolerance used when the "
                 "baseline is 0 (default 1e-6)\n"
                 "  --all            also list metrics with no bad "
                 "direction\n"
                 "  --exact          same seeds and keys, every value "
                 "bit-equal (host-time keys skipped)\n",
                 args.program().c_str());
    return 2;
  }
  const double threshold = args.get_real_or("threshold", 0.02);
  const double abs_threshold = args.get_real_or("abs-threshold", 1e-6);
  const bool show_all = args.get_bool_or("all", false);
  const bool exact = args.get_bool_or("exact", false);

  const auto baseline = load_report(args.positional()[0]);
  const auto candidate = load_report(args.positional()[1]);
  if (!baseline || !candidate) return 2;
  if (!baseline->bench.empty() && !candidate->bench.empty() &&
      baseline->bench != candidate->bench) {
    std::fprintf(stderr, "bench_diff: comparing different benches (%s vs %s)\n",
                 baseline->bench.c_str(), candidate->bench.c_str());
  }
  if (exact) return diff_exact(*baseline, *candidate);

  const auto base_means = metric_means(*baseline);
  const auto cand_means = metric_means(*candidate);

  AsciiTable table({"Metric", "Baseline", "Candidate", "Delta", "Delta %",
                    "Verdict"});
  std::vector<std::string> regressions;
  for (const auto& [metric, base] : base_means) {
    const auto it = cand_means.find(metric);
    if (it == cand_means.end()) continue;
    const double cand = it->second;
    const int direction = bad_direction(metric);
    if (direction == 0 && !show_all) continue;

    const double delta = cand - base;
    // A zero baseline has no meaningful relative delta (and naive
    // division would print inf/nan and corrupt the verdict); fall back
    // to the absolute delta there.
    const bool has_rel = base != 0.0;
    const double rel = has_rel ? delta / std::fabs(base) : 0.0;
    std::string verdict = "-";
    if (direction != 0) {
      const double bad = static_cast<double>(direction) *
                         (has_rel ? rel : delta);
      const double limit = has_rel ? threshold : abs_threshold;
      const bool worse = bad > limit;
      const bool better = bad < -limit;
      verdict = worse ? "REGRESSED" : better ? "improved" : "ok";
      if (worse) regressions.push_back(metric);
    }
    table.add_row({metric, AsciiTable::cell(base, 3), AsciiTable::cell(cand, 3),
                   AsciiTable::cell(delta, 3),
                   has_rel ? AsciiTable::percent(rel, 2) : "n/a", verdict});
  }

  // Seed-paired check: a regression on any shared seed counts even when
  // the means stay inside the tolerance.
  for (const auto& [seed, base_metrics] : baseline->runs) {
    const auto run = candidate->runs.find(seed);
    if (run == candidate->runs.end()) continue;
    for (const auto& [metric, base] : base_metrics) {
      const int direction = bad_direction(metric);
      if (direction == 0) continue;
      const auto it = run->second.find(metric);
      if (it == run->second.end()) continue;
      const double delta = it->second - base;
      const bool has_rel = base != 0.0;
      const double bad = static_cast<double>(direction) *
                         (has_rel ? delta / std::fabs(base) : delta);
      if (bad > (has_rel ? threshold : abs_threshold)) {
        const std::string tag =
            metric + " (seed " + std::to_string(seed) + ")";
        if (std::find(regressions.begin(), regressions.end(), tag) ==
            regressions.end()) {
          regressions.push_back(tag);
        }
      }
    }
  }

  std::printf("%s\n", table.to_string().c_str());
  std::printf("seeds: %zu baseline, %zu candidate; threshold %.1f%%\n",
              baseline->runs.size(), candidate->runs.size(),
              threshold * 100.0);
  if (!regressions.empty()) {
    std::printf("\nREGRESSIONS (%zu):\n", regressions.size());
    for (const std::string& r : regressions) std::printf("  %s\n", r.c_str());
    return 1;
  }
  std::printf("no regressions.\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // A malformed or non-finite option value (--threshold nan) makes
  // ArgParser throw: a usage error, exit 2, never an abort.
  try {
    return diff_main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_diff: %s\n", e.what());
    return 2;
  }
}
