// The repo benchmark: runs one workload on the sequential engine, checks
// its outputs, and prints its metrics. The last line of stdout is one JSON
// object: {"correct", "attempted", "failed", "metrics": {name: {value,
// unit}}} — the end-to-end metrics with --trace 0, the per-layer metrics
// of a separate traced run with --trace 1. Exit status 0 only when every
// check passed.
//
//   phisched_perfbench --workload NAME [--seed N] [--seconds S]
//                      [--trace 0|1] [--spans-out PATH]
//
// perfbench/README.md documents the workloads and every metric.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <exception>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "probes.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using phisched::cluster::StackConfig;

/// Set-ups timed per pass; setup_s is the median over all of them.
constexpr int kSetupReps = 10;

struct Options {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_out;
};

Options parse_options(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      o.seconds = std::stod(value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        throw std::invalid_argument("--trace takes 0 or 1");
      }
      o.trace = value == "1";
    } else if (flag == "--spans-out") {
      o.spans_out = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (o.workload.empty()) throw std::invalid_argument("--workload is required");
  return o;
}

/// Metrics in print order, each with its unit.
class Report {
 public:
  /// `note` appears on the human-readable line only.
  void add(const std::string& name, double value, const char* unit,
           std::string note = "") {
    rows_.push_back(Row{name, value, unit, std::move(note)});
  }

  /// Human-readable lines, then the one-line JSON result.
  void print(bool correct, std::size_t attempted, std::size_t failed) const {
    for (const Row& r : rows_) {
      std::printf("%-28s %-12.6g %s %s\n", r.name.c_str(), r.value, r.unit,
                  r.note.c_str());
    }
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": {",
                correct ? "true" : "false", attempted, failed);
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", rows_[i].name.c_str(), rows_[i].value,
                  rows_[i].unit);
    }
    std::printf("}}\n");
    std::fflush(stdout);
  }

 private:
  struct Row {
    std::string name;
    double value;
    const char* unit;
    std::string note;
  };
  std::vector<Row> rows_;
};

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

void report_failures(const std::vector<std::string>& failures) {
  for (const std::string& f : failures) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", f.c_str());
  }
}

struct SimMetric {
  const char* name;
  const char* unit;
  double value;
};

/// The simulated end-to-end metrics of one pass, in report order: on
/// table2 they are MCCK's (the last stack), elsewhere the workload's one
/// stack or service.
std::vector<SimMetric> simulated_metrics(const PassResult& p) {
  const auto& last = p.stacks.back();
  double p50 = 0.0;
  double p99 = 0.0;
  double admitted = 1.0;
  if (p.service.has_value()) {
    const auto& cum = p.service->windows.back().metrics;
    p50 = cum.at("cum_p50_wait_s");
    p99 = cum.at("cum_p99_wait_s");
    admitted = ratio(static_cast<double>(p.service->jobs_admitted),
                     static_cast<double>(p.service->jobs_generated));
  } else {
    std::vector<double> waits = p.waits.back();
    std::sort(waits.begin(), waits.end());
    p50 = percentile_sorted(waits, 50.0);
    p99 = percentile_sorted(waits, 99.0);
  }
  return {{"makespan_s", "sim_s", last.makespan},
          {"wait_p50_s", "sim_s", p50},
          {"wait_p99_s", "sim_s", p99},
          {"core_util", "fraction", last.avg_core_utilization},
          {"admitted_frac", "fraction", admitted}};
}

/// Timed passes, tracing off. Pass i runs the workload on the
/// (i mod seeds_per_run)-th seed derived from --seed, until --seconds have
/// passed and every derived seed ran at least once and one of them twice
/// (the repeat must be bit-identical). setup_s is the median over every
/// set-up; run_s sums each stack's fastest run (the fastest pass when there
/// is one stack); simulated metrics are medians over the derived seeds.
int timed_run(const Options& o) {
  std::vector<Workload> workloads;
  workloads.push_back(make_workload(o.workload, o.seed));
  for (std::size_t k = 1; k < workloads.front().seeds_per_run; ++k) {
    workloads.push_back(make_workload(o.workload, derived_seed(o.seed, k)));
  }
  const std::size_t seeds = workloads.size();

  std::vector<std::vector<std::uint64_t>> references(seeds);
  std::vector<std::vector<SimMetric>> simulated(seeds);
  std::vector<std::string> failures;
  std::vector<double> setups;
  std::vector<double> runs;
  std::vector<double> fastest_by_stack;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  const auto start = Clock::now();
  for (std::size_t pass = 0;
       pass <= seeds || seconds_between(start, Clock::now()) < o.seconds;
       ++pass) {
    const Workload& w = workloads[pass % seeds];
    const PassResult p = run_pass(w, PassMode::kPlain, kSetupReps);
    setups.insert(setups.end(), p.setup_s.begin(), p.setup_s.end());
    runs.push_back(p.run_s);
    fastest_by_stack.resize(p.stack_run_s.size(),
                            std::numeric_limits<double>::infinity());
    for (std::size_t s = 0; s < p.stack_run_s.size(); ++s) {
      fastest_by_stack[s] = std::min(fastest_by_stack[s], p.stack_run_s[s]);
    }
    attempted += p.jobs_submitted;
    failed += jobs_not_completed(p);
    if (pass < seeds) {
      for (std::string& f : check_outputs(w, p)) {
        failures.push_back("seed " + std::to_string(w.seed) + ": " + f);
      }
      references[pass] = fingerprint(p);
      simulated[pass] = simulated_metrics(p);
    } else if (fingerprint(p) != references[pass % seeds]) {
      failures.push_back("seed " + std::to_string(w.seed) +
                         ": repeated passes are not bit-identical");
    }
  }
  report_failures(failures);
  if (!failures.empty()) failed = attempted;

  Report report;
  report.add("setup_s", median(setups), "s");
  // Interference on a shared host only ever adds time, so the fastest run
  // is the steadiest estimate (bench_scale reports its minimum too).
  double fastest = 0.0;
  for (const double s : fastest_by_stack) fastest += s;
  char passes[80];
  std::snprintf(passes, sizeof passes,
                "(fastest per stack over %zu passes; median pass %.4g)",
                runs.size(), median(runs));
  report.add("run_s", fastest, "s", passes);
  report.add("peak_rss_mib", peak_rss_mib(), "MiB");
  for (std::size_t m = 0; m < simulated.front().size(); ++m) {
    std::vector<double> values;
    for (const auto& per_seed : simulated) values.push_back(per_seed[m].value);
    report.add(simulated.front()[m].name, median(values),
               simulated.front()[m].unit);
  }
  report.print(failures.empty(), attempted, failed);
  return failures.empty() ? 0 : 1;
}

/// Sums a counter over every stack's telemetry: names that start with
/// `prefix` and end with `suffix`.
double counter_sum(const PassResult& p, const std::string& prefix,
                   const std::string& suffix) {
  double total = 0.0;
  for (const auto& r : p.stacks) {
    for (const auto& [name, value] : r.telemetry->metrics.counters) {
      if (name.size() >= prefix.size() + suffix.size() &&
          name.compare(0, prefix.size(), prefix) == 0 &&
          name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
              0) {
        total += static_cast<double>(value);
      }
    }
  }
  return total;
}

template <typename Field>
double stack_sum(const PassResult& p, Field field) {
  double total = 0.0;
  for (const auto& r : p.stacks) total += static_cast<double>(r.*field);
  return total;
}

/// Median and tail; the tail's percentile and the sample count go on the
/// human-readable line.
void add_distribution(Report& report, const std::string& stem,
                      const Distribution& d, const char* unit) {
  char note[64];
  std::snprintf(note, sizeof note, "(p%g of %zu samples)", d.tail_pct, d.n);
  report.add(stem + "_p50", d.p50, unit);
  report.add(stem + "_tail", d.tail, unit, note);
}

/// The per-layer run on --seed: untraced, traced and telemetry passes,
/// then the layer probes. Spans go to --spans-out when given.
int traced_run(const Workload& w, const Options& o) {
  Tracer tracer(w.name + "-seed" + std::to_string(w.seed));
  const std::int64_t root = tracer.open("workload:" + w.name, -1);
  const PassResult plain = run_pass(w, PassMode::kPlain, 1);
  const std::int64_t traced_span = tracer.open("pass:traced", root);
  const PassResult traced = run_pass(w, PassMode::kTraced, 1, &tracer,
                                     traced_span);
  tracer.close(traced_span);
  const PassResult counted = run_pass(w, PassMode::kTelemetry, 1);
  const auto probes = run_probes(w, tracer, root);
  tracer.close(root);

  std::vector<std::string> failures = check_outputs(w, plain);
  const auto reference = fingerprint(plain);
  if (fingerprint(traced) != reference) {
    failures.push_back("traced run's simulated outputs differ from untraced");
  }
  if (fingerprint(counted) != reference) {
    failures.push_back("telemetry run's simulated outputs differ from untraced");
  }
  const LayerTimes& l = traced.layers;
  using R = phisched::cluster::ExperimentResult;
  const double cycles = stack_sum(plain, &R::negotiation_cycles);
  if (!w.service.has_value() &&
      static_cast<double>(l.cycle_ms.size()) != cycles) {
    failures.push_back("classified cycle steps (" +
                       std::to_string(l.cycle_ms.size()) +
                       ") != negotiation_cycles (" +
                       std::to_string(static_cast<std::uint64_t>(cycles)) +
                       ")");
  }
  if (l.assign_outside_cycle) {
    failures.push_back("an assign() call ran outside a classified cycle step");
  }
  if (!o.spans_out.empty() && !tracer.write_json(o.spans_out)) {
    failures.push_back("cannot write spans to " + o.spans_out);
  }
  report_failures(failures);

  const double events = stack_sum(plain, &R::events_processed);
  const double matches = stack_sum(counted, &R::matches);
  const double rejected =
      counter_sum(counted, "condor.negotiator", ".rejected_dispatches");
  const double batch_jobs =
      counter_sum(counted, "condor.negotiator", ".batch_jobs");
  const double packed = counter_sum(counted, "condor.negotiator", ".packed");
  // Service::run() drives its own loop: no per-step spans there.
  const double cycle_s =
      w.service.has_value() ? 0.0 : l.cycle_step_s - l.assign_s;
  const Distribution steps = summarize(l.step_us);
  const Distribution cycle_ms = summarize(l.cycle_ms);
  const Distribution assign_ms = summarize(l.assign_ms);

  Report report;
  report.add("workload.gen_s", l.gen_s, "s");
  report.add("cluster.build_s", l.build_s, "s");
  report.add("cluster.submit_s", l.submit_s, "s");
  const auto configs = stack_configs(w);
  for (const auto stack : {StackConfig::kMC, StackConfig::kMCC,
                           StackConfig::kMCCK}) {
    double run_s = 0.0;
    for (std::size_t s = 0; s < configs.size(); ++s) {
      if (configs[s].stack == stack) run_s += plain.stack_run_s[s];
    }
    report.add(std::string("cluster.run_s.") +
                   phisched::cluster::stack_config_name(stack),
               run_s, "s");
  }
  add_distribution(report, "cluster.step_us", steps, "us");
  report.add("cluster.history_ratio", l.history_ratio, "ratio");
  add_distribution(report, "cluster.machine_ad_us",
                   probes.at("cluster.machine_ad_us"), "us");
  report.add("sim.events", events, "count");
  report.add("sim.events_per_s", ratio(events, plain.run_s), "1/s");
  report.add("condor.cycles", cycles, "count");
  report.add("condor.cycle_s", cycle_s, "s");
  report.add("condor.cycle_share", ratio(cycle_s, traced.run_s), "fraction");
  add_distribution(report, "condor.cycle_ms", cycle_ms, "ms");
  report.add("condor.cycle_ms_max", cycle_ms.max, "ms");
  report.add("condor.matches", matches, "count");
  report.add("condor.rejected_dispatches", rejected, "count");
  report.add("condor.match_yield", ratio(matches, matches + rejected),
             "fraction");
  report.add("condor.batch_jobs", batch_jobs, "count");
  report.add("condor.packed", packed, "count");
  report.add("condor.pack_yield", ratio(packed, batch_jobs), "fraction");
  report.add("core.assign_calls", static_cast<double>(assign_ms.n), "count");
  report.add("core.assign_s", l.assign_s, "s");
  add_distribution(report, "core.assign_ms", assign_ms, "ms");
  report.add("core.jobs_offered", static_cast<double>(l.jobs_offered),
             "count");
  report.add("core.pin_yield",
             ratio(static_cast<double>(l.jobs_assigned),
                   static_cast<double>(l.jobs_offered)),
             "fraction");
  add_distribution(report, "knapsack.dp1d_us", probes.at("knapsack.dp1d_us"),
                   "us");
  add_distribution(report, "knapsack.dp2d_pack_ms",
                   probes.at("knapsack.dp2d_pack_ms"), "ms");
  add_distribution(report, "classad.match_ns", probes.at("classad.match_ns"),
                   "ns");
  add_distribution(report, "classad.job_ad_us",
                   probes.at("classad.job_ad_us"), "us");
  report.add("cosmic.event_s", l.event_step_s, "s");
  report.add("cosmic.offloads_queued",
             stack_sum(counted, &R::offloads_queued), "count");
  report.add("phi.offloads_started", stack_sum(counted, &R::offloads_started),
             "count");
  // The per-link counters are named bytes_in/bytes_out but count MiB.
  report.add("phi.pcie_mib",
             counter_sum(counted, "phi.", ".pcie.bytes_in") +
                 counter_sum(counted, "phi.", ".pcie.bytes_out"),
             "MiB");
  report.add("obs.trace_overhead_frac",
             ratio(traced.run_s - plain.run_s, plain.run_s), "fraction");

  const std::size_t attempted = plain.jobs_submitted;
  const std::size_t failed =
      failures.empty() ? jobs_not_completed(plain) : attempted;
  report.print(failures.empty(), attempted, failed);
  return failures.empty() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  try {
    const Options o = parse_options(argc, argv);
    return o.trace ? traced_run(make_workload(o.workload, o.seed), o)
                   : timed_run(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
