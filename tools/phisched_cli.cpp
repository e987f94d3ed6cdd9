// phisched_cli — run sharing-aware scheduling experiments from the
// command line.
//
// Examples:
//   phisched_cli --compare --jobs 1000 --nodes 8
//   phisched_cli --stack MCCK --workload normal --jobs 400 --series
//   phisched_cli --stack MCC --arrival-rate 2.0 --csv out.csv
//   phisched_cli --help
#include <cstdio>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "cluster/harness.hpp"
#include "cluster/report.hpp"
#include "cluster/service.hpp"
#include "common/args.hpp"
#include "common/json.hpp"
#include "common/sparkline.hpp"
#include "obs/recorder.hpp"
#include "phi/capability.hpp"
#include "workload/arrivals.hpp"
#include "workload/io.hpp"
#include "workload/jobset.hpp"
#include "workload/synthetic.hpp"
#include "workload/templates.hpp"

namespace {

using namespace phisched;

constexpr const char* kUsage = R"(phisched_cli — Xeon Phi sharing-aware scheduler simulator

options:
  --stack NAME          MC | MCC | MCCK | firstfit | bestfit | oracle
                        (default MCCK; ignored with --compare)
  --compare             run MC, MCC and MCCK side by side
  --workload NAME       real | uniform | normal | lowskew | highskew
                        (default real)
  --jobs N              job count, at least 1 (default 1000)
  --nodes N             cluster size (default 8)
  --devices SPEC        Xeon Phi cards per node: a count N of 5110Ps
                        (default 1; N is Nx5110P) or a fleet spec like
                        2x5110P+1x7120P (generations 3120A | 5110P |
                        7120P; at most 64 cards; see
                        docs/heterogeneity.md)
  --mem-bw-contention   enable the per-card memory-bandwidth contention
                        model: resident jobs' declared shares past the
                        saturation budget slow the card, and MCCK
                        placement becomes interference-aware (off by
                        default so calibrated outputs reproduce
                        bit-identically)
  --mem-bw-saturation X fraction of a card's aggregate memory bandwidth
                        usable before contention kicks in (default 0.5;
                        only meaningful with --mem-bw-contention)
  --seed N              experiment + workload seed (default 42)
  --arrival-rate R      Poisson arrivals at R > 0 jobs/s instead of a batch
  --negotiation-interval S   Condor cycle seconds (default 5)
  --negotiation SPEC    matchmaking strategy per cycle (default fifo):
                        fifo — the per-job FIFO walk
                        batch[:size=K,occ=X,occ-mem=X,packer=NAME] —
                        drain up to K pending jobs (default 16), pack
                        them jointly with the NAME knapsack backend
                        (greedy | dp1d | dp2d | bnb, default dp2d),
                        admitting only placements that keep declared
                        thread occupancy under X (default 0.9) and
                        memory occupancy under occ-mem (default 1.0)
  --overcommit X        MCCK thread overcommit factor (default 1.5)
  --series              print a utilization sparkline (samples every 10 s)
  --csv PATH            append results as CSV to PATH
  --metrics-out PATH    record full telemetry; write the flattened metrics
                        of every run as JSON to PATH
  --events-out PATH     record full telemetry; write the structured event
                        logs (sim-time ordered) as JSON to PATH
  --metrics-filter P[,P...]  keep only metrics whose dotted name — and
                        events whose type or identity field value —
                        starts with one of the comma-separated prefixes
                        (needs --metrics-out or --events-out)
  --pcie-contention     enable the per-device PCIe link contention model
                        (phi::PcieLink; off by default so calibrated
                        outputs reproduce bit-identically)
  --pcie-bandwidth R    every card's PCIe link bandwidth in MiB/s, on
                        any --devices fleet (default 6144; only
                        meaningful with --pcie-contention)
  --pcie-switch         route each node's card links through a shared
                        host-side PCIe switch (phi::PcieSwitch,
                        hierarchical contention; implies
                        --pcie-contention)
  --pcie-switch-bandwidth R  switch uplink bandwidth in MiB/s (default
                        12288 = 2 cards' worth; only meaningful with
                        --pcie-switch)
  --save-jobs PATH      write the generated job set to PATH and exit
  --load-jobs PATH      run on a job set loaded from PATH (see workload/io.hpp)
  --help                this text

service mode (open-loop streaming arrivals, see docs/service.md):
  --serve               run as a long-lived service instead of a batch:
                        jobs stream in from --arrivals, admission control
                        sheds load, SLA percentiles export per window
  --arrivals SPEC       arrival process (default poisson:rate=1.0):
                        poisson:rate=R
                        bursty:rate_on=R,rate_off=R,mean_on=S,mean_off=S
                        diurnal:base=R,peak=R,period=S
                        trace:file=PATH[,scale=X]
  --horizon S           generate arrivals for S simulated seconds
                        (default 600)
  --sla-interval S      SLA export window length (default 60)
  --sla-out PATH        write the windowed SLA report as JSON to PATH
                        (bench-report shaped; tools/bench_diff reads it)
  --admit-queue N       reject/defer arrivals when the pending queue
                        holds N jobs (default 0 = unbounded)
  --admit-occupancy X   reject/defer arrivals pushing declared-thread
                        occupancy past fraction X (default 0 = unbounded)
  --admit-defer S       defer gated arrivals S seconds instead of
                        rejecting outright (default 0 = reject)
  --admit-max-defers N  defers per job before it is dropped (default 3)
  --admit-pack          before an occupancy rejection, check each device's
                        free memory and threads: admit anyway when one can
                        take the job (default off; scalar occupancy cannot
                        see per-device fragmentation)
  --tenants N           attribute each arrival to one of N tenants
                        (default 1); each SLA window carries
                        fairness_jain, Jain's index over the tenants'
                        mean slowdowns
  --tenant-skew X       tenant k draws with weight (k+1)^-X (default 0)
  --no-drain            stop at the horizon instead of draining admitted
                        jobs to completion
  In service mode --jobs caps generated arrivals (default 0 = unbounded)
  and --workload picks the per-arrival job mix. The batch-only options
  (--compare, --arrival-rate, --series, --csv, --save-jobs, --load-jobs,
  --metrics-out, --events-out, --metrics-filter) exit 2 with --serve, and
  the service options exit 2 without it.
)";

cluster::StackConfig parse_stack(const std::string& name) {
  if (name == "MC" || name == "mc") return cluster::StackConfig::kMC;
  if (name == "MCC" || name == "mcc") return cluster::StackConfig::kMCC;
  if (name == "MCCK" || name == "mcck") return cluster::StackConfig::kMCCK;
  if (name == "firstfit") return cluster::StackConfig::kMCCFirstFit;
  if (name == "bestfit") return cluster::StackConfig::kMCCBestFit;
  if (name == "oracle") return cluster::StackConfig::kMCCOracle;
  throw std::invalid_argument("unknown --stack '" + name + "'");
}

/// "a,b,c" → {"a","b","c"}; empty tokens (and an empty input) drop out.
std::vector<std::string> split_csv(const std::string& csv) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= csv.size()) {
    const std::size_t comma = csv.find(',', start);
    const std::size_t end = comma == std::string::npos ? csv.size() : comma;
    if (end > start) out.push_back(csv.substr(start, end - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

workload::JobSet make_jobs(const std::string& name, std::size_t count,
                           std::uint64_t seed) {
  const Rng rng = Rng(seed).child("jobs");
  if (name == "real") return workload::make_real_jobset(count, rng);
  if (name == "uniform") {
    return workload::make_synthetic_jobset(workload::Distribution::kUniform,
                                           count, rng);
  }
  if (name == "normal") {
    return workload::make_synthetic_jobset(workload::Distribution::kNormal,
                                           count, rng);
  }
  if (name == "lowskew") {
    return workload::make_synthetic_jobset(workload::Distribution::kLowSkew,
                                           count, rng);
  }
  if (name == "highskew") {
    return workload::make_synthetic_jobset(workload::Distribution::kHighSkew,
                                           count, rng);
  }
  throw std::invalid_argument("unknown --workload '" + name + "'");
}

/// A count option in [0, max], checked before the caller casts it: a
/// negative value would wrap to a huge size_t, and one past `max` would
/// not fit the narrower type.
std::int64_t count_arg(
    const ArgParser& args, const std::string& name, std::int64_t fallback,
    std::int64_t max = std::numeric_limits<std::int64_t>::max()) {
  const std::int64_t value = args.get_int_or(name, fallback);
  if (value < 0 || value > max) {
    throw std::invalid_argument("--" + name + " wants a count in [0, " +
                                std::to_string(max) + "], got " +
                                std::to_string(value));
  }
  return value;
}

constexpr std::int64_t kIntMax = std::numeric_limits<int>::max();

/// The cluster knobs shared by batch and service mode.
cluster::ExperimentConfig cluster_config_from_args(const ArgParser& args,
                                                   std::uint64_t seed) {
  cluster::ExperimentConfig config;
  config.node_count = static_cast<std::size_t>(count_arg(args, "nodes", 8));
  config.devices = phi::parse_device_spec(args.get_or("devices", "1"));
  config.mem_bw.contention = args.get_bool_or("mem-bw-contention", false);
  config.mem_bw.saturation =
      args.get_real_or("mem-bw-saturation", config.mem_bw.saturation);
  config.seed = seed;
  config.negotiation_interval = args.get_real_or("negotiation-interval", 5.0);
  config.negotiation =
      condor::parse_negotiation(args.get_or("negotiation", "fifo"));
  config.addon.thread_overcommit = args.get_real_or("overcommit", 1.5);
  if (args.get_bool_or("series", false)) config.sample_interval = 10.0;

  config.pcie.contention = args.get_bool_or("pcie-contention", false);
  config.pcie.bandwidth_mib_s =
      args.get_real_or("pcie-bandwidth", config.pcie.bandwidth_mib_s);
  config.pcie_switch.enabled = args.get_bool_or("pcie-switch", false);
  if (config.pcie_switch.enabled) config.pcie.contention = true;
  config.pcie_switch.bandwidth_mib_s = args.get_real_or(
      "pcie-switch-bandwidth", config.pcie_switch.bandwidth_mib_s);
  return config;
}

/// Per-arrival job sampler for --serve: the Table I mix for "real"
/// (the Service's default), a Fig. 7 synthetic distribution otherwise.
std::function<workload::JobSpec(JobId, Rng&)> make_job_factory(
    const std::string& name) {
  if (name == "real") return {};
  workload::SyntheticConfig config;
  if (name == "uniform") {
    config.distribution = workload::Distribution::kUniform;
  } else if (name == "normal") {
    config.distribution = workload::Distribution::kNormal;
  } else if (name == "lowskew") {
    config.distribution = workload::Distribution::kLowSkew;
  } else if (name == "highskew") {
    config.distribution = workload::Distribution::kHighSkew;
  } else {
    throw std::invalid_argument("unknown --workload '" + name + "'");
  }
  return [config](JobId id, Rng& rng) {
    return workload::sample_synthetic_job(config, id, rng);
  };
}

int run_serve(const ArgParser& args, std::uint64_t seed,
              const std::string& workload_name) {
  cluster::ServiceConfig config;
  config.cluster = cluster_config_from_args(args, seed);
  config.cluster.stack = parse_stack(args.get_or("stack", "MCCK"));
  config.arrivals =
      workload::ArrivalSpec::parse(args.get_or("arrivals", "poisson:rate=1.0"));
  config.horizon_s = args.get_real_or("horizon", 600.0);
  config.window_s = args.get_real_or("sla-interval", 60.0);
  config.drain = !args.get_bool_or("no-drain", false);
  config.max_jobs = static_cast<std::size_t>(count_arg(args, "jobs", 0));
  config.tenants = static_cast<std::size_t>(count_arg(args, "tenants", 1));
  config.tenant_skew = args.get_real_or("tenant-skew", 0.0);
  config.admission.max_queue_depth =
      static_cast<std::size_t>(count_arg(args, "admit-queue", 0));
  config.admission.max_occupancy = args.get_real_or("admit-occupancy", 0.0);
  config.admission.defer_delay_s = args.get_real_or("admit-defer", 0.0);
  config.admission.max_defers =
      static_cast<int>(count_arg(args, "admit-max-defers", 3, kIntMax));
  config.admission.consult_packer = args.get_bool_or("admit-pack", false);
  config.job_factory = make_job_factory(workload_name);

  cluster::Service service(config);
  const cluster::ServiceResult result = service.run();

  std::printf("service: %s, %s jobs on %zu nodes, horizon %.0f s "
              "(seed %llu)\n\n",
              config.arrivals.to_string().c_str(), workload_name.c_str(),
              config.cluster.node_count, config.horizon_s,
              static_cast<unsigned long long>(seed));
  std::printf("%8s %8s %8s %8s %8s %10s %12s\n", "window", "offered",
              "admitted", "rejected", "queue", "p99 wait", "p99 turn");
  for (const auto& window : result.windows) {
    const auto& m = window.metrics;
    const auto get = [&m](const char* key) {
      const auto it = m.find(key);
      return it == m.end() ? 0.0 : it->second;
    };
    std::printf("%8zu %8.0f %8.0f %8.0f %8.0f %9.2fs %11.2fs\n", window.index,
                get("offered"), get("admitted"), get("rejected_total"),
                get("queue_depth"), get("p99_wait_s"),
                get("p99_turnaround_s"));
  }
  std::printf("\ngenerated %zu, admitted %llu, rejected %llu "
              "(queue %llu, occupancy %llu, unfit %llu, dropped %llu), "
              "deferrals %llu\n",
              result.jobs_generated,
              static_cast<unsigned long long>(result.admission.admitted),
              static_cast<unsigned long long>(
                  result.admission.rejected_total()),
              static_cast<unsigned long long>(result.admission.rejected_queue),
              static_cast<unsigned long long>(
                  result.admission.rejected_occupancy),
              static_cast<unsigned long long>(result.admission.rejected_unfit),
              static_cast<unsigned long long>(result.admission.dropped),
              static_cast<unsigned long long>(result.admission.deferred));
  std::printf("completed %zu, failed %zu, %s at t=%.1f s\n",
              result.cluster.jobs_completed, result.cluster.jobs_failed,
              result.drained ? "drained" : "stopped (not drained)",
              result.cluster.makespan);

  if (const auto path = args.get("sla-out"); path.has_value()) {
    std::ofstream out(*path, std::ios::binary | std::ios::trunc);
    if (out) out << cluster::sla_report_json(config, result) << '\n';
    if (!out || !out.good()) {
      std::fprintf(stderr, "failed to write %s\n", path->c_str());
      return 1;
    }
    std::printf("\nwrote %s\n", path->c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const ArgParser args(argc, argv);
    if (args.has("help")) {
      std::printf("%s", kUsage);
      return 0;
    }
    const std::vector<std::string> shared = {
        "stack", "workload", "jobs", "nodes", "devices", "seed",
        "negotiation-interval", "negotiation", "overcommit",
        "mem-bw-contention", "mem-bw-saturation", "pcie-contention",
        "pcie-bandwidth", "pcie-switch", "pcie-switch-bandwidth", "serve",
        "help"};
    const std::vector<std::string> batch_only = {
        "compare", "arrival-rate", "series", "csv", "save-jobs", "load-jobs",
        "metrics-out", "events-out", "metrics-filter"};
    const std::vector<std::string> serve_only = {
        "arrivals", "horizon", "sla-interval", "sla-out", "admit-queue",
        "admit-occupancy", "admit-defer", "admit-max-defers", "admit-pack",
        "tenants", "tenant-skew", "no-drain"};
    std::vector<std::string> known = shared;
    known.insert(known.end(), batch_only.begin(), batch_only.end());
    known.insert(known.end(), serve_only.begin(), serve_only.end());
    if (const auto unknown = args.unknown(known); !unknown.empty()) {
      std::fprintf(stderr, "unknown option --%s (try --help)\n",
                   unknown.front().c_str());
      return 2;
    }
    // An option of the other mode would be silently ignored.
    const bool serve = args.get_bool_or("serve", false);
    for (const std::string& name : serve ? batch_only : serve_only) {
      if (!args.has(name)) continue;
      std::fprintf(stderr,
                   serve ? "option --%s is for batch mode, not --serve "
                           "(try --help)\n"
                         : "option --%s is for service mode; add --serve "
                           "(try --help)\n",
                   name.c_str());
      return 2;
    }

    const auto seed = static_cast<std::uint64_t>(args.get_int_or("seed", 42));
    const std::string workload_name = args.get_or("workload", "real");
    if (serve) return run_serve(args, seed, workload_name);
    const auto job_count =
        static_cast<std::size_t>(count_arg(args, "jobs", 1000));
    // Either option at a value that changes nothing would run the plain
    // batch as if it were absent.
    const double rate = args.get_real_or("arrival-rate", 0.0);
    if (args.has("arrival-rate") && !(rate > 0.0)) {
      throw std::invalid_argument(
          "--arrival-rate wants a positive rate in jobs/s, got " +
          args.get_or("arrival-rate", ""));
    }
    if (args.has("metrics-filter") && !args.has("metrics-out") &&
        !args.has("events-out")) {
      throw std::invalid_argument(
          "--metrics-filter narrows --metrics-out and --events-out; "
          "give one of them");
    }

    // A batch run needs a job: with none, the comparison has no baseline.
    workload::JobSet jobs;
    if (const auto path = args.get("load-jobs"); path.has_value()) {
      jobs = workload::load_jobset(*path);
      if (jobs.empty()) {
        throw std::invalid_argument("--load-jobs " + *path + " holds no jobs");
      }
      std::printf("loaded %zu jobs from %s\n", jobs.size(), path->c_str());
    } else {
      if (job_count == 0) {
        throw std::invalid_argument(
            "--jobs 0 runs no jobs (0 means unbounded only with --serve)");
      }
      jobs = make_jobs(workload_name, job_count, seed);
    }
    if (const auto path = args.get("save-jobs"); path.has_value()) {
      if (!workload::save_jobset(jobs, *path)) {
        std::fprintf(stderr, "failed to write %s\n", path->c_str());
        return 1;
      }
      std::printf("wrote %zu jobs to %s\n", jobs.size(), path->c_str());
      return 0;
    }
    if (rate > 0.0) {
      Rng arrivals = Rng(seed).child("arrivals");
      SimTime t = 0.0;
      for (auto& job : jobs) {
        t += arrivals.exponential(rate);
        job.submit_time = t;
      }
    }

    cluster::ExperimentConfig config = cluster_config_from_args(args, seed);

    const auto metrics_path = args.get("metrics-out");
    const auto events_path = args.get("events-out");
    config.telemetry = metrics_path.has_value() || events_path.has_value();
    const std::vector<std::string> metric_filters =
        split_csv(args.get_or("metrics-filter", ""));

    const auto run_stack = [&jobs](const cluster::ExperimentConfig& cfg) {
      cluster::Harness harness(cfg);
      harness.submit(jobs);
      return harness.run_to_completion();
    };

    std::vector<cluster::NamedResult> results;
    if (args.get_bool_or("compare", false)) {
      for (const auto stack :
           {cluster::StackConfig::kMC, cluster::StackConfig::kMCC,
            cluster::StackConfig::kMCCK}) {
        config.stack = stack;
        results.push_back(
            {cluster::stack_config_name(stack), run_stack(config)});
      }
      std::printf("%zu %s jobs on %zu nodes (seed %llu)\n\n", jobs.size(),
                  workload_name.c_str(), config.node_count,
                  static_cast<unsigned long long>(seed));
      std::printf("%s", cluster::comparison_table(results).to_string().c_str());
    } else {
      config.stack = parse_stack(args.get_or("stack", "MCCK"));
      results.push_back(
          {cluster::stack_config_name(config.stack), run_stack(config)});
      std::printf("%s on %zu %s jobs, %zu nodes (seed %llu)\n\n",
                  results[0].name.c_str(), jobs.size(), workload_name.c_str(),
                  config.node_count, static_cast<unsigned long long>(seed));
      std::printf("%s", cluster::format_result(results[0].result).c_str());
    }

    if (args.get_bool_or("series", false)) {
      for (const auto& named : results) {
        std::vector<double> series;
        series.reserve(named.result.utilization_series.size());
        for (const auto& [t, u] : named.result.utilization_series) {
          series.push_back(u);
        }
        std::printf("\n%-5s busy cores |%s| 0..100%%\n", named.name.c_str(),
                    sparkline(series, 0.0, 1.0, 70).c_str());
      }
    }

    if (const auto path = args.get("csv"); path.has_value()) {
      const CsvWriter csv = cluster::results_csv(results);
      if (!csv.write_file(*path)) {
        std::fprintf(stderr, "failed to write %s\n", path->c_str());
        return 1;
      }
      std::printf("\nwrote %s\n", path->c_str());
    }

    // Telemetry exports: one document each, with a "runs" array so
    // --compare keeps the per-stack snapshots side by side.
    auto write_runs = [&results](const std::string& path,
                                 const char* section,
                                 const auto& render) {
      JsonWriter w(/*pretty=*/true);
      w.begin_object();
      w.key("runs");
      w.begin_array();
      for (const auto& named : results) {
        w.begin_object();
        w.member("name", named.name);
        w.key(section);
        w.raw(render(named));
        w.end_object();
      }
      w.end_array();
      w.end_object();
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      if (!out) return false;
      out << std::move(w).str() << '\n';
      return out.good();
    };
    if (metrics_path.has_value()) {
      const bool ok =
          write_runs(*metrics_path, "metrics", [&](const auto& named) {
            return obs::metrics_json(obs::filter_metrics(
                named.result.telemetry->metrics, metric_filters));
          });
      if (!ok) {
        std::fprintf(stderr, "failed to write %s\n", metrics_path->c_str());
        return 1;
      }
      std::printf("\nwrote %s\n", metrics_path->c_str());
    }
    if (events_path.has_value()) {
      const bool ok = write_runs(*events_path, "events", [&](const auto& named) {
        return obs::events_json(obs::filter_events(
            named.result.telemetry->events, metric_filters));
      });
      if (!ok) {
        std::fprintf(stderr, "failed to write %s\n", events_path->c_str());
        return 1;
      }
      std::printf("\nwrote %s\n", events_path->c_str());
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
