#include "workloads.hpp"

#include <bit>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <utility>

#include "cluster/harness.hpp"
#include "condor/schedd.hpp"
#include "condor/strategy.hpp"
#include "core/policy.hpp"
#include "phi/capability.hpp"
#include "workload/arrivals.hpp"
#include "workload/jobset.hpp"
#include "workload/templates.hpp"

namespace perfbench {

namespace {

using phisched::Rng;
using phisched::cluster::ExperimentConfig;
using phisched::cluster::ExperimentResult;
using phisched::cluster::Harness;
using phisched::cluster::StackConfig;
namespace workload = phisched::workload;
namespace core = phisched::core;

constexpr std::size_t kPaperNodes = 8;
/// service_long: Poisson arrivals at 1.2x bench_service's capacity
/// estimate (8 nodes / 28.5 s mean serial job duration).
constexpr double kServiceRate = 1.2 * 8.0 / 28.5;
/// Long enough that host time per arrival visibly grows with history
/// (last tenth over first tenth >= 2 on seed 42).
constexpr double kServiceHorizonS = 20000.0;
constexpr std::size_t kServiceQueueDepth = 32;
/// fleet_batch: every other job is a streaming kernel, as in bench_hetero.
constexpr double kStreamingBw = 80000.0;

ExperimentConfig paper_config(StackConfig stack, std::size_t nodes,
                              std::uint64_t seed) {
  ExperimentConfig config;
  config.node_count = nodes;
  config.stack = stack;
  config.seed = seed;
  return config;
}

/// The Service's default job sampler (a uniform Table I template draw),
/// reproduced so the traced run can stamp each arrival around it.
workload::JobSpec sample_table1_job(phisched::JobId id, Rng& rng) {
  const auto& templates = workload::table1_templates();
  return templates[rng.index(templates.size())].sample(id, rng);
}

/// Decorator installed through ExperimentConfig::policy_factory: times
/// every call into the add-on's knapsack policy.
class TimedPolicy final : public core::AssignmentPolicy {
 public:
  struct Call {
    Clock::time_point start;
    Clock::time_point end;
  };
  struct Log {
    std::vector<Call> calls;
    std::uint64_t offered = 0;
    std::uint64_t assigned = 0;
  };

  TimedPolicy(std::unique_ptr<core::AssignmentPolicy> inner, Log& log)
      : inner_(std::move(inner)), log_(log) {}

  std::vector<core::Assignment> assign(
      const std::vector<core::PendingJobView>& pending,
      const std::vector<core::DeviceView>& devices) override {
    const auto start = Clock::now();
    auto out = inner_->assign(pending, devices);
    log_.calls.push_back(Call{start, Clock::now()});
    log_.offered += pending.size();
    log_.assigned += out.size();
    return out;
  }

  [[nodiscard]] std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<core::AssignmentPolicy> inner_;
  Log& log_;
};

void install_timed_policy(ExperimentConfig& config, TimedPolicy::Log& log) {
  if (config.stack != StackConfig::kMCCK) return;
  const core::KnapsackPolicyConfig knapsack = config.knapsack;
  config.policy_factory = [knapsack, &log] {
    return std::make_unique<TimedPolicy>(core::make_knapsack_policy(knapsack),
                                         log);
  };
}

/// Adds the assign calls logged since `from` as spans under `parent` and
/// to the layer totals; returns the new log position.
std::size_t drain_assign_calls(const TimedPolicy::Log& log, std::size_t from,
                               std::int64_t parent, Tracer& tracer,
                               LayerTimes& layers) {
  for (std::size_t i = from; i < log.calls.size(); ++i) {
    const auto& call = log.calls[i];
    tracer.add("core.assign", parent, call.start, call.end);
    const double s = seconds_between(call.start, call.end);
    layers.assign_ms.push_back(s * 1e3);
    layers.assign_s += s;
  }
  return log.calls.size();
}

const char* stack_label(const ExperimentConfig& config) {
  return phisched::cluster::stack_config_name(config.stack);
}

/// Drives a harness one step at a time. The periodic negotiator is the
/// only event on the negotiation_interval grid, so the first step at each
/// multiple of the interval is the one that ran a cycle.
ExperimentResult run_traced(Harness& harness, const std::string& stack,
                            std::int64_t root, Tracer& tracer,
                            TimedPolicy::Log& log, LayerTimes& layers) {
  const double interval = harness.config().negotiation_interval;
  const std::int64_t run_span = tracer.open("cluster.run:" + stack, root);
  std::size_t drained = log.calls.size();
  double last_cycle_time = -1.0;
  while (true) {
    const auto t0 = Clock::now();
    const bool stepped = harness.step();
    const auto t1 = Clock::now();
    if (!stepped) break;
    const double dt = seconds_between(t0, t1);
    layers.step_us.push_back(dt * 1e6);
    const double now = harness.now();
    if (std::fmod(now, interval) == 0.0 && now != last_cycle_time) {
      last_cycle_time = now;
      layers.cycle_ms.push_back(dt * 1e3);
      layers.cycle_step_s += dt;
      const std::int64_t cycle = tracer.add("condor.cycle", run_span, t0, t1);
      drained = drain_assign_calls(log, drained, cycle, tracer, layers);
    } else {
      layers.event_step_s += dt;
      if (log.calls.size() != drained) {
        layers.assign_outside_cycle = true;
        drained = drain_assign_calls(log, drained, run_span, tracer, layers);
      }
    }
  }
  tracer.close(run_span);
  return harness.result();
}

PassResult run_closed_pass(const Workload& w, PassMode mode, int setup_reps,
                           Tracer* tracer, std::int64_t root) {
  PassResult p;
  TimedPolicy::Log log;
  std::vector<ExperimentConfig> configs = w.stacks;
  for (ExperimentConfig& config : configs) {
    if (mode == PassMode::kTelemetry) config.telemetry = true;
    if (mode == PassMode::kTraced) install_timed_policy(config, log);
  }

  std::vector<std::unique_ptr<Harness>> harnesses;
  p.waits.assign(configs.size(), {});
  for (int rep = 0; rep < setup_reps; ++rep) {
    harnesses.clear();
    for (auto& waits : p.waits) waits.clear();
    const auto t_gen = Clock::now();
    const workload::JobSet jobs = w.make_jobs();
    const auto t_gen_end = Clock::now();
    p.layers.gen_s = seconds_between(t_gen, t_gen_end);
    double setup = p.layers.gen_s;
    if (tracer != nullptr) tracer->add("workload.gen", root, t_gen, t_gen_end);
    for (std::size_t s = 0; s < configs.size(); ++s) {
      const auto t0 = Clock::now();
      auto harness = std::make_unique<Harness>(configs[s]);
      const auto t1 = Clock::now();
      std::vector<double>& waits = p.waits[s];
      harness->set_terminal_observer(
          [&waits](const phisched::condor::JobRecord& rec) {
            if (rec.state == phisched::condor::JobState::kCompleted) {
              waits.push_back(rec.start_time - rec.submit_time);
            }
          });
      harness->submit(jobs);
      const auto t2 = Clock::now();
      setup += seconds_between(t0, t2);
      p.layers.build_s += seconds_between(t0, t1);
      p.layers.submit_s += seconds_between(t1, t2);
      if (tracer != nullptr) {
        const std::string stack = stack_label(configs[s]);
        tracer->add("cluster.build:" + stack, root, t0, t1);
        tracer->add("cluster.submit:" + stack, root, t1, t2);
      }
      harnesses.push_back(std::move(harness));
    }
    p.setup_s.push_back(setup);
  }

  for (std::size_t s = 0; s < harnesses.size(); ++s) {
    Harness& harness = *harnesses[s];
    p.jobs_submitted += harness.jobs_submitted();
    const auto t0 = Clock::now();
    if (mode == PassMode::kTraced) {
      p.stacks.push_back(run_traced(harness, stack_label(configs[s]), root,
                                    *tracer, log, p.layers));
    } else {
      p.stacks.push_back(harness.run_to_completion());
    }
    p.stack_run_s.push_back(seconds_between(t0, Clock::now()));
    p.run_s += p.stack_run_s.back();
  }
  p.layers.jobs_offered = log.offered;
  p.layers.jobs_assigned = log.assigned;
  return p;
}

PassResult run_service_pass(const Workload& w, PassMode mode, int setup_reps,
                            Tracer* tracer, std::int64_t root) {
  PassResult p;
  TimedPolicy::Log log;
  std::vector<Clock::time_point> arrivals;
  phisched::cluster::ServiceConfig config = *w.service;
  if (mode == PassMode::kTelemetry) config.cluster.telemetry = true;
  if (mode == PassMode::kTraced) {
    install_timed_policy(config.cluster, log);
    config.job_factory = [&arrivals](phisched::JobId id, Rng& rng) {
      arrivals.push_back(Clock::now());
      return sample_table1_job(id, rng);
    };
  }

  if (tracer != nullptr) {
    // The service draws its arrivals and jobs inside run(); generating the
    // same streams up front measures the workload layer's share of it.
    const auto t0 = Clock::now();
    auto stream = workload::make_arrival_stream(
        config.arrivals, Rng(config.cluster.seed).child("service.arrivals"));
    Rng job_rng = Rng(config.cluster.seed).child("service.jobs");
    phisched::JobId id = 0;
    for (auto t = stream->next(); t.has_value() && *t < config.horizon_s;
         t = stream->next()) {
      sample_table1_job(id++, job_rng);
    }
    const auto t1 = Clock::now();
    tracer->add("workload.gen", root, t0, t1);
    p.layers.gen_s = seconds_between(t0, t1);
  }

  std::unique_ptr<phisched::cluster::Service> service;
  for (int rep = 0; rep < setup_reps; ++rep) {
    service.reset();
    const auto t0 = Clock::now();
    service = std::make_unique<phisched::cluster::Service>(config);
    const auto t1 = Clock::now();
    p.setup_s.push_back(seconds_between(t0, t1));
    p.layers.build_s = seconds_between(t0, t1);
    if (tracer != nullptr) tracer->add("cluster.build:service", root, t0, t1);
  }

  const std::int64_t run_span =
      tracer != nullptr ? tracer->open("cluster.run:service", root) : -1;
  const auto t0 = Clock::now();
  p.service = service->run();
  p.run_s = seconds_between(t0, Clock::now());
  p.stack_run_s.push_back(p.run_s);
  if (tracer != nullptr) {
    tracer->close(run_span);
    drain_assign_calls(log, 0, run_span, *tracer, p.layers);
  }
  p.stacks.push_back(p.service->cluster);
  p.jobs_submitted = p.service->jobs_admitted;
  p.layers.jobs_offered = log.offered;
  p.layers.jobs_assigned = log.assigned;

  const std::size_t tenth = arrivals.size() / 10;
  if (tenth > 0) {
    const double first = seconds_between(arrivals[0], arrivals[tenth]);
    const double last = seconds_between(arrivals[arrivals.size() - 1 - tenth],
                                        arrivals.back());
    p.layers.history_ratio = first > 0.0 ? last / first : 0.0;
  }
  return p;
}

void push_bits(std::vector<std::uint64_t>& out, double v) {
  out.push_back(std::bit_cast<std::uint64_t>(v));
}

}  // namespace

Workload make_workload(const std::string& name, std::uint64_t seed) {
  Workload w;
  w.name = name;
  w.seed = seed;
  const Rng jobs_rng = Rng(seed).child("jobs");
  if (name == "table2") {
    w.seeds_per_run = 2;
    w.make_jobs = [jobs_rng] {
      return workload::make_real_jobset(1000, jobs_rng);
    };
    for (const StackConfig stack :
         {StackConfig::kMC, StackConfig::kMCC, StackConfig::kMCCK}) {
      w.stacks.push_back(paper_config(stack, kPaperNodes, seed));
    }
  } else if (name == "scale1k") {
    w.seeds_per_run = 3;
    w.make_jobs = [jobs_rng] {
      return workload::make_synthetic_jobset(workload::Distribution::kUniform,
                                             2000, jobs_rng);
    };
    w.stacks.push_back(paper_config(StackConfig::kMCCK, 1000, seed));
  } else if (name == "service_long") {
    w.seeds_per_run = 4;
    phisched::cluster::ServiceConfig config;
    config.cluster = paper_config(StackConfig::kMCCK, kPaperNodes, seed);
    config.arrivals.kind = workload::ArrivalKind::kPoisson;
    config.arrivals.rate = kServiceRate;
    config.horizon_s = kServiceHorizonS;
    config.window_s = kServiceHorizonS / 10.0;
    config.admission.max_queue_depth = kServiceQueueDepth;
    w.service = config;
  } else if (name == "fleet_batch") {
    w.seeds_per_run = 3;
    w.make_jobs = [jobs_rng] {
      workload::JobSet jobs = workload::make_real_jobset(1000, jobs_rng);
      for (std::size_t i = 0; i < jobs.size(); i += 2) {
        jobs[i].mem_bw_mib_s = kStreamingBw;
      }
      return jobs;
    };
    ExperimentConfig config = paper_config(StackConfig::kMCC, 16, seed);
    config.devices = phisched::phi::parse_device_spec("2x5110P+2x7120P");
    config.pcie.contention = true;
    config.pcie_switch.enabled = true;
    config.mem_bw.contention = true;
    config.negotiation = phisched::condor::parse_negotiation("batch");
    w.stacks.push_back(config);
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return w;
}

std::vector<ExperimentConfig> stack_configs(const Workload& w) {
  if (w.service.has_value()) return {w.service->cluster};
  return w.stacks;
}

std::uint64_t derived_seed(std::uint64_t seed, std::size_t k) {
  return Rng(seed).child("perfbench.seed" + std::to_string(k)).seed();
}

workload::JobSet sample_jobs(const Workload& w) {
  if (w.make_jobs) return w.make_jobs();
  Rng rng = Rng(w.seed).child("service.jobs");
  workload::JobSet jobs;
  for (phisched::JobId id = 0; id < 1000; ++id) {
    jobs.push_back(sample_table1_job(id, rng));
  }
  return jobs;
}

PassResult run_pass(const Workload& w, PassMode mode, int setup_reps,
                    Tracer* tracer, std::int64_t root) {
  if (mode != PassMode::kPlain) setup_reps = 1;
  return w.service.has_value()
             ? run_service_pass(w, mode, setup_reps, tracer, root)
             : run_closed_pass(w, mode, setup_reps, tracer, root);
}

std::vector<std::uint64_t> fingerprint(const PassResult& p) {
  std::vector<std::uint64_t> out;
  for (const ExperimentResult& r : p.stacks) {
    for (const double v : {r.makespan, r.avg_core_utilization,
                           r.device_energy_mj, r.mean_turnaround}) {
      push_bits(out, v);
    }
    for (const double u : r.per_device_utilization) push_bits(out, u);
    out.insert(out.end(),
               {r.jobs_completed, r.jobs_failed, r.job_retries,
                r.negotiation_cycles, r.matches, r.offloads_started,
                r.offloads_queued, r.oom_kills, r.container_kills,
                r.addon_pins, r.events_processed});
  }
  for (const auto& waits : p.waits) {
    for (const double v : waits) push_bits(out, v);
  }
  if (p.service.has_value()) {
    const auto& a = p.service->admission;
    out.insert(out.end(), {a.offered, a.admitted, a.rejected_queue,
                           a.rejected_occupancy, a.deferred, a.dropped,
                           p.service->jobs_generated, p.service->jobs_admitted});
    for (const auto& window : p.service->windows) {
      for (const auto& [key, value] : window.metrics) push_bits(out, value);
    }
  }
  return out;
}

std::size_t jobs_not_completed(const PassResult& p) {
  std::size_t completed = 0;
  for (const ExperimentResult& r : p.stacks) completed += r.jobs_completed;
  return p.jobs_submitted > completed ? p.jobs_submitted - completed : 0;
}

std::vector<std::string> check_outputs(const Workload& w,
                                       const PassResult& p) {
  std::vector<std::string> failures;
  std::size_t terminal = 0;
  for (const ExperimentResult& r : p.stacks) {
    terminal += r.jobs_completed + r.jobs_failed;
  }
  if (terminal != p.jobs_submitted) {
    failures.push_back("completed + failed != submitted (" +
                       std::to_string(terminal) + " vs " +
                       std::to_string(p.jobs_submitted) + ")");
  }
  if (p.service.has_value()) {
    const auto& s = *p.service;
    const auto& a = s.admission;
    if (a.offered != a.admitted + a.rejected_total() + a.deferred) {
      failures.push_back("service: offered != admitted + rejected + deferred");
    }
    if (s.jobs_generated != s.jobs_admitted + a.rejected_total()) {
      failures.push_back("service: a deferred arrival was never resolved");
    }
    if (!s.drained) failures.push_back("service: run did not drain");
  }
  if (w.name == "table2") {
    const double mc = p.stacks[0].makespan;
    const double mcc = p.stacks[1].makespan;
    const double mcck = p.stacks[2].makespan;
    if (!(mc > mcc && mcc > mcck)) {
      failures.push_back("table2: makespan ordering MC > MCC > MCCK broken");
    }
  }
  return failures;
}

}  // namespace perfbench
