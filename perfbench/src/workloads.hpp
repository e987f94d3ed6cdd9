// The benchmark's four workloads and the three ways one pass over a
// workload is driven: plain (timed, tracing off), traced (every
// Harness::step() timed and classified, every assign() call timed), and
// telemetry (ExperimentConfig::telemetry on, untimed, for the counters).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "cluster/experiment.hpp"
#include "cluster/service.hpp"
#include "spans.hpp"
#include "workload/jobspec.hpp"

namespace perfbench {

struct Workload {
  std::string name;
  std::uint64_t seed = 0;
  /// Seeds a timed run covers: --seed and derived_seed(--seed, k) for
  /// 0 < k < seeds_per_run. Averaging over several job sets keeps a run's
  /// figures from depending on one draw's luck.
  std::size_t seeds_per_run = 1;
  /// Closed workloads: the job-set generator and one config per stack,
  /// run in order, each on a fresh Harness with every job submitted at
  /// t = 0. Empty for the service workload.
  std::function<phisched::workload::JobSet()> make_jobs;
  std::vector<phisched::cluster::ExperimentConfig> stacks;
  /// service_long: the open-loop service instead of stacks.
  std::optional<phisched::cluster::ServiceConfig> service;
};

/// The workloads are table2, scale1k, service_long and fleet_batch
/// (perfbench/README.md); throws std::invalid_argument for any other name.
[[nodiscard]] Workload make_workload(const std::string& name,
                                     std::uint64_t seed);

/// The cluster configs a workload runs, in order (the service's one).
[[nodiscard]] std::vector<phisched::cluster::ExperimentConfig> stack_configs(
    const Workload& w);

/// The k-th extra seed a timed run derives from `seed` (k >= 1).
[[nodiscard]] std::uint64_t derived_seed(std::uint64_t seed, std::size_t k);

/// The workload's jobs: the closed job set, or the jobs of the service's
/// first 1,000 arrivals as its sampler draws them.
[[nodiscard]] phisched::workload::JobSet sample_jobs(const Workload& w);

enum class PassMode { kPlain, kTraced, kTelemetry };

/// Host time per layer, measured by a traced pass.
struct LayerTimes {
  double gen_s = 0.0;
  double build_s = 0.0;
  double submit_s = 0.0;
  std::vector<double> step_us;   ///< every Harness::step()
  /// Steps classified as negotiation cycles, one sample each.
  std::vector<double> cycle_ms;
  double cycle_step_s = 0.0;     ///< summed cycle steps (assign included)
  double event_step_s = 0.0;     ///< summed steps that ran no cycle
  std::vector<double> assign_ms;  ///< every AssignmentPolicy::assign call
  double assign_s = 0.0;
  std::uint64_t jobs_offered = 0;
  std::uint64_t jobs_assigned = 0;
  /// An assign() call inside a step not classified as a cycle.
  bool assign_outside_cycle = false;
  /// service_long: host time per arrival, last tenth over first tenth.
  double history_ratio = 0.0;
};

struct PassResult {
  std::vector<double> setup_s;  ///< one sample per setup repetition
  double run_s = 0.0;
  std::vector<double> stack_run_s;  ///< run_s split by stack, in order
  std::size_t jobs_submitted = 0;
  /// One result per stack in order; the service's drained cluster result.
  std::vector<phisched::cluster::ExperimentResult> stacks;
  /// Closed workloads: every completed job's wait, per stack.
  std::vector<std::vector<double>> waits;
  std::optional<phisched::cluster::ServiceResult> service;
  LayerTimes layers;  ///< filled by traced passes only
};

/// Runs one pass. Plain passes set up `setup_reps` times (timing each
/// set-up) and run the last one; the other modes set up once. Traced
/// passes record spans under `root` into `tracer`.
[[nodiscard]] PassResult run_pass(const Workload& w, PassMode mode,
                                  int setup_reps, Tracer* tracer = nullptr,
                                  std::int64_t root = -1);

/// Bit patterns of every simulated output of a pass, waits included:
/// equal fingerprints mean bit-identical simulations.
[[nodiscard]] std::vector<std::uint64_t> fingerprint(const PassResult& p);

/// The output checks; returns one message per failed check.
[[nodiscard]] std::vector<std::string> check_outputs(const Workload& w,
                                                     const PassResult& p);

/// Jobs of a pass that were submitted but did not complete.
[[nodiscard]] std::size_t jobs_not_completed(const PassResult& p);

}  // namespace perfbench
