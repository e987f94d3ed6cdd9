// End-to-end experiment driver: assembles the full stack (devices,
// COSMIC, mini-Condor, optional sharing-aware add-on), runs a job set to
// completion, and reports the metrics the paper evaluates — makespan and
// cluster-wide core utilization.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "common/types.hpp"
#include "condor/strategy.hpp"
#include "core/addon.hpp"
#include "cosmic/middleware.hpp"
#include "core/policy.hpp"
#include "obs/recorder.hpp"
#include "phi/capability.hpp"
#include "phi/pcie.hpp"
#include "phi/pcie_switch.hpp"
#include "workload/jobspec.hpp"

namespace phisched::cluster {

/// The cluster software configurations of Section V (plus ablations).
enum class StackConfig {
  kMC,            ///< MPSS + Condor: exclusive device allocation
  kMCC,           ///< + COSMIC: sharing with random cluster-level selection
  kMCCK,          ///< + knapsack cluster scheduler (the paper's system)
  kMCCFirstFit,   ///< ablation: add-on drives first-fit instead of knapsack
  kMCCBestFit,    ///< ablation: add-on drives best-fit instead of knapsack
  kMCCOracle,     ///< ablation: LPT with ground-truth execution times — an
                  ///< informed baseline the paper deems unrealistic
};

[[nodiscard]] const char* stack_config_name(StackConfig c);

struct ExperimentConfig {
  std::size_t node_count = 8;
  NodeHardware node_hw{};
  /// Each node's cards, one capability each (the --devices spec, e.g.
  /// parse_device_spec("2x5110P+2x7120P")); every node gets the same
  /// fleet. Defaults to the paper's one 5110P; an empty list is a
  /// precondition error.
  std::vector<phi::DeviceCapability> devices{phi::DeviceCapability{}};
  /// Per-device memory-bandwidth contention (phi/capability.hpp). Off by
  /// default so calibrated outputs stay bit-identical; when on, resident
  /// containers' declared bandwidth shares slow offloads past each
  /// card's saturation budget and placement becomes interference-aware.
  phi::MemBwConfig mem_bw{};
  StackConfig stack = StackConfig::kMCCK;

  /// Condor negotiation cycle (Section IV-D1: decisions wait for it).
  SimTime negotiation_interval = 5.0;
  /// Matchmaking strategy the negotiator runs each cycle: the default
  /// per-job FIFO walk, or the batched occupancy-aware pipeline
  /// (condor::parse_negotiation understands the CLI grammar).
  condor::NegotiationConfig negotiation{};
  /// Shadow/starter launch latency after a match.
  SimTime dispatch_latency = 0.5;
  /// Collector staleness: machine ads refresh only every this many
  /// seconds (Condor's UPDATE_INTERVAL). 0 = always fresh (default).
  SimTime ad_update_interval = 0.0;

  /// Knapsack policy knobs (MCCK only).
  core::KnapsackPolicyConfig knapsack{};
  core::AddonConfig addon{};
  /// Power-user hook: when set and stack == kMCCK, the add-on runs this
  /// policy instead of the knapsack — the way to plug a custom
  /// AssignmentPolicy into the full stack (see examples/custom_policy).
  std::function<std::unique_ptr<core::AssignmentPolicy>()> policy_factory;

  /// Device behaviour (oversubscription penalties etc.). The affinity
  /// policy is derived from `stack`: managed under COSMIC configs.
  double oversub_exponent = 3.0;
  double unmanaged_overlap_penalty = 0.15;
  double idle_spin_exponent = 0.35;

  /// COSMIC's per-device offload queue discipline.
  cosmic::DrainPolicy drain = cosmic::DrainPolicy::kFifoStrict;
  /// Resume cost paid by offloads that waited in the COSMIC queue.
  SimTime queued_resume_overhead = 0.5;
  /// Optional PCIe staging bandwidth (MiB/s) per node; 0 disables the
  /// explicit transfer model (the calibrated default — transfer cost is
  /// then implicit in offload durations).
  double pcie_bandwidth_mib_s = 0.0;
  /// Per-device PCIe link contention model (phi::PcieLink): off by
  /// default so all calibrated outputs reproduce bit-identically; when
  /// pcie.contention is set, offload input/output transfers share each
  /// card's link fair-share and concurrent containers contend. Mutually
  /// exclusive with pcie_bandwidth_mib_s.
  phi::PcieLinkConfig pcie{};
  /// Host-side PCIe switch shared by all of a node's cards
  /// (phi::PcieSwitch, hierarchical contention above the per-card
  /// links). Off by default; requires pcie.contention when enabled.
  phi::PcieSwitchConfig pcie_switch{};
  /// Failure-injection switch: run the sharing stacks WITHOUT COSMIC's
  /// memory containers, exposing lying jobs to the raw OOM killer.
  bool disable_containers_for_testing = false;

  /// Telemetry: when positive, sample the cluster-wide busy-core fraction
  /// every `sample_interval` simulated seconds into
  /// ExperimentResult::utilization_series.
  SimTime sample_interval = 0.0;

  /// Full observability: when true, every layer (devices, middleware,
  /// negotiator, schedd, cluster rollups) records into an obs::Recorder
  /// whose snapshot lands in ExperimentResult::telemetry. Off by default —
  /// the instrumented sites then cost one null check each.
  bool telemetry = false;

  /// On-failure retries: a job killed by COSMIC's container (or the OOM
  /// killer) is requeued up to this many times instead of failing.
  int max_retries = 0;
  /// Each retry multiplies the job's declared memory by this factor
  /// (clamped to the card), modelling a user or tooling reacting to the
  /// kill by raising the estimate. 1.0 retries with the same declaration.
  double retry_memory_boost = 2.0;

  std::uint64_t seed = 42;
};

struct ExperimentResult {
  SimTime makespan = 0.0;
  /// Mean busy-core fraction over [0, makespan], averaged over devices.
  double avg_core_utilization = 0.0;
  std::vector<double> per_device_utilization;

  std::size_t jobs_completed = 0;
  std::size_t jobs_failed = 0;
  std::size_t job_retries = 0;  ///< total requeues across all jobs

  /// Coprocessor energy over [0, makespan], megajoules (all devices).
  double device_energy_mj = 0.0;

  std::uint64_t negotiation_cycles = 0;
  std::uint64_t matches = 0;
  std::uint64_t offloads_started = 0;
  std::uint64_t offloads_queued = 0;
  std::uint64_t oom_kills = 0;
  std::uint64_t container_kills = 0;
  std::uint64_t addon_pins = 0;
  std::uint64_t events_processed = 0;

  /// Mean job turnaround (submit → terminal).
  SimTime mean_turnaround = 0.0;
  /// Distribution of job wait times (submit → running at the node).
  Summary wait_time;
  /// Distribution of job turnaround times (submit → terminal).
  Summary turnaround;

  /// (time, busy-core fraction) samples, when sampling was enabled.
  std::vector<std::pair<SimTime, double>> utilization_series;

  /// Metrics + event-log snapshot taken at the makespan; null unless
  /// ExperimentConfig::telemetry was set. Shared so results stay cheap to
  /// copy; compare *telemetry for determinism checks.
  std::shared_ptr<const obs::Snapshot> telemetry;
};

/// Runs one experiment to completion. Every job must individually fit a
/// coprocessor (the paper's Section III precondition). Deterministic for a
/// given (config.seed, jobs).
[[nodiscard]] ExperimentResult run_experiment(const ExperimentConfig& config,
                                              const workload::JobSet& jobs);

}  // namespace phisched::cluster
