// The sharing-aware cluster scheduler as a transparent Condor add-on
// (paper Section IV-D1).
//
// The add-on requires no changes to the mini-Condor components: it reads
// the pending queue from the schedd and machine state from the
// negotiator's per-cycle snapshot of the collector's machine ads,
// computes a job→coprocessor mapping with an AssignmentPolicy (the
// knapsack policy for MCCK), and publishes its decisions exclusively by
// condor_qedit-ing each chosen job's Requirements to name the selected
// node — exactly the integration path the paper describes ("Name ==
// <slotId>@<NodeName>"), batched so one negotiation cycle sees all edits.
//
// Install pre_cycle() as the negotiator's pre-cycle hook. Because pinned
// jobs may not dispatch until a later cycle, the add-on deducts their
// declared memory from the advertised free capacity ("in-flight pins") so
// consecutive cycles never double-book a device.
#pragma once

#include <map>
#include <memory>

#include "condor/ads.hpp"
#include "condor/collector.hpp"
#include "condor/schedd.hpp"
#include "core/policy.hpp"

namespace phisched::core {

struct AddonConfig {
  /// When true (default), a device's knapsack thread budget is reduced by
  /// the declared threads of already-resident jobs, so the CONCURRENT
  /// thread demand of a device stays near the hardware budget throughout
  /// the run — the paper's "maximize concurrency without oversubscription"
  /// objective. When false, every new knapsack gets the full hardware
  /// budget (a literal reading of Fig. 4) and COSMIC serializes the
  /// overflow at offload granularity.
  bool deduct_resident_threads = true;
  /// Overcommit factor on the deducted thread budget: offload jobs use
  /// the device only intermittently (duty cycle < 1), so admitting
  /// slightly more declared threads than the hardware supports keeps
  /// cores busy during other jobs' host phases without building deep
  /// offload queues. Budget = hw_threads * overcommit - resident_threads.
  /// 1.0 is the paper's literal rule ("the number of threads of all
  /// concurrent jobs must not exceed the number of hardware threads");
  /// 1.5 recovers the utilization the paper reports for offload jobs
  /// whose duty cycle is ~0.5. See the ablation bench. Must be finite
  /// and in (0, 16].
  double thread_overcommit = 1.5;
  /// Interference awareness (heterogeneous fleets): when true (default),
  /// device views carry each card's advertised memory-bandwidth headroom
  /// (PhiFreeBandwidth<d>) and pending views carry the job's declared
  /// share, so the policy avoids saturating any card's ring. Nodes whose
  /// contention model is off never advertise the attribute, so the
  /// default stays bit-identical there. False = interference-blind
  /// placement (the bench_hetero ablation baseline).
  bool bandwidth_aware = true;
  /// Ground-truth execution-time oracle for ablation baselines (e.g. the
  /// LPT policy). Leave null for the paper's operating assumption that
  /// execution times are unknown.
  std::function<SimTime(JobId)> duration_oracle;
};

struct AddonStats {
  std::uint64_t runs = 0;
  std::uint64_t pins = 0;
};

class SharingAwareScheduler {
 public:
  SharingAwareScheduler(condor::Schedd& schedd,
                        std::unique_ptr<AssignmentPolicy> policy,
                        AddonConfig config = {});

  SharingAwareScheduler(const SharingAwareScheduler&) = delete;
  SharingAwareScheduler& operator=(const SharingAwareScheduler&) = delete;

  /// One scheduling pass over the cycle's machine ads: pin as many
  /// pending jobs as capacity allows. Intended as the negotiator
  /// pre-cycle hook.
  void pre_cycle(const condor::MachineAds& machines);

  [[nodiscard]] const AddonStats& stats() const { return stats_; }
  [[nodiscard]] const AssignmentPolicy& policy() const { return *policy_; }

 private:
  /// Builds device views from the machine ads, net of the requests of
  /// pinned jobs that have not dispatched yet.
  [[nodiscard]] std::vector<DeviceView> device_views(
      const condor::MachineAds& machines,
      const std::vector<std::pair<DeviceAddress, condor::JobRequest>>&
          in_flight) const;

  condor::Schedd& schedd_;
  std::unique_ptr<AssignmentPolicy> policy_;
  AddonConfig config_;
  /// Jobs we have pinned that are still pending dispatch.
  std::map<JobId, DeviceAddress> pins_;
  AddonStats stats_;
};

}  // namespace phisched::core
