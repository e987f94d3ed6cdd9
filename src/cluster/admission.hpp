// Admission control / backpressure for the open-loop service mode.
//
// Under sustained overload an unbounded pending queue grows without
// limit and every SLA percentile diverges; real schedulers bound the
// queue and shed or defer load instead (cf. the CASE/BEMPS occupancy
// threshold — admit only while (active + new) / capacity stays under a
// configured fraction). The controller makes a pure, deterministic
// decision from the observed cluster state; the Service owns the state
// and enacts the decision (submit, re-try later, or drop).
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "workload/jobspec.hpp"

namespace phisched::cluster {

struct AdmissionConfig {
  /// Maximum schedd pending-queue depth; arrivals beyond it are deferred
  /// or rejected. 0 = unbounded (no queue-depth gate).
  std::size_t max_queue_depth = 0;
  /// Maximum declared-thread occupancy: sum of threads_req x devices_req
  /// over admitted, non-terminal jobs divided by the cluster's hardware
  /// thread capacity. An arrival that would push occupancy past this is
  /// deferred/rejected. 0 = unbounded (no occupancy gate).
  double max_occupancy = 0.0;
  /// When > 0, a gated arrival is deferred: re-evaluated after this many
  /// simulated seconds instead of being dropped immediately.
  SimTime defer_delay_s = 0.0;
  /// Deferrals per job before it is dropped for good.
  int max_defers = 3;
  /// When true, an arrival the aggregate occupancy gate would turn away
  /// is double-checked against the per-device capacity snapshot: if some
  /// device can actually take the job's declaration, it is admitted
  /// anyway (counted in admitted_by_pack). The aggregate threshold is a
  /// scalar and cannot see fragmentation in either direction; the pack
  /// consult makes the occupancy gate reject only when no feasible
  /// placement exists.
  bool consult_packer = false;
};

struct AdmissionStats {
  std::uint64_t offered = 0;            ///< arrivals presented (incl. retries)
  std::uint64_t admitted = 0;
  /// Of `admitted`: arrivals the occupancy gate had turned away that the
  /// packer consult found a real placement for.
  std::uint64_t admitted_by_pack = 0;
  std::uint64_t rejected_queue = 0;     ///< gated by max_queue_depth
  std::uint64_t rejected_occupancy = 0; ///< gated by max_occupancy
  std::uint64_t rejected_unfit = 0;     ///< no node's cards can hold it
  std::uint64_t deferred = 0;           ///< gated but parked for a retry
  std::uint64_t dropped = 0;            ///< gated with no defer budget left

  /// Jobs turned away for good (every terminal rejection path).
  [[nodiscard]] std::uint64_t rejected_total() const {
    return rejected_queue + rejected_occupancy + rejected_unfit + dropped;
  }
};

enum class AdmissionDecision {
  kAdmit,   ///< submit now
  kDefer,   ///< park, re-offer after defer_delay_s
  kReject,  ///< drop, count as shed load
};

/// One coprocessor's declared-free capacity right now (net of resident
/// reservations) — what the pack consult fits the job against.
struct DeviceCapacity {
  MiB free_mib = 0;
  ThreadCount free_threads = 0;
};

/// The observed cluster state a decision is made against.
struct AdmissionState {
  /// Whether some node's cards can hold the job at all
  /// (Harness::unfit_reason); an arrival that no card holds is rejected.
  bool fits = true;
  std::size_t queue_depth = 0;      ///< schedd pending jobs
  double occupied_threads = 0.0;    ///< declared threads of live jobs
  double thread_capacity = 1.0;     ///< cluster hardware threads
  /// Per-device free capacities (any order; only consulted when
  /// AdmissionConfig::consult_packer is set). Empty = consult disabled
  /// for this decision.
  std::vector<DeviceCapacity> devices;
};

class AdmissionController {
 public:
  explicit AdmissionController(const AdmissionConfig& config);

  /// Decides one offered arrival and records it in the stats.
  /// `defers_so_far` is how many times this particular job was already
  /// deferred (0 on first offer).
  AdmissionDecision decide(const workload::JobSpec& job,
                           const AdmissionState& state, int defers_so_far);

  [[nodiscard]] const AdmissionStats& stats() const { return stats_; }
  [[nodiscard]] const AdmissionConfig& config() const { return config_; }

 private:
  /// True when the consult is on and some device in `state` can take the
  /// job's single-device declaration.
  [[nodiscard]] bool packable(const workload::JobSpec& job,
                              const AdmissionState& state) const;

  AdmissionConfig config_;
  AdmissionStats stats_;
};

}  // namespace phisched::cluster
