#include "cluster/admission.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/quantize.hpp"

namespace phisched::cluster {

AdmissionController::AdmissionController(const AdmissionConfig& config)
    : config_(config) {
  PHISCHED_REQUIRE(config_.max_occupancy >= 0.0,
                   "admission: max_occupancy must be >= 0");
  PHISCHED_REQUIRE(config_.defer_delay_s >= 0.0,
                   "admission: defer_delay_s must be >= 0");
  PHISCHED_REQUIRE(config_.max_defers >= 0,
                   "admission: max_defers must be >= 0");
}

bool AdmissionController::packable(const workload::JobSpec& job,
                                   const AdmissionState& state) const {
  // Gang jobs need devices_req coprocessors simultaneously; the one-device
  // fit test does not model that, so they stay with the aggregate gate's
  // verdict.
  if (!config_.consult_packer || job.devices_req != 1) return false;
  // For a single job, every knapsack backend places it on a device exactly
  // when its memory, rounded up to the DP's 50 MiB grid, and its threads
  // both fit that device's free capacity; no solver run is needed.
  const MiB mem = quantize_up(job.mem_req_mib);
  return std::any_of(state.devices.begin(), state.devices.end(),
                     [&](const DeviceCapacity& device) {
                       return mem <= device.free_mib &&
                              job.threads_req <= device.free_threads;
                     });
}

AdmissionDecision AdmissionController::decide(const workload::JobSpec& job,
                                              const AdmissionState& state,
                                              int defers_so_far) {
  stats_.offered += 1;
  // No wait frees a card the job fits, so it is neither queued nor
  // deferred.
  if (!state.fits) {
    stats_.rejected_unfit += 1;
    return AdmissionDecision::kReject;
  }

  const bool queue_full = config_.max_queue_depth > 0 &&
                          state.queue_depth >= config_.max_queue_depth;
  const double declared = static_cast<double>(job.threads_req) *
                          static_cast<double>(job.devices_req);
  const bool occupancy_full =
      config_.max_occupancy > 0.0 &&
      (state.occupied_threads + declared) / state.thread_capacity >
          config_.max_occupancy;

  if (!queue_full && !occupancy_full) {
    stats_.admitted += 1;
    return AdmissionDecision::kAdmit;
  }
  // The occupancy gate compares scalars and cannot see per-device
  // fragmentation; when configured, let a device that fits the job
  // overrule it. The queue gate is not negotiable this way.
  if (occupancy_full && !queue_full && packable(job, state)) {
    stats_.admitted += 1;
    stats_.admitted_by_pack += 1;
    return AdmissionDecision::kAdmit;
  }
  if (config_.defer_delay_s > 0.0 && defers_so_far < config_.max_defers) {
    stats_.deferred += 1;
    return AdmissionDecision::kDefer;
  }
  if (config_.defer_delay_s > 0.0) {
    // The defer budget ran out: the job is shed after giving the
    // cluster max_defers chances to absorb it.
    stats_.dropped += 1;
  } else if (queue_full) {
    stats_.rejected_queue += 1;
  } else {
    stats_.rejected_occupancy += 1;
  }
  return AdmissionDecision::kReject;
}

}  // namespace phisched::cluster
