// ClassAd attribute conventions used by the mini-Condor pool.
//
// Machine (node) ads carry, in addition to identity, the Xeon Phi
// resources the paper has nodes advertise through micinfo (Section IV-D1):
// device count, free card memory, and free devices. Job ads carry the two
// user-declared requirements (memory, threads) plus the Requirements
// expression that gates matchmaking.
//
// The schedulers read those resources through the decoders at the bottom
// (device_ads, job_request, job_view), never attribute by attribute, so
// each attribute has exactly one fallback rule.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "classad/classad.hpp"
#include "common/types.hpp"
#include "workload/jobspec.hpp"

namespace phisched::condor {

// --- machine-ad attributes ---------------------------------------------------
inline constexpr const char* kAttrName = "Name";
inline constexpr const char* kAttrFreeSlots = "FreeSlots";
inline constexpr const char* kAttrTotalSlots = "TotalSlots";
inline constexpr const char* kAttrPhiDevices = "PhiDevices";
/// Largest unreserved memory over the node's devices (MiB).
inline constexpr const char* kAttrPhiFreeMemory = "PhiFreeMemory";
/// Devices with no resident job (exclusive-mode capacity).
inline constexpr const char* kAttrPhiFreeDevices = "PhiFreeDevices";
/// Hardware threads per device (240 on the paper's cards).
inline constexpr const char* kAttrPhiHwThreads = "PhiHwThreads";
/// Usable card memory per device (MiB) — the capacity the occupancy
/// thresholds of the batched strategy are fractions of.
inline constexpr const char* kAttrPhiTotalMemory = "PhiTotalMemory";
/// Per-device unreserved memory: PhiFreeMemory0, PhiFreeMemory1, ...
[[nodiscard]] std::string per_device_memory_attr(DeviceId d);
/// Per-device unreserved (declared) threads: PhiFreeThreads0, ...
[[nodiscard]] std::string per_device_threads_attr(DeviceId d);
/// Per-device hardware threads: PhiHwThreads0, ... (may differ per card
/// on heterogeneous nodes; the node-level PhiHwThreads is the max).
[[nodiscard]] std::string per_device_hw_threads_attr(DeviceId d);
/// Per-device usable memory (MiB): PhiTotalMemory0, ...
[[nodiscard]] std::string per_device_total_memory_attr(DeviceId d);
/// Per-device unreserved bandwidth budget (MiB/s): PhiFreeBandwidth0, ...
/// Published only when the bandwidth-contention model is on.
[[nodiscard]] std::string per_device_free_bw_attr(DeviceId d);

// --- job-ad attributes --------------------------------------------------------
inline constexpr const char* kAttrJobId = "JobId";
inline constexpr const char* kAttrRequestPhiMemory = "RequestPhiMemory";
inline constexpr const char* kAttrRequestPhiThreads = "RequestPhiThreads";
inline constexpr const char* kAttrRequestPhiDevices = "RequestPhiDevices";
/// Declared memory-bandwidth share (MiB/s); present only when the job
/// declared one, so two-number paper jobs keep byte-identical ads.
inline constexpr const char* kAttrRequestPhiMemBandwidth =
    "RequestPhiMemBandwidth";
inline constexpr const char* kAttrRequirements = "Requirements";
/// Set by the sharing-aware add-on: device index the job must use.
inline constexpr const char* kAttrPinnedDevice = "PinnedDevice";
/// Set by the add-on on every pin (single-device and gang): the chosen
/// node's name. Marks the ad as carrying a live scheduling decision.
inline constexpr const char* kAttrPinnedNode = "PinnedNode";

/// Canonical machine name for a node ("node0", "node1", ...).
[[nodiscard]] std::string machine_name(NodeId node);

/// Requirements for the exclusive-allocation policy (MC): the job needs a
/// whole free coprocessor.
[[nodiscard]] std::string exclusive_requirements();

/// Requirements for sharing configurations where a cluster-level scheduler
/// verifies capacity (the add-on's pinned jobs): the advertised free card
/// memory must cover the declaration.
[[nodiscard]] std::string sharing_requirements();

/// Requirements for plain Condor+COSMIC sharing (MCC): any node with a
/// free slot. The paper: "jobs are packed arbitrarily to Xeon Phi
/// coprocessors and COSMIC prevents them from oversubscribing memory and
/// threads" — the cluster level does not consider coprocessor capacity.
[[nodiscard]] std::string arbitrary_requirements();

/// Requirements pinning a job to one node (the add-on's qedit), keeping
/// the memory guard.
[[nodiscard]] std::string pinned_requirements(NodeId node);

/// Builds a job ad from a JobSpec with the given Requirements source.
[[nodiscard]] classad::ClassAd make_job_ad(const workload::JobSpec& job,
                                           const std::string& requirements);

// --- decoders -----------------------------------------------------------------

/// One card as its machine ad advertises it. Each field reads the
/// per-device attribute, else the node-level one, else the default.
struct DeviceAd {
  /// PhiFreeMemory<d>, else PhiFreeMemory, else 0.
  MiB free_memory_mib = 0;
  /// PhiTotalMemory<d>, else PhiTotalMemory, else free_memory_mib.
  MiB total_memory_mib = 0;
  /// PhiHwThreads<d>, else PhiHwThreads, else 240.
  ThreadCount hw_threads = 240;
  /// PhiFreeThreads<d>, else hw_threads. Negative once resident declared
  /// threads stack past the hardware.
  ThreadCount free_threads = 240;
  /// PhiFreeBandwidth<d>, else -1: the contention model is off and
  /// bandwidth constrains nothing.
  double free_bw = -1.0;
};

/// The cards of a machine ad, indexed by DeviceId. An ad without
/// PhiDevices advertises no cards.
[[nodiscard]] std::vector<DeviceAd> device_ads(const classad::ClassAd& machine);

/// A job ad's declared request.
struct JobRequest {
  MiB mem_mib = 0;          ///< RequestPhiMemory (per device), else 0
  ThreadCount threads = 0;  ///< RequestPhiThreads, else 0
  int devices = 1;          ///< RequestPhiDevices, else 1
  double bw = 0.0;          ///< RequestPhiMemBandwidth, else 0 (none)

  friend bool operator==(const JobRequest&, const JobRequest&) = default;
};

[[nodiscard]] JobRequest job_request(const classad::ClassAd& job);

/// Everything the negotiation cycle reads from a job ad besides the
/// two-way match itself. The schedd caches one per job (Schedd::view).
struct JobView {
  JobRequest request;  ///< job_request(job)
  /// classad::requirements_never_met(job): no machine can match.
  bool never_met = false;
  /// classad::required_name(job): the one machine Name it can match.
  std::optional<std::string> required_name;
  std::optional<std::int64_t> pinned_device;  ///< PinnedDevice
  bool pinned_node = false;                   ///< PinnedNode is set
};

[[nodiscard]] JobView job_view(const classad::ClassAd& job);

}  // namespace phisched::condor
