// COSMIC-style node middleware (Cadambi et al., HPDC'13), rebuilt.
//
// COSMIC is the per-node layer that makes coprocessor sharing SAFE. It sits
// between jobs and the devices of one compute node and provides the three
// guarantees the paper relies on (Section IV-D2):
//
//  1. Memory containers: a job whose actual device memory exceeds its
//     user-declared limit is terminated — protecting other tenants from a
//     lying or mistaken declaration.
//  2. Offload serialization: offload regions are admitted to a device only
//     while the aggregate thread demand stays within the hardware thread
//     count; surplus offloads wait in a per-device queue. Thread
//     oversubscription therefore never happens under COSMIC.
//  3. Affinitization: devices are switched to managed-compact placement so
//     concurrent offloads occupy disjoint core sets.
//
// Jobs may span a GANG of several coprocessors (the job script's
// RequestPhiDevices): the reservation is all-or-nothing across the gang
// and each offload targets one gang member (`target(mic:INDEX)`).
//
// The middleware also keeps the node's declared-memory reservation ledger,
// which cluster-level schedulers use as knapsack capacity.
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <vector>

#include "common/types.hpp"
#include "obs/recorder.hpp"
#include "phi/device.hpp"
#include "sim/simulator.hpp"

namespace phisched::cosmic {

/// How queued offloads are admitted when threads free up.
enum class DrainPolicy {
  /// Strict FIFO: the queue head must fit before anything behind it runs
  /// (head-of-line blocking, as a simple per-device offload scheduler
  /// behaves). Default; this is where cluster-level thread-aware packing
  /// pays off.
  kFifoStrict,
  /// FIFO-biased first-fit: later offloads may overtake a head that does
  /// not fit yet (a work-conserving variant, used in ablations).
  kFifoSkip,
};

struct MiddlewareConfig {
  /// Kill jobs whose actual memory exceeds their declaration.
  bool enforce_containers = true;
  /// Queue offloads that would oversubscribe device threads.
  bool serialize_offloads = true;
  DrainPolicy drain = DrainPolicy::kFifoStrict;
  /// Extra execution time paid by an offload that had to WAIT in the
  /// queue before admission: the COI helper is woken, its input buffers
  /// re-staged over PCIe, and thread affinities re-established. This is
  /// the node-level cost of packing thread-infeasible job sets — exactly
  /// what the paper's knapsack avoids by keeping concurrent thread
  /// demand within the hardware budget.
  SimTime queued_resume_overhead_s = 0.5;
};

/// Everything a job declares about its per-device footprint when it is
/// submitted to a node. Bundling the declaration keeps submit_job's
/// signature stable as sharing dimensions are added; callers name the
/// fields they set (`{.mem_per_device = 2000, .threads = 60}`).
struct JobDeclaration {
  int gang_size = 1;
  MiB mem_per_device = 0;  ///< declared container limit, per gang member
  ThreadCount threads = 0;
  MiB base_memory = 0;
  /// Declared memory-bandwidth share (MiB/s) per device. Enters the
  /// reservation ledger and the device's resident-bandwidth interference
  /// model only when that device's MemBwConfig opted into contention;
  /// inert (like the whole ledger column) otherwise.
  double mem_bw_mib_s = 0.0;
};

struct MiddlewareStats {
  std::uint64_t offloads_admitted = 0;
  std::uint64_t offloads_queued = 0;
  std::uint64_t container_kills = 0;
  std::uint64_t jobs_admitted = 0;
  std::uint64_t jobs_parked = 0;  ///< waited in the admission queue
};

class NodeMiddleware {
 public:
  using OffloadCallback = phi::Device::OffloadCallback;
  using KillCallback = phi::Device::KillCallback;

  NodeMiddleware(Simulator& sim, std::vector<phi::Device*> devices,
                 MiddlewareConfig config = {});

  NodeMiddleware(const NodeMiddleware&) = delete;
  NodeMiddleware& operator=(const NodeMiddleware&) = delete;

  [[nodiscard]] std::size_t device_count() const { return devices_.size(); }
  [[nodiscard]] phi::Device& device(DeviceId d);

  // --- reservation ledger (declared memory) ---------------------------------
  /// Declared-memory capacity still unreserved on device `d`.
  [[nodiscard]] MiB unreserved_memory(DeviceId d) const;

  /// Declared thread capacity not yet promised on device `d` (informational;
  /// threads are a soft limit enforced at offload granularity).
  [[nodiscard]] ThreadCount unreserved_threads(DeviceId d) const;

  /// Memory-bandwidth budget (MiB/s) not yet promised on device `d`, or
  /// a negative value when that device's contention model is off (no
  /// budget to subtract from). Like threads, bandwidth is a soft limit:
  /// overshooting slows the card rather than blocking admission.
  [[nodiscard]] double unreserved_bandwidth(DeviceId d) const;

  /// Picks `gang_size` DISTINCT devices, most-free first, each with at
  /// least `declared_per_device` unreserved; empty when impossible.
  [[nodiscard]] std::vector<DeviceId> pick_gang(int gang_size,
                                                MiB declared_per_device) const;

  // --- job lifecycle ---------------------------------------------------------
  /// A job arriving at the node, the one way a job becomes resident.
  /// Admitted immediately when capacity for its whole gang exists
  /// (honouring `pinned` when non-empty, else pick_gang's choice),
  /// otherwise parked in the node's admission queue until capacity frees
  /// — this is how COSMIC lets arbitrarily-packed jobs compete safely for
  /// the devices. The queue is strict FIFO, so big jobs never starve: a
  /// parked job blocks arrivals behind it until it is admitted.
  /// `on_admitted` fires exactly once, when the job becomes resident on
  /// every gang member.
  void submit_job(JobId job, std::vector<DeviceId> pinned,
                  const JobDeclaration& decl, KillCallback on_kill,
                  std::function<void()> on_admitted);

  /// Jobs parked in the admission queue.
  [[nodiscard]] std::size_t waiting_jobs() const { return job_queue_.size(); }

  /// Requests execution of one offload region on the job's gang member
  /// `device_index`. Runs immediately when that device's thread budget
  /// allows, otherwise waits in the device queue. If containers are
  /// enforced and this offload would push the job's actual memory beyond
  /// its declaration, the job is killed instead. `on_start` (optional)
  /// fires the moment the offload is admitted onto the device.
  void request_offload(JobId job, ThreadCount threads, MiB memory,
                       SimTime duration, OffloadCallback on_complete,
                       std::function<void()> on_start = nullptr,
                       int device_index = 0);

  /// Normal completion: detaches the gang's processes and releases every
  /// reservation.
  void finish_job(JobId job);

  [[nodiscard]] bool job_known(JobId job) const;
  [[nodiscard]] std::size_t queued_offloads(DeviceId d) const;
  /// Jobs currently holding a reservation on device `d`.
  [[nodiscard]] std::size_t jobs_on_device(DeviceId d) const;
  /// The gang a job is resident on (empty when unknown).
  [[nodiscard]] std::vector<DeviceId> gang_of(JobId job) const;
  [[nodiscard]] const MiddlewareStats& stats() const { return stats_; }

  /// Registers this node's instruments under `prefix` (e.g.
  /// "cosmic.node0"): per-device offload queue depth series, admission
  /// queue depth and wait distribution, park/admit/kill counters (bound
  /// to stats()) and events. Null until called; then each site costs one
  /// pointer test.
  void attach_telemetry(obs::Recorder& recorder, const std::string& prefix);

 private:
  struct PendingOffload {
    JobId job = 0;
    ThreadCount threads = 0;
    MiB memory = 0;
    SimTime duration = 0.0;
    OffloadCallback on_complete;
    std::function<void()> on_start;
  };

  struct Reservation {
    std::vector<DeviceId> devices;  ///< the gang, in job device-index order
    MiB declared_mem = 0;           ///< per device
    ThreadCount declared_threads = 0;
    double declared_bw = 0.0;  ///< MiB/s, per device
    KillCallback on_kill;
  };

  struct DeviceState {
    phi::Device* device = nullptr;
    MiB reserved_mem = 0;
    ThreadCount reserved_threads = 0;
    double reserved_bw = 0.0;  ///< summed declared MiB/s
    std::deque<PendingOffload> queue;
  };

  struct WaitingJob {
    JobId job = 0;
    std::vector<DeviceId> pinned;  ///< empty = middleware chooses
    int gang_size = 1;
    MiB declared_mem = 0;
    ThreadCount declared_threads = 0;
    double declared_bw = 0.0;
    MiB base_memory = 0;
    KillCallback on_kill;
    std::function<void()> on_admitted;
    SimTime parked_at = -1.0;  ///< when it entered the admission queue
  };

  /// Cached instrument pointers; all null until attach_telemetry.
  struct Telemetry {
    obs::Recorder* rec = nullptr;
    std::string prefix;
    obs::Gauge* admission_wait_s = nullptr;
    Histogram* admission_wait_hist = nullptr;
    TimeWeighted* admission_depth = nullptr;
    std::vector<TimeWeighted*> queue_depth;  ///< per device
  };

  /// Post-transfer stage of request_offload: container check + queueing.
  void admit_offload(JobId job, ThreadCount threads, MiB memory,
                     SimTime duration, OffloadCallback on_complete,
                     std::function<void()> on_start, int device_index);

  /// True when the offload fits the device's thread budget right now.
  [[nodiscard]] bool fits_now(const DeviceState& ds, ThreadCount threads) const;

  /// Starts queued offloads that now fit.
  void drain_queue(DeviceId d);

  void start_now(DeviceId d, PendingOffload pending, bool was_queued);

  /// Container check; returns true if the job was killed.
  bool container_violation(JobId job, const Reservation& res, MiB extra,
                           int device_index);

  /// Removes queued offloads and the reservation of a killed job,
  /// including its processes on sibling gang devices.
  void on_device_kill(JobId job, phi::KillReason reason);

  /// Releases ledger entries and queued offloads of one reservation.
  void release_reservation(JobId job, const Reservation& res);

  /// Tries to admit one waiting job; true on success.
  bool try_admit(WaitingJob& w);

  /// Pushes the ledger's summed declared bandwidth into the device's
  /// interference model; no-op while that device's model is off, so the
  /// default path never perturbs the device's settle/reconcile cadence.
  void sync_bw_load(DeviceState& ds);

  /// Admits every queued job that now fits.
  void admit_waiting();

  /// Telemetry helpers (no-ops when detached).
  void note_queue_depth(DeviceId d);
  void note_admission_depth();
  void note_admitted(const WaitingJob& w);

  Simulator& sim_;
  MiddlewareConfig config_;
  std::vector<DeviceState> devices_;
  std::map<JobId, Reservation> jobs_;
  std::deque<WaitingJob> job_queue_;
  bool admitting_ = false;   ///< re-entrancy guard for admit_waiting
  bool admit_again_ = false; ///< a deferred pass was requested
  MiddlewareStats stats_;
  Telemetry obs_;
};

}  // namespace phisched::cosmic
