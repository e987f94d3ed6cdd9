// Discrete-event model of one Xeon Phi coprocessor.
//
// The device tracks resident processes (one per job offloading to it, as
// COI creates on the real card), their memory, and the set of concurrently
// executing offload regions. It reproduces the failure semantics the paper
// builds on (Section II-C):
//
//  * Thread oversubscription: when the aggregate thread demand of running
//    offloads exceeds the hardware thread count, everything slows down
//    super-linearly (context-switch cost on a manycore with huge vector
//    state). With the default exponent of 3, a 2x oversubscription yields
//    an 8x slowdown — the "as much as 800%" impact the paper cites.
//  * Memory oversubscription: when resident memory exceeds the physical
//    card memory, the Linux OOM killer terminates a RANDOM process.
//  * Unmanaged affinity: without COSMIC's affinitization, offloads scatter
//    over cores and may overlap while other cores idle, costing a
//    configurable penalty.
//
// Per-core busy time is integrated continuously so that experiments can
// report the cluster-wide core utilization of Section III.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "obs/recorder.hpp"
#include "phi/affinity.hpp"
#include "phi/capability.hpp"
#include "phi/pcie.hpp"
#include "sim/simulator.hpp"

namespace phisched::phi {

using OffloadId = std::uint64_t;

enum class KillReason {
  kOom,             ///< device memory oversubscribed; OOM killer fired
  kContainerLimit,  ///< COSMIC container: usage exceeded declaration
  kAdmin,           ///< explicit kill (job removal)
};

[[nodiscard]] const char* kill_reason_name(KillReason reason);

struct DeviceConfig {
  /// Speed factor exponent under thread oversubscription:
  /// speed = (hw_threads / demand)^exponent for demand > hw_threads.
  /// Exponent 1 would be ideal work-conserving sharing; 3 reproduces the
  /// paper's ~800% penalty at 2x oversubscription.
  double oversub_exponent = 3.0;
  /// Multiplicative speed loss while offloads overlap on shared cores
  /// because nothing manages affinity.
  double unmanaged_overlap_penalty = 0.15;
  /// Placement policy; COSMIC switches this to kManagedCompact.
  AffinityPolicy affinity = AffinityPolicy::kUnmanagedScatter;
  /// Power model for energy accounting (defaults approximate a KNC card:
  /// ~225 W at full core load, ~120 W idle-but-powered).
  double base_watts = 60.0;         ///< memory, ring, uncore
  double idle_core_watts = 1.0;     ///< per core, clock-gated
  double active_core_watts = 2.75;  ///< per busy core

  /// Interference from RESIDENT processes' idle thread pools: the Intel
  /// OpenMP runtime busy-spins worker threads between parallel regions
  /// (KMP_BLOCKTIME), so when the declared threads of all co-resident
  /// jobs exceed the hardware threads, running offloads lose cycles even
  /// though COSMIC serializes the offloads themselves. Speed is scaled by
  /// (hw_threads / resident_declared)^idle_spin_exponent when the
  /// resident declared total exceeds the hardware budget.
  double idle_spin_exponent = 0.35;

  /// The card's PCIe link (see phi/pcie.hpp). Contention is off by
  /// default so calibrated experiments reproduce bit-identically; when
  /// on, the node middleware routes every offload's input/output
  /// transfer through the link and concurrent containers contend.
  PcieLinkConfig pcie{};

  /// Memory-bandwidth contention model (phi/capability.hpp). Off by
  /// default: enabling it adds a third interference dimension where the
  /// summed declared bandwidth of resident containers slows offloads
  /// past the card's saturation budget.
  MemBwConfig mem_bw{};
};

struct DeviceStats {
  std::uint64_t offloads_started = 0;
  std::uint64_t offloads_completed = 0;
  std::uint64_t oom_kills = 0;
  std::uint64_t container_kills = 0;
  std::uint64_t admin_kills = 0;
  /// Contiguous intervals during which the active offloads' thread demand
  /// exceeded the hardware threads — counted once per episode, however
  /// many offloads join while it lasts.
  std::uint64_t oversub_episodes = 0;
};

class Device {
 public:
  /// Invoked when the device kills a process (OOM / container / admin).
  /// Pending offload completions of the victim are cancelled first.
  using KillCallback = std::function<void(JobId, KillReason)>;
  /// Invoked when an offload region finishes executing.
  using OffloadCallback = std::function<void()>;

  /// `capability` is the card's generation, thread/memory geometry and
  /// bandwidth envelope (phi/capability.hpp): the only description of the
  /// card. It defaults to the 5110P the paper's testbed used.
  Device(Simulator& sim, DeviceConfig config, Rng rng,
         std::string name = "mic0", DeviceCapability capability = {});

  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  // --- process lifecycle ----------------------------------------------------
  /// Creates the job's device-resident process with `base_memory` MiB.
  /// May immediately trigger the OOM killer (possibly killing this very
  /// process) if physical memory oversubscribes.
  void attach_process(JobId job, MiB base_memory, KillCallback on_kill);

  /// Removes the job's process; it must have no running offloads.
  void detach_process(JobId job);

  /// Kills a process as `reason`, cancelling its offloads and invoking its
  /// kill callback. Pass invoke_callback=false to tear the process down
  /// silently (e.g. removing a gang job's siblings after one member was
  /// already killed and reported).
  void kill_process(JobId job, KillReason reason, bool invoke_callback = true);

  [[nodiscard]] bool has_process(JobId job) const;
  [[nodiscard]] std::size_t process_count() const { return procs_.size(); }

  /// Actual resident memory of one process (base + active working sets).
  [[nodiscard]] MiB process_memory(JobId job) const;

  // --- offload execution ----------------------------------------------------
  /// Starts an offload region of `duration` seconds (at full speed) using
  /// `threads` hardware threads and touching `memory` MiB. The job must
  /// have an attached process. `on_complete` fires when the region
  /// finishes; it never fires if the process is killed first.
  OffloadId start_offload(JobId job, ThreadCount threads, MiB memory,
                          SimTime duration, OffloadCallback on_complete);

  // --- queries ----------------------------------------------------------------
  /// Aggregate threads demanded by running offloads.
  [[nodiscard]] ThreadCount active_thread_demand() const;
  [[nodiscard]] std::size_t active_offloads() const { return offloads_.size(); }
  /// Actual resident memory (bases + active working sets).
  [[nodiscard]] MiB memory_used() const { return memory_used_; }
  [[nodiscard]] MiB usable_memory() const {
    return capability_.hw.usable_memory_mib();
  }
  [[nodiscard]] MiB memory_free() const { return usable_memory() - memory_used_; }
  [[nodiscard]] CoreCount busy_cores() const { return cores_.busy_cores(); }
  /// Current execution speed factor in (0, 1].
  [[nodiscard]] double current_speed() const { return speed_; }
  [[nodiscard]] const DeviceConfig& config() const { return config_; }
  [[nodiscard]] const DeviceStats& stats() const { return stats_; }
  [[nodiscard]] const std::string& name() const { return name_; }

  /// Mean fraction of cores busy over [0, until].
  [[nodiscard]] double core_utilization(SimTime until) const;

  /// Energy drawn over [0, until] in joules, per the DeviceConfig power
  /// model: base + idle power for every core, plus the active-idle delta
  /// integrated over busy cores.
  [[nodiscard]] double energy_joules(SimTime until) const;

  /// Declared threads of all processes resident on the device, reported
  /// by the node middleware; drives the idle-spin interference model.
  void set_resident_thread_load(ThreadCount declared_threads);
  [[nodiscard]] ThreadCount resident_thread_load() const {
    return resident_thread_load_;
  }

  /// Summed declared memory bandwidth (MiB/s) of resident containers,
  /// reported by the node middleware when the mem_bw model is on; demand
  /// past mem_bw_budget() slows every offload on the card.
  void set_resident_bw_load(double declared_mib_s);
  [[nodiscard]] double resident_bw_load() const { return resident_bw_load_; }

  /// Sustainable bandwidth budget (saturation × aggregate), or < 0 when
  /// the contention model is off.
  [[nodiscard]] double mem_bw_budget() const {
    return config_.mem_bw.budget_mib_s(capability_);
  }

  [[nodiscard]] const DeviceCapability& capability() const {
    return capability_;
  }

  /// The card's shared PCIe link; disabled unless DeviceConfig::pcie
  /// opted into contention.
  [[nodiscard]] PcieLink& pcie_link() { return pcie_link_; }
  [[nodiscard]] const PcieLink& pcie_link() const { return pcie_link_; }

  /// Registers this device's instruments under `prefix` (e.g.
  /// "phi.node0.mic0") and starts recording: busy-core and speed time
  /// series, kill/oversubscription counters (bound to stats()),
  /// per-episode events, per-container residency gauges
  /// ("<prefix>.container<job>.*"), and — when the PCIe link is enabled
  /// — its "<prefix>.pcie.*" instruments. Without this call telemetry
  /// costs one null check per site.
  void attach_telemetry(obs::Recorder& recorder, const std::string& prefix);

  /// End-of-run bookkeeping for a snapshot: if an oversubscription
  /// episode is still open because the simulation stopped mid-episode,
  /// appends the matching `oversub_end` event (marked `at_run_end`) to
  /// `snap`, a snapshot of the attached recorder, so the exported
  /// episode events come in begin/end pairs. Leaves this device — its
  /// open-episode flag included — and the recorder untouched, so a
  /// snapshot cannot perturb the run. No-op unless telemetry was
  /// attached.
  void finalize_telemetry_into(obs::Snapshot& snap) const;

 private:
  struct Offload {
    OffloadId id = 0;
    JobId job = 0;
    ThreadCount threads = 0;
    MiB memory = 0;
    double remaining_work = 0.0;  // seconds at full speed
    OffloadCallback on_complete;
    EventHandle completion;
    AllocationId alloc = 0;
  };

  struct Process {
    MiB base_memory = 0;
    MiB offload_memory = 0;  // sum of active working sets
    int running_offloads = 0;
    ThreadCount active_threads = 0;  // sum of running offloads' threads
    KillCallback on_kill;
  };

  /// Integrates remaining work and busy-core time up to now().
  void settle();
  /// Recomputes the speed factor and completion events after any change.
  void reconcile();
  [[nodiscard]] double compute_speed() const;
  void finish_offload(OffloadId id);
  /// Fires the OOM killer while memory is oversubscribed.
  void check_oom();
  /// Tears one process down and (optionally) invokes its kill callback.
  void do_kill(JobId job, KillReason reason, bool invoke_callback = true);

  /// Updates the per-container residency gauges for `job`
  /// ("<prefix>.container<job>.resident_mb" / ".threads"); a job with no
  /// process records zeros. No-op while telemetry is detached.
  void note_container(JobId job);

  /// Cached instrument pointers; all null until attach_telemetry.
  struct Telemetry {
    obs::Recorder* rec = nullptr;
    std::string prefix;
    TimeWeighted* speed = nullptr;
    TimeWeighted* busy_cores = nullptr;
    obs::TimeHistogram* speed_seconds = nullptr;
    /// Registered only when the mem_bw contention model is on, so the
    /// default telemetry JSON stays byte-identical to the seed.
    TimeWeighted* bw_demand = nullptr;
  };

  Simulator& sim_;
  DeviceConfig config_;
  DeviceCapability capability_;
  std::string name_;
  Rng rng_;
  CoreMap cores_;
  PcieLink pcie_link_;
  std::map<JobId, Process> procs_;
  std::map<OffloadId, Offload> offloads_;
  MiB memory_used_ = 0;
  ThreadCount resident_thread_load_ = 0;
  double resident_bw_load_ = 0.0;
  double speed_ = 1.0;
  SimTime last_settle_ = 0.0;
  TimeWeighted busy_core_time_;
  DeviceStats stats_;
  OffloadId next_offload_id_ = 1;
  bool in_oom_sweep_ = false;
  bool oversub_active_ = false;
  Telemetry obs_;
};

}  // namespace phisched::phi
