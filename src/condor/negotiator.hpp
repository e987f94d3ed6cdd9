// The negotiator: periodic matchmaking between pending jobs and machine
// ads (Section II-D).
//
// Each negotiation cycle snapshots the machine ads once, runs the
// pre-cycle hook over that snapshot, and hands it with the pending jobs,
// in FIFO order, to the configured MatchStrategy (see
// condor/strategy.hpp): the default FifoStrategy walks jobs one at a time
// exactly like stock Condor; BatchStrategy drains a batch and solves its
// placement jointly under occupancy thresholds. A successful claim takes
// one slot from the cycle-local copy of the machine ad (so one cycle can
// pack several jobs onto a node without claiming more slots than it
// advertises) and hands the (job, node) pair to the dispatch callback,
// which models the shadow/starter launch path.
//
// The optional pre-cycle hook is the integration point for the paper's
// sharing-aware add-on: it runs right before matchmaking, exactly like the
// external scheduler that batches condor_qedit updates so they are visible
// to the next cycle. It only edits job ads, so the snapshot it reads is
// the one matchmaking sees.
#pragma once

#include <functional>
#include <memory>
#include <optional>

#include "common/rng.hpp"
#include "condor/collector.hpp"
#include "condor/schedd.hpp"
#include "condor/strategy.hpp"
#include "obs/recorder.hpp"
#include "sim/timer.hpp"

namespace phisched::condor {

struct NegotiatorConfig {
  SimTime cycle_interval = 10.0;
  /// Which matchmaking strategy runs the cycle (default: the paper's
  /// per-job FIFO walk).
  NegotiationConfig negotiation;
};

struct NegotiatorStats {
  std::uint64_t cycles = 0;
  std::uint64_t matches = 0;
  std::uint64_t rejected_dispatches = 0;
  /// Batch-strategy counters; stay zero under FifoStrategy.
  std::uint64_t batch_jobs = 0;
  std::uint64_t packed = 0;
  std::uint64_t occupancy_rejected = 0;
  /// Two-way (job, machine) matches evaluated. Not exported as telemetry.
  std::uint64_t match_evaluations = 0;
};

class Negotiator {
 public:
  /// Dispatch callback: launch `job` on `node`. Returning false refuses
  /// the match (the job goes back to pending).
  using DispatchFn = std::function<bool(JobId, NodeId)>;
  /// Pre-cycle hook: sees the cycle's machine-ad snapshot.
  using PreCycleHook = std::function<void(const MachineAds&)>;

  Negotiator(Simulator& sim, Schedd& schedd, Collector& collector,
             DispatchFn dispatch, NegotiatorConfig config, Rng rng);

  Negotiator(const Negotiator&) = delete;
  Negotiator& operator=(const Negotiator&) = delete;

  /// Installs the add-on hook executed at the start of every cycle.
  void set_pre_cycle_hook(PreCycleHook hook) {
    pre_cycle_ = std::move(hook);
  }

  /// Starts periodic cycles (the first fires after one interval).
  void start();
  void stop();

  /// Runs one negotiation cycle immediately (also used by tests).
  void run_cycle();

  [[nodiscard]] const NegotiatorStats& stats() const { return stats_; }

  /// Registers matchmaking instruments under `prefix` (e.g.
  /// "condor.negotiator"): cycle/match/rejection counters (bound to
  /// stats()), the pending-queue depth series, the pending-age
  /// distribution, and one "negotiation_cycle" event per cycle. A
  /// batch-strategy negotiator additionally registers the batch_jobs /
  /// packed / occupancy_rejected counters and the match_latency
  /// histogram — only then, so the FIFO default exports byte-identical
  /// JSON to the pre-strategy negotiator.
  void attach_telemetry(obs::Recorder& recorder, const std::string& prefix);

 private:
  /// Cached instrument pointers; all null until attach_telemetry.
  struct Telemetry {
    obs::Recorder* rec = nullptr;
    std::string prefix;
    TimeWeighted* pending_jobs = nullptr;
    obs::Gauge* pending_age_max_s = nullptr;
    Histogram* pending_age_hist = nullptr;
    // Batch-only instrument (null under FifoStrategy).
    Histogram* match_latency = nullptr;
  };

  Simulator& sim_;
  Schedd& schedd_;
  Collector& collector_;
  DispatchFn dispatch_;
  NegotiatorConfig config_;
  Rng rng_;
  std::unique_ptr<MatchStrategy> strategy_;
  PreCycleHook pre_cycle_;
  std::unique_ptr<PeriodicTimer> timer_;
  NegotiatorStats stats_;
  Telemetry obs_;
};

}  // namespace phisched::condor
