// Step-driven experiment harness: the build-once, drive-incrementally
// core the one-shot run_experiment() wrapper is now a thin shim over.
//
// A Harness assembles the whole simulated stack once — sim::Simulator,
// phi::Device + PcieLink per card, cosmic::NodeMiddleware per node, the
// mini-Condor collector/negotiator/schedd, the optional sharing-aware
// add-on, and (when ExperimentConfig::telemetry is set) an obs::Recorder
// — and then exposes an explicit lifecycle:
//
//   cluster::Harness h(config);      // build the stack, nothing runs yet
//   h.submit(jobs);                  // enqueue work (open-loop arrivals
//   h.submit(late_job);              //  are first-class: submit any time)
//   h.run_until(t);                  // drive the event loop incrementally
//   auto mid = h.snapshot();         // non-perturbing mid-run metrics
//   auto r = h.run_to_completion();  // drain and collect the final result
//
// Determinism contract: for a given (config.seed, jobs), a harness that
// submits everything up front and drives to completion — by any mix of
// step() / run_until() / run_to_completion() — produces an
// ExperimentResult and telemetry snapshot bit-identical to
// run_experiment(config, jobs), even with snapshot() calls interleaved
// mid-run (snapshot() never mutates the stack, the event queue, or the
// RNG). tests/cluster/test_harness.cpp pins this for every StackConfig.
//
// Memory follows live jobs: a job that completes or fails retires. The
// schedd frees its ad, the harness erases its spec and claims, and its
// JobRun is freed at the next dispatch, from the negotiation cycle's
// event, where no callback of the run is on the stack or queued.
// The end-of-run statistics read what outlives it: the schedd's record
// shell (id, state, node, times, retries) and, with telemetry on, the
// slowdown sample it added to `cluster.job_slowdown` when it ended.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "cluster/admission.hpp"
#include "cluster/experiment.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "condor/collector.hpp"
#include "condor/schedd.hpp"
#include "sim/simulator.hpp"
#include "workload/jobset.hpp"
#include "workload/jobspec.hpp"

namespace phisched {
class Histogram;
class PeriodicTimer;
namespace condor {
class Negotiator;
}
namespace core {
class SharingAwareScheduler;
}
namespace obs {
class Recorder;
}
}  // namespace phisched

namespace phisched::cluster {

class JobRun;
class Node;

class Harness {
 public:
  /// Builds the full stack for `config`. No simulated time passes and no
  /// events are scheduled until the first driving call.
  explicit Harness(const ExperimentConfig& config);
  ~Harness();

  Harness(const Harness&) = delete;
  Harness& operator=(const Harness&) = delete;

  // -- Submission ----------------------------------------------------

  /// Enqueues one job. A job with submit_time <= now() enters the queue
  /// immediately; a later submit_time becomes a scheduled arrival (the
  /// paper's "dynamic scenario with continuously arriving jobs"). Every
  /// job must individually fit one coprocessor of the node's fleet
  /// (Section III) — a gang needs that many cards that each hold it —
  /// and ids must be unique across the harness's lifetime, retired jobs'
  /// included. Submitting after a previous workload drained resumes
  /// negotiation automatically.
  void submit(const workload::JobSpec& job);

  /// Enqueues a whole job set (in order).
  void submit(const workload::JobSet& jobs);

  /// Why `job` can never run here, or nullptr when one node holds
  /// devices_req cards that each fit its memory and threads: the
  /// precondition submit() enforces and the service's admission checks.
  [[nodiscard]] const char* unfit_reason(const workload::JobSpec& job) const;

  // -- Driving -------------------------------------------------------

  /// Runs the next pending event. Returns false when the queue is idle.
  bool step();

  /// Runs all events with time <= t, then advances the clock to t.
  /// Returns the number of events processed.
  std::size_t run_until(SimTime t);

  /// Convenience: run_until(now() + dt).
  std::size_t run_for(SimTime dt);

  /// Drains the event queue and returns the finalized result. Throws if
  /// any submitted job can never be scheduled (experiment deadlock).
  ExperimentResult run_to_completion();

  // -- Inspection ----------------------------------------------------

  [[nodiscard]] SimTime now() const;
  /// True once a driving call has armed the negotiator/sampler.
  [[nodiscard]] bool started() const { return started_; }
  /// True when every submitted job reached a terminal state.
  [[nodiscard]] bool complete() const;
  [[nodiscard]] std::size_t jobs_submitted() const { return total_jobs_; }
  [[nodiscard]] std::size_t jobs_completed() const;
  [[nodiscard]] std::size_t jobs_failed() const;
  /// Jobs sitting in the schedd's pending queue right now (submitted,
  /// not yet matched) — the service mode's admission queue depth.
  [[nodiscard]] std::size_t jobs_pending() const;

  /// Declared-free capacity of every coprocessor (node id, then device
  /// id), from the middleware's reservation ledger — the snapshot the
  /// admission controller's packer consult packs against.
  [[nodiscard]] std::vector<DeviceCapacity> device_capacities() const;

  /// Observer invoked on every terminal job transition (completed or
  /// failed) with the job's final record — the hook the service mode's
  /// SLA telemetry streams wait/turnaround samples from. Runs inside the
  /// event that ends the job, so its call order is bit-identical across
  /// repeats, and before the job retires, so the record still holds its
  /// ad. Pass nullptr to clear.
  void set_terminal_observer(
      std::function<void(const condor::JobRecord&)> observer);
  [[nodiscard]] const ExperimentConfig& config() const { return config_; }
  /// The job queue, for inspection.
  [[nodiscard]] const condor::Schedd& schedd() const { return schedd_; }
  /// Machine ads the nodes built for the collector (Node::ad_builds,
  /// summed). Not exported as telemetry.
  [[nodiscard]] std::uint64_t machine_ad_builds() const;
  /// Power-user access to the event loop (e.g. to interleave custom
  /// events with the cluster's); scheduling into the past is rejected.
  [[nodiscard]] Simulator& simulator() { return sim_; }

  // -- Results -------------------------------------------------------

  /// Extracts an ExperimentResult mid-run without tearing anything down:
  /// counters and distributions cover what has happened so far, and
  /// time-integrated metrics (utilization, energy, telemetry series) run
  /// to now(). The live stack is never mutated — telemetry is finalized
  /// in the snapshot taken of the recorder (open oversubscription
  /// episodes are closed there only), so interleaved snapshots cannot
  /// perturb the run or the final result.
  [[nodiscard]] ExperimentResult snapshot() const;

  /// The finalized end-of-run result; requires complete(). Integrates
  /// exactly to the makespan (bit-identical to the one-shot
  /// run_experiment() path) and finalizes telemetry the way snapshot()
  /// does, in the snapshot of the recorder. Cached: repeated calls
  /// return the same result until new work is submitted.
  [[nodiscard]] const ExperimentResult& result();

 private:
  /// Everything the harness keeps per job until it retires.
  struct Job {
    workload::JobSpec spec;  ///< as submitted; a retry boosts its memory
    /// The schedd's record, from the job's arrival on.
    const condor::JobRecord* record = nullptr;
    /// The current run, from dispatch until it ends.
    std::unique_ptr<JobRun> run;
    /// Whole devices an MC dispatch claimed, until the run ends.
    std::vector<DeviceAddress> exclusive_claims;
  };

  void build_nodes();
  void build_condor();
  /// Arms the first negotiation cycle, the periodic negotiator, and the
  /// utilization sampler — exactly once, on the first driving call, so
  /// submissions made before driving keep earlier event sequence numbers
  /// than the negotiator's timers (same tie-break as the one-shot path).
  void ensure_started();
  void take_sample();
  [[nodiscard]] std::string requirements_for_stack() const;
  bool dispatch(JobId job_id, NodeId node_id);
  /// The job's run ended on the node its record names. Its run moves to
  /// retired_runs_; a terminal job's entry goes.
  void on_job_done(Job& job, bool success);
  /// Every field of ExperimentResult except .telemetry, with
  /// time-integrated metrics run to `until`.
  [[nodiscard]] ExperimentResult gather(SimTime until) const;
  /// Cluster-level rollups written into `m`, a snapshot of the live
  /// recorder, which never holds them itself (`cluster.job_slowdown`,
  /// filled as jobs end, is the recorder's own).
  void roll_up(obs::MetricsSnapshot& m, const ExperimentResult& r) const;
  /// The one finalization behind result() and snapshot(): gather(until)
  /// plus, with telemetry on, one snapshot of the recorder with
  /// time-based instruments run to `until`, finalized in place (open
  /// oversubscription episodes closed, rollups written). Mutates
  /// nothing.
  [[nodiscard]] ExperimentResult finish(SimTime until) const;

  ExperimentConfig config_;
  Rng rng_;
  /// Declared before every component that captures a Simulator&.
  Simulator sim_;
  condor::Schedd schedd_;
  condor::Collector collector_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::unique_ptr<condor::Negotiator> negotiator_;
  std::unique_ptr<core::SharingAwareScheduler> addon_;
  /// Every submitted job that is not terminal yet, arrived or not. Only
  /// ever looked up by id: gather() walks the schedd's records in id
  /// order, and a terminal job's entry is erased.
  std::unordered_map<JobId, Job> jobs_;
  /// Runs that ended. A run ends inside its own callbacks, so it is
  /// freed later, at the top of the next dispatch, once quiescent().
  std::vector<std::unique_ptr<JobRun>> retired_runs_;
  /// `cluster.job_slowdown` in the recorder; null with telemetry off.
  Histogram* slowdown_ = nullptr;
  std::set<DeviceAddress> exclusive_claims_;
  std::size_t total_jobs_ = 0;
  std::unique_ptr<PeriodicTimer> sampler_;
  std::vector<std::pair<SimTime, double>> samples_;
  std::unique_ptr<obs::Recorder> recorder_;
  std::function<void(const condor::JobRecord&)> terminal_observer_;
  bool started_ = false;
  std::optional<ExperimentResult> final_;
};

}  // namespace phisched::cluster
