// Matchmaking strategies: the pluggable core of the negotiator.
//
// Negotiator::run_cycle() owns the cycle mechanics every strategy shares —
// the machine-ad snapshot, the pre-cycle hook, the FIFO job order, queue
// telemetry, and the cycle event — and delegates the actual matchmaking
// to a MatchStrategy:
//
//   FifoStrategy   the paper's Section II-D walk: one job at a time in
//                  order, candidates via the two-way Requirements check,
//                  one matching machine drawn at random, one slot claimed
//                  from the cycle-local ad copy. Bit-identical to the
//                  pre-refactor negotiator (pinned by
//                  tests/cluster/test_fifo_equivalence.cpp).
//   BatchStrategy  CASE/BEMPS-style batched admission (SNIPPETS.md
//                  Snippet 1): drain up to batch_size jobs, build the
//                  job x (node, device) candidate matrix, solve the whole
//                  batch's placement with knapsack::BatchPacker, and admit
//                  only jobs whose placement keeps declared thread/memory
//                  occupancy under the configured thresholds.
//
// Both strategies read their candidate machines from the cycle's
// CandidateMemo: one scan per autocluster and snapshot version, not one
// per job (docs/negotiation.md, "Autoclusters").
//
// Determinism contract: a strategy's decisions are a pure function of the
// cycle snapshot (machine ads + pending queue) and the cycle's RNG draws.
// No wall clock, no pointer identity, no hash order — bit-identical across
// repeats.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "classad/classad.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "condor/collector.hpp"
#include "condor/schedd.hpp"
#include "knapsack/solver.hpp"

namespace phisched::condor {

enum class MatchStrategyKind {
  kFifo,   ///< per-job FIFO walk (the paper's negotiator; default)
  kBatch,  ///< batched, occupancy-gated admission via the batch packer
};

/// Knobs for the batched strategy.
struct BatchNegotiationConfig {
  /// Jobs drained per cycle (SCHED_MGB_BATCH_SIZE in Snippet 1).
  std::size_t batch_size = 16;
  /// Admission threshold on declared thread occupancy per device:
  /// (resident + newly packed declared threads) / hw_threads must stay
  /// <= this fraction (the "(active + new) / max < 0.9" gate). Values
  /// above 1.0 overcommit; must be > 0.
  double occupancy_threads = 0.9;
  /// Same gate on declared device memory (fraction of usable card
  /// memory). 1.0 = memory is bounded by the advertised free space only.
  double occupancy_memory = 1.0;
  /// Packer backend solving each cycle's placement.
  knapsack::SolverKind packer = knapsack::SolverKind::kDp2D;
};

/// The negotiation policy an experiment runs: which strategy, with which
/// knobs. Threaded ExperimentConfig -> Harness -> Negotiator and parsed
/// from the CLI's `--negotiation` grammar (see parse_negotiation).
struct NegotiationConfig {
  MatchStrategyKind strategy = MatchStrategyKind::kFifo;
  BatchNegotiationConfig batch;
};

/// Parses the CLI grammar: `fifo` or
/// `batch[:size=K,occ=X,occ-mem=X,packer=NAME]` (keys in any order,
/// NAME in {greedy, dp1d, dp2d, bnb}). Throws std::invalid_argument on
/// unknown strategies, keys, or packer names.
[[nodiscard]] NegotiationConfig parse_negotiation(const std::string& spec);

/// Round-trips parse_negotiation (batch configs print every key).
[[nodiscard]] std::string negotiation_to_string(const NegotiationConfig& c);

/// The machines each pending job matches both ways, memoized per
/// autocluster (Schedd::autocluster) for one version of the snapshot.
/// Every slot claim starts a new version. Jobs that share an autocluster
/// match the same machines, so between two claims the machines are
/// scanned once per autocluster, not once per job. The never-met check
/// stays per job, and so do the choice's RNG draw and the dispatch.
///
/// A job whose view names one machine (JobView::required_name, the
/// add-on's pin) is matched only against the machines whose Name is that
/// string literal, case-insensitively, and those whose Name is not a
/// literal: no other machine can satisfy its Requirements. The name index
/// is built once per cycle, on the first such scan.
class CandidateMemo {
 public:
  /// Hands the snapshot's machine-side names to `schedd`, which keys its
  /// autoclusters by them.
  CandidateMemo(Schedd& schedd, const MachineAds& machines);

  /// Indices of the snapshot machines matching the job both ways, in
  /// ascending order. Empty, without a scan, when the job's view says its
  /// Requirements is a literal other than true.
  [[nodiscard]] const std::vector<std::size_t>& candidates(
      const JobRecord& rec);

  /// A uniformly random candidate (the paper's MCC: "jobs are selected
  /// randomly at the cluster level"): exactly one rng.index draw over the
  /// ascending list when there is a candidate, none and nullopt when
  /// nothing matches.
  [[nodiscard]] std::optional<std::size_t> choose(const JobRecord& rec,
                                                  Rng& rng);

  /// The two-way match of one job against snapshot machine `m`.
  [[nodiscard]] bool matches(const classad::ClassAd& job_ad, std::size_t m);

  /// A slot was claimed from the snapshot: every memoized list is stale.
  void claimed() { ++version_; }

  /// Two-way matches evaluated so far.
  [[nodiscard]] std::uint64_t evaluations() const { return evaluations_; }

 private:
  struct Entry {
    std::uint64_t version = 0;
    std::vector<std::size_t> machines;
  };

  /// Appends, in ascending order, the machines a job that requires the
  /// Name `name` matches both ways.
  void scan_named(const JobRecord& rec, const std::string& name,
                  std::vector<std::size_t>& out);

  Schedd& schedd_;
  const MachineAds& machines_;
  std::uint64_t version_ = 1;
  std::uint64_t evaluations_ = 0;
  std::unordered_map<AutoclusterId, Entry> entries_;
  /// Built by the cycle's first scan_named: (name_hash, machine) for
  /// every machine whose Name is a string literal, sorted, and the
  /// machines whose Name is not a literal, ascending. A machine in
  /// neither has no Name or a non-string one, which no name pin accepts.
  bool indexed_ = false;
  std::vector<std::pair<std::uint64_t, std::size_t>> by_name_;
  std::vector<std::size_t> computed_names_;
};

/// Everything one negotiation cycle exposes to its strategy. `machines`
/// is the cycle-local snapshot; strategies claim a slot from it per match
/// so one cycle never claims more slots than a machine advertises.
struct MatchCycle {
  Schedd& schedd;
  Rng& rng;
  MachineAds& machines;
  /// Pending records in FIFO order, as Schedd::pending gives them.
  const PendingJobs& pending;
  const std::function<bool(JobId, NodeId)>& dispatch;
  SimTime now = 0.0;
  /// True when the negotiator wants per-match latency samples collected
  /// (only the batch telemetry registers the histogram, so the FIFO
  /// default pays nothing and exports byte-identical JSON).
  bool want_latencies = false;
  /// Where strategies read candidates from; enact() bumps its version.
  CandidateMemo candidates{schedd, machines};
};

/// What one strategy pass did. The batch counters stay zero under FIFO.
struct CycleOutcome {
  std::uint64_t matches = 0;
  std::uint64_t rejected_dispatches = 0;
  std::uint64_t batch_jobs = 0;           ///< jobs drained into the batch
  std::uint64_t packed = 0;               ///< placements the packer found
  std::uint64_t occupancy_rejected = 0;   ///< eligible but no capacity
  /// now - submit_time per successful match, when want_latencies.
  std::vector<SimTime> match_latencies;
};

class MatchStrategy {
 public:
  virtual ~MatchStrategy() = default;

  /// Runs one cycle's matchmaking. May edit pending jobs' ads (qedit),
  /// mark/release matches, and claim slots from the machine snapshot.
  virtual CycleOutcome run(MatchCycle& cycle) = 0;

  [[nodiscard]] virtual MatchStrategyKind kind() const = 0;
};

[[nodiscard]] std::unique_ptr<MatchStrategy> make_match_strategy(
    const NegotiationConfig& config);

}  // namespace phisched::condor
