// Matchmaking strategies: the pluggable core of the negotiator.
//
// Negotiator::run_cycle() owns the cycle mechanics every strategy shares —
// the pre-cycle hook, the machine-ad snapshot, the priority-then-FIFO job
// order, queue telemetry, and the cycle event — and delegates the actual
// matchmaking to a MatchStrategy:
//
//   FifoStrategy   the paper's Section II-D walk: one job at a time in
//                  order, candidates via the two-way Requirements check,
//                  one machine chosen per MachineOrder, resources deducted
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
#include <vector>

#include "classad/classad.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "condor/schedd.hpp"
#include "knapsack/solver.hpp"

namespace phisched::condor {

/// How the negotiator orders candidate machines for each job.
enum class MachineOrder {
  kFirstFit,  ///< lowest node id that matches
  kRandom,    ///< uniformly random matching machine (the paper's MCC:
              ///< "jobs are selected randomly at the cluster level")
  kBestRank,  ///< machine maximizing the job ad's Rank expression
              ///< (Condor's preference mechanism); ties go to the lowest
              ///< node id, jobs without Rank behave like kFirstFit
};

enum class MatchStrategyKind {
  kFifo,   ///< per-job FIFO walk (the paper's negotiator; default)
  kBatch,  ///< batched, occupancy-gated admission via the batch packer
};

[[nodiscard]] const char* match_strategy_name(MatchStrategyKind kind);

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

/// Everything one negotiation cycle exposes to its strategy. `machines`
/// is the cycle-local snapshot; strategies deduct claimed resources from
/// it as they match so one cycle never oversubscribes an advertisement.
struct MatchCycle {
  Schedd& schedd;
  Rng& rng;
  MachineOrder order;
  bool deduct_custom_resources;
  std::vector<std::pair<NodeId, classad::ClassAd>>& machines;
  /// Pending job ids in priority-then-FIFO order (see ordered_pending).
  const std::vector<JobId>& pending;
  const std::function<bool(JobId, NodeId)>& dispatch;
  SimTime now = 0.0;
  /// True when the negotiator wants per-match latency samples collected
  /// (only the batch telemetry registers the histogram, so the FIFO
  /// default pays nothing and exports byte-identical JSON).
  bool want_latencies = false;
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
  /// mark/release matches, and deduct from the machine snapshot.
  virtual CycleOutcome run(MatchCycle& cycle) = 0;

  [[nodiscard]] virtual MatchStrategyKind kind() const = 0;
};

/// Pending jobs sorted higher JobPrio first, FIFO (submission order)
/// within equal priorities — the order every strategy consumes.
[[nodiscard]] std::vector<JobId> ordered_pending(const Schedd& schedd,
                                                 std::vector<JobId> pending);

/// Deducts the job's requests from a cycle-local machine ad copy:
/// FreeSlots always; the custom Phi attributes (PhiFreeMemory,
/// PhiFreeDevices) only when `custom_resources` (see
/// NegotiatorConfig::deduct_custom_resources).
void deduct_from_ad(classad::ClassAd& machine, const classad::ClassAd& job,
                    bool custom_resources);

/// Chooses one machine for `job_ad` among those matching both ways, per
/// `order` (kRandom draws exactly one rng.index per call with a nonempty
/// candidate set; kBestRank breaks ties toward the lowest index). Returns
/// nullopt when nothing matches.
[[nodiscard]] std::optional<std::size_t> choose_machine(
    const classad::ClassAd& job_ad,
    const std::vector<std::pair<NodeId, classad::ClassAd>>& machines,
    MachineOrder order, Rng& rng);

[[nodiscard]] std::unique_ptr<MatchStrategy> make_match_strategy(
    const NegotiationConfig& config);

}  // namespace phisched::condor
