#include "condor/strategy.hpp"

#include <algorithm>
#include <cstdio>
#include <set>

#include "common/check.hpp"
#include "common/parse.hpp"
#include "condor/ads.hpp"
#include "knapsack/batch.hpp"
#include "knapsack/value.hpp"

namespace phisched::condor {

namespace {

/// Every name a machine ad's expressions reach on the job side: TARGET.x,
/// and bare x (which falls back to the job when the machine lacks x).
/// Sorted by hash, each once whatever its spelling.
AttrNames machine_side_names(const MachineAds& machines) {
  AttrNames names;
  for (const auto& [node, ad] : machines) {
    ad.for_each_expr([&names](const classad::Expr& expr) {
      if (expr.kind == classad::Expr::Kind::kLiteral) return;  // most slots
      classad::for_each_reference(expr, [&names](const classad::Expr& ref) {
        if (ref.scope != classad::AttrScope::kMy) {
          names.emplace_back(ref.attr_hash, ref.attr);
        }
      });
    });
  }
  std::stable_sort(names.begin(), names.end(),
                   [](const auto& a, const auto& b) {
                     return a.first != b.first ? a.first < b.first
                                               : classad::iless(a.second,
                                                                b.second);
                   });
  names.erase(std::unique(names.begin(), names.end(),
                          [](const auto& a, const auto& b) {
                            return a.first == b.first &&
                                   classad::iequals(a.second, b.second);
                          }),
              names.end());
  return names;
}

/// Claims one slot in the cycle-local machine ad copy. Custom Phi
/// attributes stay as advertised until the next snapshot, as in vanilla
/// Condor: surplus matches fail at dispatch and retry next cycle.
void claim_slot(classad::ClassAd& machine) {
  if (!machine.has(kAttrFreeSlots)) return;
  machine.insert_integer(kAttrFreeSlots,
                         machine.eval_integer(kAttrFreeSlots).value_or(0) - 1);
}

/// Marks `rec` matched to `node` and dispatches it: a success claims a
/// slot from `machine`, a refusal puts the job back to pending.
void enact(MatchCycle& cycle, const JobRecord& rec, NodeId node,
           classad::ClassAd& machine, CycleOutcome& outcome) {
  cycle.schedd.mark_matched(rec, node);
  if (cycle.dispatch(rec.id, node)) {
    ++outcome.matches;
    claim_slot(machine);
    cycle.candidates.claimed();
    if (cycle.want_latencies) {
      outcome.match_latencies.push_back(cycle.now - rec.submit_time);
    }
  } else {
    ++outcome.rejected_dispatches;
    cycle.schedd.release_match(rec);
  }
}

/// One FIFO-style match attempt for `rec` against the machine snapshot,
/// net of this cycle's slot claims — the shared per-job path:
/// FifoStrategy's whole loop, and BatchStrategy's fallback for gang jobs
/// the packer cannot place.
void match_one(MatchCycle& cycle, const JobRecord& rec,
               CycleOutcome& outcome) {
  if (rec.state != JobState::kPending) return;  // hook may have acted
  const auto chosen = cycle.candidates.choose(rec, cycle.rng);
  if (!chosen.has_value()) return;
  auto& [node, machine] = cycle.machines[*chosen];
  enact(cycle, rec, node, machine, outcome);
}

class FifoStrategy final : public MatchStrategy {
 public:
  CycleOutcome run(MatchCycle& cycle) override {
    CycleOutcome outcome;
    for (const JobRecord* rec : cycle.pending) {
      match_one(cycle, *rec, outcome);
    }
    return outcome;
  }

  [[nodiscard]] MatchStrategyKind kind() const override {
    return MatchStrategyKind::kFifo;
  }
};

/// The declared threads and memory the occupancy thresholds allow on
/// one card: floor(occ * hw_threads) and floor(occ-mem * total memory).
struct OccupancyCap {
  ThreadCount threads = 0;
  MiB mem = 0;
};

OccupancyCap occupancy_cap(const DeviceAd& card,
                           const BatchNegotiationConfig& config) {
  return {static_cast<ThreadCount>(config.occupancy_threads *
                                   static_cast<double>(card.hw_threads)),
          static_cast<MiB>(config.occupancy_memory *
                           static_cast<double>(card.total_memory_mib))};
}

/// A card's packing bin: the headroom its occupancy cap leaves once
/// residents are accounted, clamped to [0, free].
knapsack::BatchBin device_bin(const DeviceAd& card,
                              const BatchNegotiationConfig& config) {
  const OccupancyCap cap = occupancy_cap(card, config);
  knapsack::BatchBin bin;
  bin.mem_capacity_mib =
      std::clamp(cap.mem - (card.total_memory_mib - card.free_memory_mib),
                 MiB{0}, std::max(MiB{0}, card.free_memory_mib));
  bin.thread_capacity =
      std::clamp(cap.threads - (card.hw_threads - card.free_threads),
                 ThreadCount{0}, std::max(ThreadCount{0}, card.free_threads));
  bin.bw_capacity = card.free_bw;
  return bin;
}

class BatchStrategy final : public MatchStrategy {
 public:
  explicit BatchStrategy(const BatchNegotiationConfig& config)
      : config_(config), packer_(config.packer) {
    PHISCHED_REQUIRE(config_.batch_size > 0,
                     "BatchStrategy: batch_size must be positive");
    PHISCHED_REQUIRE(config_.occupancy_threads > 0.0,
                     "BatchStrategy: occupancy_threads must be positive");
    PHISCHED_REQUIRE(config_.occupancy_memory > 0.0,
                     "BatchStrategy: occupancy_memory must be positive");
  }

  CycleOutcome run(MatchCycle& cycle) override {
    CycleOutcome outcome;

    // Drain up to batch_size live pending jobs, preserving the shared
    // FIFO order; the remainder waits for the next cycle.
    // Jobs that currently match no machine are passed over rather than
    // drained: under MCCK the add-on parks jobs at `Requirements = false`
    // until it pins them, and its knapsack pins by value, not queue
    // position — if unmatchable jobs could occupy batch slots, sixteen
    // parked jobs at the head of the queue would starve every pinned
    // (matchable) job behind them forever. The FIFO walk has no such
    // hazard because it visits the whole queue.
    PendingJobs batch;
    for (const JobRecord* rec : cycle.pending) {
      if (batch.size() >= config_.batch_size) break;
      if (rec->state != JobState::kPending) continue;
      if (cycle.candidates.candidates(*rec).empty()) continue;
      batch.push_back(rec);
    }
    outcome.batch_jobs = batch.size();
    if (batch.empty()) return outcome;

    // Claims change only FreeSlots, so each machine's cards are decoded
    // once per cycle.
    std::vector<std::vector<DeviceAd>> cards;
    cards.reserve(cycle.machines.size());
    for (const auto& [node, ad] : cycle.machines) {
      cards.push_back(device_ads(ad));
    }

    // Two classes bypass the per-device packer and take the per-job FIFO
    // path after the batch is placed: gang jobs (devices_req > 1, which a
    // per-bin knapsack cannot co-schedule) and oversized jobs whose
    // declaration alone exceeds the occupancy cap of every card in the
    // pool — the threshold could never admit them, so without the
    // fallback they would starve forever.
    PendingJobs singles;
    PendingJobs fallback;
    for (const JobRecord* rec : batch) {
      const JobRequest& request = cycle.schedd.view(*rec).request;
      if (request.devices > 1 || oversized(request, cards)) {
        fallback.push_back(rec);
      } else {
        singles.push_back(rec);
      }
    }

    if (!singles.empty()) pack_singles(cycle, cards, singles, outcome);
    for (const JobRecord* rec : fallback) match_one(cycle, *rec, outcome);
    return outcome;
  }

  [[nodiscard]] MatchStrategyKind kind() const override {
    return MatchStrategyKind::kBatch;
  }

 private:
  /// True when no card's occupancy cap could ever hold this declaration.
  [[nodiscard]] bool oversized(
      const JobRequest& request,
      const std::vector<std::vector<DeviceAd>>& cards) const {
    for (const auto& machine_cards : cards) {
      for (const DeviceAd& card : machine_cards) {
        const OccupancyCap cap = occupancy_cap(card, config_);
        if (request.threads <= cap.threads && request.mem_mib <= cap.mem) {
          return false;
        }
      }
    }
    return true;
  }

  void pack_singles(MatchCycle& cycle,
                    const std::vector<std::vector<DeviceAd>>& cards,
                    const PendingJobs& singles, CycleOutcome& outcome) {
    // Bins: every (machine, device) pair under its occupancy budget.
    // Value normalization: the paper's quadratic uses the hardware thread
    // count; on a mixed fleet, normalize against the largest card so a
    // job's value is comparable across every bin it may land in.
    knapsack::BatchProblem problem;
    std::vector<std::pair<std::size_t, DeviceId>> bin_addr;
    std::vector<std::size_t> first_bin_of_machine;
    first_bin_of_machine.reserve(cards.size());
    ThreadCount fleet_hw = 0;
    for (std::size_t m = 0; m < cards.size(); ++m) {
      first_bin_of_machine.push_back(problem.bins.size());
      for (std::size_t d = 0; d < cards[m].size(); ++d) {
        problem.bins.push_back(device_bin(cards[m][d], config_));
        bin_addr.emplace_back(m, static_cast<DeviceId>(d));
        fleet_hw = std::max(fleet_hw, cards[m][d].hw_threads);
      }
    }
    if (fleet_hw <= 0) fleet_hw = 240;

    // Candidate matrix: the two-way Requirements check decides machine
    // eligibility; a pre-pinned device (the add-on's qedit) restricts the
    // job to that device's bin.
    for (std::size_t j = 0; j < singles.size(); ++j) {
      const JobRecord& rec = *singles[j];
      const JobView& view = cycle.schedd.view(rec);
      knapsack::BatchJob job;
      job.tag = j;
      job.mem_mib = view.request.mem_mib;
      job.threads = view.request.threads;
      job.bw = view.request.bw;
      job.value = knapsack::job_value(knapsack::ValueFunction::kPaperQuadratic,
                                      job.threads, fleet_hw);
      const std::optional<std::int64_t> pinned = view.pinned_device;
      for (const std::size_t m : cycle.candidates.candidates(rec)) {
        for (std::size_t d = 0; d < cards[m].size(); ++d) {
          if (pinned.has_value() &&
              static_cast<DeviceId>(*pinned) != static_cast<DeviceId>(d)) {
            continue;
          }
          // Mixed fleets: a job declaring more threads than this card
          // has can never run an offload there — keep the bin out of
          // its eligibility list (no-op on homogeneous fleets).
          if (job.threads > cards[m][d].hw_threads) continue;
          job.eligible.push_back(first_bin_of_machine[m] + d);
        }
      }
      problem.jobs.push_back(std::move(job));
    }

    const knapsack::BatchResult packed = packer_.pack(problem);
    outcome.packed += packed.placed.size();
    outcome.occupancy_rejected += packed.rejected.size();

    // Enact placements in the packer's deterministic order. The two-way
    // match re-check against the slot-claimed snapshot keeps the slot
    // budget honest: a placement that no longer matches (earlier
    // placements consumed the node's last slot) stays pending and counts
    // as an occupancy reject for this cycle.
    for (const knapsack::BatchPlacement& placement : packed.placed) {
      const JobRecord& rec = *singles[placement.job_tag];
      const auto [m, device] = bin_addr[placement.bin];
      auto& [node, machine_ad] = cycle.machines[m];
      if (rec.state != JobState::kPending) continue;
      if (!cycle.candidates.matches(rec.ad, m)) {
        ++outcome.occupancy_rejected;
        continue;
      }
      if (!rec.ad.has(kAttrPinnedDevice)) {
        // Publish the packer's device choice the way the add-on does —
        // through the job ad — so the dispatch path pins the container
        // to the chosen coprocessor under the sharing stacks.
        cycle.schedd.qedit_expr(rec.id, kAttrPinnedDevice,
                                std::to_string(device));
      }
      enact(cycle, rec, node, machine_ad, outcome);
    }
  }

  BatchNegotiationConfig config_;
  knapsack::BatchPacker packer_;
};

double parse_real(const std::string& key, const std::string& value) {
  const auto parsed = read_real(value);
  if (!parsed) {
    throw std::invalid_argument("negotiation: bad number for '" + key +
                                "': '" + value + "'");
  }
  return *parsed;
}

/// An integer in [1, kMaxCount].
std::size_t parse_count(const std::string& key, const std::string& value) {
  constexpr std::int64_t kMaxCount = 1'000'000;
  const auto count = read_int(value);
  if (!count || *count < 1 || *count > kMaxCount) {
    throw std::invalid_argument(
        "negotiation: '" + key + "' wants a whole number in [1, " +
        std::to_string(kMaxCount) + "], got '" + value + "'");
  }
  return static_cast<std::size_t>(*count);
}

}  // namespace

NegotiationConfig parse_negotiation(const std::string& spec) {
  NegotiationConfig config;
  const std::size_t colon = spec.find(':');
  const std::string head = spec.substr(0, colon);
  if (head == "fifo") {
    if (colon != std::string::npos) {
      throw std::invalid_argument("negotiation: fifo takes no options");
    }
    return config;
  }
  if (head != "batch") {
    throw std::invalid_argument("negotiation: unknown strategy '" + head +
                                "' (fifo | batch[:key=value,...])");
  }
  config.strategy = MatchStrategyKind::kBatch;
  if (colon == std::string::npos) return config;

  std::size_t start = colon + 1;
  std::set<std::string> seen;
  while (start <= spec.size()) {
    const std::size_t comma = spec.find(',', start);
    const std::size_t end = comma == std::string::npos ? spec.size() : comma;
    const std::string pair = spec.substr(start, end - start);
    const std::size_t eq = pair.find('=');
    if (pair.empty() || eq == std::string::npos || eq == 0) {
      throw std::invalid_argument("negotiation: expected key=value, got '" +
                                  pair + "'");
    }
    const std::string key = pair.substr(0, eq);
    const std::string value = pair.substr(eq + 1);
    if (!seen.insert(key).second) {
      throw std::invalid_argument("negotiation: duplicate key '" + key +
                                  "' (each key may appear once)");
    }
    if (key == "size") {
      config.batch.batch_size = parse_count(key, value);
    } else if (key == "occ") {
      config.batch.occupancy_threads = parse_real(key, value);
    } else if (key == "occ-mem") {
      config.batch.occupancy_memory = parse_real(key, value);
    } else if (key == "packer") {
      config.batch.packer = knapsack::solver_kind_from_name(value);
    } else {
      throw std::invalid_argument(
          "negotiation: unknown key '" + key +
          "' (size | occ | occ-mem | packer)");
    }
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  if (config.batch.occupancy_threads <= 0.0 ||
      config.batch.occupancy_memory <= 0.0) {
    throw std::invalid_argument("negotiation: occupancy must be positive");
  }
  // Occupancy is a fraction-like multiplier of the hardware budget:
  // modest overcommit (say 1.5) is a legitimate ablation, but anything
  // past this bound is a typo that would overflow the budget math.
  constexpr double kMaxOccupancy = 16.0;
  if (config.batch.occupancy_threads > kMaxOccupancy ||
      config.batch.occupancy_memory > kMaxOccupancy) {
    throw std::invalid_argument(
        "negotiation: occupancy above the sane bound (16)");
  }
  return config;
}

std::string negotiation_to_string(const NegotiationConfig& c) {
  if (c.strategy == MatchStrategyKind::kFifo) return "fifo";
  char occ[64];
  char occ_mem[64];
  std::snprintf(occ, sizeof occ, "%g", c.batch.occupancy_threads);
  std::snprintf(occ_mem, sizeof occ_mem, "%g", c.batch.occupancy_memory);
  return "batch:size=" + std::to_string(c.batch.batch_size) + ",occ=" + occ +
         ",occ-mem=" + occ_mem +
         ",packer=" + knapsack::solver_kind_name(c.batch.packer);
}

CandidateMemo::CandidateMemo(Schedd& schedd, const MachineAds& machines)
    : schedd_(schedd), machines_(machines) {
  schedd_.set_machine_side_names(machine_side_names(machines_));
}

bool CandidateMemo::matches(const classad::ClassAd& job_ad, std::size_t m) {
  ++evaluations_;
  return classad::symmetric_match(job_ad, machines_[m].second);
}

const std::vector<std::size_t>& CandidateMemo::candidates(
    const JobRecord& rec) {
  static const std::vector<std::size_t> kNone;
  // A constant Requirements other than true (MCCK's parked jobs) matches
  // nothing; answering before classification keeps parked jobs out of
  // the autocluster table.
  const JobView& view = schedd_.view(rec);
  if (view.never_met) return kNone;
  Entry& entry = entries_[schedd_.autocluster(rec)];
  if (entry.version != version_) {
    entry.version = version_;
    entry.machines.clear();
    // Jobs of one autocluster have structurally identical Requirements,
    // so they all require the same Name, if any.
    if (view.required_name.has_value()) {
      scan_named(rec, *view.required_name, entry.machines);
    } else {
      for (std::size_t m = 0; m < machines_.size(); ++m) {
        if (matches(rec.ad, m)) entry.machines.push_back(m);
      }
    }
  }
  return entry.machines;
}

void CandidateMemo::scan_named(const JobRecord& rec, const std::string& name,
                               std::vector<std::size_t>& out) {
  static constexpr std::uint64_t kNameHash = classad::name_hash(kAttrName);
  const auto name_of = [this](std::size_t m) {
    return machines_[m].second.find(kNameHash, kAttrName);
  };
  if (!indexed_) {
    indexed_ = true;
    for (std::size_t m = 0; m < machines_.size(); ++m) {
      const classad::Expr* expr = name_of(m);
      if (expr == nullptr) continue;
      if (expr->kind != classad::Expr::Kind::kLiteral) {
        computed_names_.push_back(m);
      } else if (expr->literal.is_string()) {
        by_name_.emplace_back(classad::name_hash(expr->literal.as_string()),
                              m);
      }
    }
    std::sort(by_name_.begin(), by_name_.end());
  }
  // The named machines merged with the computed names, in ascending
  // order: the order the full scan lists candidates in.
  const auto scan = [&](std::size_t m) {
    if (matches(rec.ad, m)) out.push_back(m);
  };
  const std::uint64_t hash = classad::name_hash(name);
  auto computed = computed_names_.begin();
  for (auto it = std::lower_bound(by_name_.begin(), by_name_.end(),
                                  std::pair{hash, std::size_t{0}});
       it != by_name_.end() && it->first == hash; ++it) {
    const std::size_t m = it->second;
    if (!classad::iequals(name_of(m)->literal.as_string(), name)) continue;
    for (; computed != computed_names_.end() && *computed < m; ++computed) {
      scan(*computed);
    }
    scan(m);
  }
  for (; computed != computed_names_.end(); ++computed) scan(*computed);
}

std::optional<std::size_t> CandidateMemo::choose(const JobRecord& rec,
                                                 Rng& rng) {
  const std::vector<std::size_t>& list = candidates(rec);
  // An empty candidate set draws no RNG.
  if (list.empty()) return std::nullopt;
  return list[rng.index(list.size())];
}

std::unique_ptr<MatchStrategy> make_match_strategy(
    const NegotiationConfig& config) {
  switch (config.strategy) {
    case MatchStrategyKind::kFifo: return std::make_unique<FifoStrategy>();
    case MatchStrategyKind::kBatch:
      return std::make_unique<BatchStrategy>(config.batch);
  }
  PHISCHED_REQUIRE(false, "unknown match strategy");
  return nullptr;
}

}  // namespace phisched::condor
