#include "condor/strategy.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>

#include "common/check.hpp"
#include "condor/ads.hpp"
#include "knapsack/batch.hpp"
#include "knapsack/value.hpp"

namespace phisched::condor {

namespace {

/// One FIFO-style match attempt for `job_id` against the (deducted)
/// machine snapshot — the shared per-job path: FifoStrategy's whole loop,
/// and BatchStrategy's fallback for gang jobs the packer cannot place.
void match_one(MatchCycle& cycle, JobId job_id, CycleOutcome& outcome) {
  const JobRecord& rec = cycle.schedd.record(job_id);
  if (rec.state != JobState::kPending) return;  // hook may have acted
  const classad::ClassAd& job_ad = rec.ad;

  const auto chosen =
      choose_machine(job_ad, cycle.machines, cycle.order, cycle.rng);
  if (!chosen.has_value()) return;

  const NodeId node = cycle.machines[*chosen].first;
  cycle.schedd.mark_matched(job_id, node);
  if (cycle.dispatch(job_id, node)) {
    ++outcome.matches;
    deduct_from_ad(cycle.machines[*chosen].second, job_ad,
                   cycle.deduct_custom_resources);
    if (cycle.want_latencies) {
      outcome.match_latencies.push_back(cycle.now - rec.submit_time);
    }
  } else {
    ++outcome.rejected_dispatches;
    cycle.schedd.release_match(job_id);
  }
}

class FifoStrategy final : public MatchStrategy {
 public:
  CycleOutcome run(MatchCycle& cycle) override {
    CycleOutcome outcome;
    for (const JobId job_id : cycle.pending) {
      match_one(cycle, job_id, outcome);
    }
    return outcome;
  }

  [[nodiscard]] MatchStrategyKind kind() const override {
    return MatchStrategyKind::kFifo;
  }
};

/// Per-device packing budgets derived from one machine ad under the
/// occupancy thresholds: budget = floor(occ * total) - (total - free),
/// clamped to [0, free] — i.e. the headroom the threshold leaves once
/// residents (and this cycle's earlier claims) are accounted.
struct DeviceBudget {
  MiB mem = 0;
  ThreadCount threads = 0;
  /// Unreserved bandwidth headroom; < 0 when the machine does not
  /// publish PhiFreeBandwidth<d> (contention model off).
  double bw = -1.0;
};

DeviceBudget device_budget(const classad::ClassAd& machine, DeviceId d,
                           const BatchNegotiationConfig& config) {
  // Heterogeneous fleets publish per-device geometry; the node-level
  // attributes (the fleet max) remain the fallback for older ads.
  const auto hw = static_cast<ThreadCount>(
      machine.eval_integer(per_device_hw_threads_attr(d))
          .value_or(machine.eval_integer(kAttrPhiHwThreads).value_or(240)));
  const auto free_threads = static_cast<ThreadCount>(
      machine.eval_integer(per_device_threads_attr(d)).value_or(hw));
  const MiB free_mem =
      machine.eval_integer(per_device_memory_attr(d))
          .value_or(machine.eval_integer(kAttrPhiFreeMemory).value_or(0));
  const MiB total_mem =
      machine.eval_integer(per_device_total_memory_attr(d))
          .value_or(machine.eval_integer(kAttrPhiTotalMemory).value_or(free_mem));

  DeviceBudget budget;
  budget.bw = machine.eval_real(per_device_free_bw_attr(d)).value_or(-1.0);
  const auto thread_cap = static_cast<ThreadCount>(
      config.occupancy_threads * static_cast<double>(hw));
  budget.threads = std::clamp(thread_cap - (hw - free_threads),
                              ThreadCount{0}, std::max(ThreadCount{0}, free_threads));
  const auto mem_cap = static_cast<MiB>(config.occupancy_memory *
                                        static_cast<double>(total_mem));
  budget.mem =
      std::clamp(mem_cap - (total_mem - free_mem), MiB{0}, std::max(MiB{0}, free_mem));
  return budget;
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
    // priority-then-FIFO order; the remainder waits for the next cycle.
    // Jobs that currently match no machine are passed over rather than
    // drained: under MCCK the add-on parks jobs at `Requirements = false`
    // until it pins them, and its knapsack pins by value, not queue
    // position — if unmatchable jobs could occupy batch slots, sixteen
    // parked jobs at the head of the queue would starve every pinned
    // (matchable) job behind them forever. The FIFO walk has no such
    // hazard because it visits the whole queue.
    std::vector<JobId> batch;
    for (const JobId job_id : cycle.pending) {
      if (batch.size() >= config_.batch_size) break;
      const JobRecord& rec = cycle.schedd.record(job_id);
      if (rec.state != JobState::kPending) continue;
      if (!matches_somewhere(rec.ad, cycle.machines)) continue;
      batch.push_back(job_id);
    }
    outcome.batch_jobs = batch.size();
    if (batch.empty()) return outcome;

    // Two classes bypass the per-device packer and take the per-job FIFO
    // path after the batch is placed: gang jobs (devices_req > 1, which a
    // per-bin knapsack cannot co-schedule) and oversized jobs whose
    // declaration alone exceeds the occupancy budget of an IDLE device on
    // every machine — the threshold could never admit them, so without
    // the fallback they would starve forever.
    std::vector<JobId> singles;
    std::vector<JobId> fallback;
    for (const JobId job_id : batch) {
      const classad::ClassAd& ad = cycle.schedd.record(job_id).ad;
      if (ad.eval_integer(kAttrRequestPhiDevices).value_or(1) > 1 ||
          oversized(ad, cycle.machines)) {
        fallback.push_back(job_id);
      } else {
        singles.push_back(job_id);
      }
    }

    if (!singles.empty()) pack_singles(cycle, singles, outcome);
    for (const JobId job_id : fallback) match_one(cycle, job_id, outcome);
    return outcome;
  }

  [[nodiscard]] MatchStrategyKind kind() const override {
    return MatchStrategyKind::kBatch;
  }

 private:
  [[nodiscard]] static bool matches_somewhere(
      const classad::ClassAd& job_ad,
      const std::vector<std::pair<NodeId, classad::ClassAd>>& machines) {
    if (classad::requirements_never_met(job_ad)) return false;
    for (const auto& [node, ad] : machines) {
      if (classad::symmetric_match(job_ad, ad)) return true;
    }
    return false;
  }

  /// True when no machine's idle-device occupancy budget could ever hold
  /// this declaration (threads over floor(occ * hw) or memory over
  /// floor(occ-mem * total) everywhere).
  [[nodiscard]] bool oversized(
      const classad::ClassAd& job_ad,
      const std::vector<std::pair<NodeId, classad::ClassAd>>& machines) const {
    const MiB mem = job_ad.eval_integer(kAttrRequestPhiMemory).value_or(0);
    const auto threads = static_cast<ThreadCount>(
        job_ad.eval_integer(kAttrRequestPhiThreads).value_or(0));
    for (const auto& [node, ad] : machines) {
      const auto hw = static_cast<ThreadCount>(
          ad.eval_integer(kAttrPhiHwThreads).value_or(240));
      const MiB total = ad.eval_integer(kAttrPhiTotalMemory)
                            .value_or(ad.eval_integer(kAttrPhiFreeMemory)
                                          .value_or(0));
      const auto thread_cap = static_cast<ThreadCount>(
          config_.occupancy_threads * static_cast<double>(hw));
      const auto mem_cap = static_cast<MiB>(config_.occupancy_memory *
                                            static_cast<double>(total));
      if (threads <= thread_cap && mem <= mem_cap) return false;
    }
    return true;
  }

  void pack_singles(MatchCycle& cycle, const std::vector<JobId>& singles,
                    CycleOutcome& outcome) {
    // Bins: every (machine, device) pair under its occupancy budget.
    knapsack::BatchProblem problem;
    std::vector<std::pair<std::size_t, DeviceId>> bin_addr;
    std::vector<std::size_t> first_bin_of_machine;
    std::vector<int> devices_of_machine;
    first_bin_of_machine.reserve(cycle.machines.size());
    for (std::size_t m = 0; m < cycle.machines.size(); ++m) {
      const classad::ClassAd& ad = cycle.machines[m].second;
      const auto devices =
          static_cast<int>(ad.eval_integer(kAttrPhiDevices).value_or(1));
      first_bin_of_machine.push_back(problem.bins.size());
      devices_of_machine.push_back(devices);
      for (DeviceId d = 0; d < devices; ++d) {
        const DeviceBudget budget = device_budget(ad, d, config_);
        problem.bins.push_back(
            knapsack::BatchBin{budget.mem, budget.threads, budget.bw});
        bin_addr.emplace_back(m, d);
      }
    }

    // Value normalization: the paper's quadratic uses the hardware thread
    // count; on a mixed fleet, normalize against the largest card so a
    // job's value is comparable across every bin it may land in.
    ThreadCount fleet_hw = 0;
    for (const auto& [node, ad] : cycle.machines) {
      fleet_hw = std::max(fleet_hw, static_cast<ThreadCount>(
          ad.eval_integer(kAttrPhiHwThreads).value_or(240)));
    }
    if (fleet_hw <= 0) fleet_hw = 240;

    // Candidate matrix: the two-way Requirements check decides machine
    // eligibility; a pre-pinned device (the add-on's qedit) restricts the
    // job to that device's bin.
    for (std::size_t j = 0; j < singles.size(); ++j) {
      const classad::ClassAd& job_ad = cycle.schedd.record(singles[j]).ad;
      knapsack::BatchJob job;
      job.tag = j;
      job.mem_mib = job_ad.eval_integer(kAttrRequestPhiMemory).value_or(0);
      job.threads = static_cast<ThreadCount>(
          job_ad.eval_integer(kAttrRequestPhiThreads).value_or(0));
      job.bw = job_ad.eval_real(kAttrRequestPhiMemBandwidth).value_or(0.0);
      job.value = knapsack::job_value(knapsack::ValueFunction::kPaperQuadratic,
                                      job.threads, fleet_hw);
      const auto pinned = job_ad.eval_integer(kAttrPinnedDevice);
      for (std::size_t m = 0; m < cycle.machines.size(); ++m) {
        const classad::ClassAd& machine_ad = cycle.machines[m].second;
        if (!classad::symmetric_match(job_ad, machine_ad)) {
          continue;
        }
        for (DeviceId d = 0; d < devices_of_machine[m]; ++d) {
          if (pinned.has_value() && static_cast<DeviceId>(*pinned) != d) {
            continue;
          }
          // Mixed fleets: a job declaring more threads than this card
          // has can never run an offload there — keep the bin out of
          // its eligibility list (no-op on homogeneous fleets).
          const auto dev_hw = static_cast<ThreadCount>(
              machine_ad.eval_integer(per_device_hw_threads_attr(d))
                  .value_or(machine_ad.eval_integer(kAttrPhiHwThreads)
                                .value_or(240)));
          if (job.threads > dev_hw) continue;
          job.eligible.push_back(first_bin_of_machine[m] +
                                 static_cast<std::size_t>(d));
        }
      }
      problem.jobs.push_back(std::move(job));
    }

    const knapsack::BatchResult packed = packer_.pack(problem);
    outcome.packed += packed.placed.size();
    outcome.occupancy_rejected += packed.rejected.size();

    // Enact placements in the packer's deterministic order. The two-way
    // match re-check against the *deducted* snapshot keeps the slot
    // budget honest: a placement that no longer matches (earlier
    // placements consumed the node's last slot) stays pending and counts
    // as an occupancy reject for this cycle.
    for (const knapsack::BatchPlacement& placement : packed.placed) {
      const JobId job_id = singles[placement.job_tag];
      const auto [m, device] = bin_addr[placement.bin];
      auto& [node, machine_ad] = cycle.machines[m];
      const JobRecord& rec = cycle.schedd.record(job_id);
      if (rec.state != JobState::kPending) continue;
      if (!classad::symmetric_match(rec.ad, machine_ad)) {
        ++outcome.occupancy_rejected;
        continue;
      }
      if (!rec.ad.has(kAttrPinnedDevice)) {
        // Publish the packer's device choice the way the add-on does —
        // through the job ad — so the dispatch path pins the container
        // to the chosen coprocessor under the sharing stacks.
        cycle.schedd.qedit_expr(job_id, kAttrPinnedDevice,
                                std::to_string(device));
      }
      cycle.schedd.mark_matched(job_id, node);
      if (cycle.dispatch(job_id, node)) {
        ++outcome.matches;
        deduct_from_ad(machine_ad, rec.ad, cycle.deduct_custom_resources);
        if (cycle.want_latencies) {
          outcome.match_latencies.push_back(cycle.now - rec.submit_time);
        }
      } else {
        ++outcome.rejected_dispatches;
        cycle.schedd.release_match(job_id);
      }
    }
  }

  BatchNegotiationConfig config_;
  knapsack::BatchPacker packer_;
};

/// Full-consumption FINITE numeric parses: "0.9x" is an error, not 0.9,
/// and "nan"/"inf" are errors too — std::stod accepts both, and a NaN
/// occupancy would slip through the `<= 0.0` range check below only to
/// hit an out-of-range float→int cast (UB) in the budget math.
double parse_real(const std::string& key, const std::string& value) {
  std::size_t used = 0;
  double parsed = 0.0;
  try {
    parsed = std::stod(value, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used != value.size() || value.empty() || !std::isfinite(parsed)) {
    throw std::invalid_argument("negotiation: bad number for '" + key +
                                "': '" + value + "'");
  }
  return parsed;
}

std::size_t parse_count(const std::string& key, const std::string& value) {
  const double real = parse_real(key, value);
  const auto count = static_cast<std::size_t>(real);
  if (static_cast<double>(count) != real) {
    throw std::invalid_argument("negotiation: '" + key +
                                "' wants a whole number, got '" + value + "'");
  }
  return count;
}

}  // namespace

const char* match_strategy_name(MatchStrategyKind kind) {
  switch (kind) {
    case MatchStrategyKind::kFifo: return "fifo";
    case MatchStrategyKind::kBatch: return "batch";
  }
  return "?";
}

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
  if (config.batch.batch_size == 0) {
    throw std::invalid_argument("negotiation: size must be positive");
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

std::vector<JobId> ordered_pending(const Schedd& schedd,
                                   std::vector<JobId> pending) {
  // Higher JobPrio first; FIFO (the schedd's order) within equal
  // priorities. Jobs without the attribute have priority 0. Priorities
  // are evaluated once per job per cycle.
  std::vector<std::pair<std::int64_t, JobId>> ordered;
  ordered.reserve(pending.size());
  for (const JobId id : pending) {
    ordered.emplace_back(
        schedd.record(id).ad.eval_integer(kAttrJobPrio).value_or(0), id);
  }
  std::stable_sort(ordered.begin(), ordered.end(),
                   [](const auto& a, const auto& b) { return a.first > b.first; });
  pending.clear();
  for (const auto& [prio, id] : ordered) pending.push_back(id);
  return pending;
}

void deduct_from_ad(classad::ClassAd& machine, const classad::ClassAd& job,
                    bool custom_resources) {
  auto deduct_attr = [&](const char* machine_attr, const char* job_attr,
                         std::int64_t fallback) {
    if (!machine.has(machine_attr)) return;
    const auto have = machine.eval_integer(machine_attr).value_or(0);
    const auto want = job.eval_integer(job_attr).value_or(fallback);
    machine.insert_integer(machine_attr, have - want);
  };
  deduct_attr(kAttrFreeSlots, "RequestSlots", 1);
  if (custom_resources) {
    deduct_attr(kAttrPhiFreeMemory, kAttrRequestPhiMemory, 0);
    deduct_attr(kAttrPhiFreeDevices, kAttrRequestPhiDevices, 1);
  }
}

std::optional<std::size_t> choose_machine(
    const classad::ClassAd& job_ad,
    const std::vector<std::pair<NodeId, classad::ClassAd>>& machines,
    MachineOrder order, Rng& rng) {
  // A constant Requirements other than true (MCCK's parked jobs) matches
  // nothing; an empty candidate set draws no RNG, so skipping the scan
  // changes no decision.
  if (classad::requirements_never_met(job_ad)) return std::nullopt;

  // Candidate machines whose ads match the job both ways.
  std::vector<std::size_t> candidates;
  for (std::size_t m = 0; m < machines.size(); ++m) {
    if (classad::symmetric_match(job_ad, machines[m].second)) {
      candidates.push_back(m);
    }
  }
  if (candidates.empty()) return std::nullopt;

  std::size_t chosen = candidates.front();
  switch (order) {
    case MachineOrder::kFirstFit:
      break;
    case MachineOrder::kRandom:
      chosen = candidates[rng.index(candidates.size())];
      break;
    case MachineOrder::kBestRank: {
      // Strictly-greater updates over candidates in ascending machine
      // order: equal-Rank ties resolve to the lowest node id (the
      // candidate list is ordered by node id).
      double best_rank = classad::eval_rank(job_ad, machines[chosen].second);
      for (const std::size_t m : candidates) {
        const double rank = classad::eval_rank(job_ad, machines[m].second);
        if (rank > best_rank) {
          best_rank = rank;
          chosen = m;
        }
      }
      break;
    }
  }
  return chosen;
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
