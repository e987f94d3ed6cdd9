#include "probes.hpp"

#include <algorithm>
#include <memory>
#include <vector>

#include "classad/classad.hpp"
#include "cluster/node.hpp"
#include "condor/ads.hpp"
#include "knapsack/batch.hpp"
#include "knapsack/solver.hpp"
#include "knapsack/value.hpp"
#include "sim/simulator.hpp"

namespace perfbench {

namespace {

using phisched::Rng;
using phisched::ThreadCount;
using phisched::cluster::ExperimentConfig;
using phisched::cluster::Node;
using phisched::cluster::StackConfig;
namespace condor = phisched::condor;
namespace knapsack = phisched::knapsack;

/// Job ads matched against every machine ad, per stack.
constexpr std::size_t kMatchJobs = 256;
constexpr std::size_t kMachineAdCalls = 2000;
/// The add-on's defaults: candidates per knapsack and thread overcommit.
constexpr std::size_t kKnapsackCandidates = 256;
constexpr double kThreadOvercommit = 1.5;
constexpr std::size_t kKnapsackSolves = 64;
/// BatchNegotiationConfig defaults: batch size and thread occupancy.
constexpr std::size_t kBatchSize = 16;
constexpr double kBatchOccupancy = 0.9;
constexpr std::size_t kBatches = 32;

/// Keeps probed calls from being optimized away.
volatile std::size_t g_sink = 0;

/// The idle nodes a stack config builds, configured as the Harness does.
struct Fleet {
  phisched::Simulator sim;
  std::vector<std::unique_ptr<Node>> nodes;
  std::vector<phisched::classad::ClassAd> ads;
};

std::unique_ptr<Fleet> build_fleet(const ExperimentConfig& c) {
  phisched::cluster::NodeConfig nc;
  nc.hw = c.node_hw;
  nc.devices = c.devices;
  nc.device.mem_bw = c.mem_bw;
  nc.device.pcie = c.pcie;
  nc.pcie_switch = c.pcie_switch;
  auto fleet = std::make_unique<Fleet>();
  const Rng rng(c.seed);
  for (std::size_t n = 0; n < c.node_count; ++n) {
    fleet->nodes.push_back(std::make_unique<Node>(
        fleet->sim, static_cast<phisched::NodeId>(n), nc,
        rng.child("node" + std::to_string(n))));
    fleet->ads.push_back(fleet->nodes.back()->machine_ad());
  }
  return fleet;
}

/// Requirements a job carries when the negotiator matches it: MC's
/// exclusive guard, MCC's free slot, and under MCCK the add-on's pin to
/// one node (jobs are submitted as `false` until pinned).
std::string match_requirements(StackConfig stack, std::size_t job,
                               std::size_t nodes) {
  switch (stack) {
    case StackConfig::kMC:
      return condor::exclusive_requirements();
    case StackConfig::kMCCK:
      return condor::pinned_requirements(
          static_cast<phisched::NodeId>(job % nodes));
    default:
      return condor::arbitrary_requirements();
  }
}

std::string submit_requirements(StackConfig stack) {
  if (stack == StackConfig::kMC) return condor::exclusive_requirements();
  return stack == StackConfig::kMCCK ? "false"
                                     : condor::arbitrary_requirements();
}

double elapsed_since(Clock::time_point t0, double scale) {
  return seconds_between(t0, Clock::now()) * scale;
}

}  // namespace

std::map<std::string, Distribution> run_probes(const Workload& w,
                                               Tracer& tracer,
                                               std::int64_t root) {
  const phisched::workload::JobSet jobs = sample_jobs(w);
  const std::vector<ExperimentConfig> stacks = stack_configs(w);
  const auto fleet = build_fleet(stacks.back());
  const std::size_t node_count = fleet->nodes.size();

  std::map<std::string, Distribution> out;
  const auto probe = [&](const std::string& name, auto&& body) {
    std::vector<double> samples;
    const auto t0 = Clock::now();
    body(samples);
    tracer.add("probe:" + name, root, t0, Clock::now());
    out[name] = summarize(std::move(samples));
  };

  // Per call: one job ad against every machine ad, divided by their count.
  probe("classad.match_ns", [&](std::vector<double>& samples) {
    for (const ExperimentConfig& c : stacks) {
      for (std::size_t i = 0; i < std::min(kMatchJobs, jobs.size()); ++i) {
        const auto job_ad = condor::make_job_ad(
            jobs[i], match_requirements(c.stack, i, node_count));
        std::size_t matched = 0;
        const auto t0 = Clock::now();
        for (const auto& machine : fleet->ads) {
          matched += phisched::classad::symmetric_match(job_ad, machine);
        }
        samples.push_back(elapsed_since(t0, 1e9) /
                          static_cast<double>(fleet->ads.size()));
        g_sink = g_sink + matched;
      }
    }
  });

  probe("classad.job_ad_us", [&](std::vector<double>& samples) {
    for (const ExperimentConfig& c : stacks) {
      const std::string reqs = submit_requirements(c.stack);
      for (const auto& job : jobs) {
        const auto t0 = Clock::now();
        const auto ad = condor::make_job_ad(job, reqs);
        samples.push_back(elapsed_since(t0, 1e6));
        g_sink = g_sink + ad.size();
      }
    }
  });

  probe("cluster.machine_ad_us", [&](std::vector<double>& samples) {
    for (std::size_t i = 0; i < kMachineAdCalls; ++i) {
      const Node& node = *fleet->nodes[i % node_count];
      const auto t0 = Clock::now();
      const auto ad = node.machine_ad();
      samples.push_back(elapsed_since(t0, 1e6));
      g_sink = g_sink + ad.size();
    }
  });

  // The add-on's shape: up to 256 FIFO candidates against one free card.
  probe("knapsack.dp1d_us", [&](std::vector<double>& samples) {
    const auto solver = knapsack::make_solver(knapsack::SolverKind::kDp1D);
    const auto hw = fleet->nodes.front()->device(0).capability().hw;
    knapsack::Problem problem;
    problem.capacity_mib = hw.usable_memory_mib();
    problem.thread_capacity = static_cast<ThreadCount>(
        static_cast<double>(hw.hw_threads()) * kThreadOvercommit);
    for (std::size_t s = 0; s < kKnapsackSolves; ++s) {
      problem.items.clear();
      for (std::size_t k = 0; k < jobs.size() &&
                              problem.items.size() < kKnapsackCandidates;
           ++k) {
        const auto& job = jobs[(s * kBatchSize + k) % jobs.size()];
        if (job.mem_req_mib > problem.capacity_mib ||
            job.threads_req > problem.thread_capacity ||
            job.threads_req > hw.hw_threads()) {
          continue;
        }
        problem.items.push_back(knapsack::Item{
            job.mem_req_mib, job.threads_req,
            knapsack::job_value(knapsack::ValueFunction::kPaperQuadratic,
                                job.threads_req, hw.hw_threads()),
            problem.items.size()});
      }
      const auto t0 = Clock::now();
      const knapsack::Solution solution = solver->solve(problem);
      samples.push_back(elapsed_since(t0, 1e6));
      g_sink = g_sink + solution.picks.size();
    }
  });

  // The batch strategy's shape: a 16-job batch against every idle card of
  // the fleet under the default 0.9 thread occupancy.
  probe("knapsack.dp2d_pack_ms", [&](std::vector<double>& samples) {
    const knapsack::BatchPacker packer(knapsack::SolverKind::kDp2D);
    knapsack::BatchProblem problem;
    std::vector<ThreadCount> bin_hw;
    for (const auto& node : fleet->nodes) {
      for (phisched::DeviceId d = 0; d < node->device_count(); ++d) {
        const auto& dev = node->device(d);
        const ThreadCount hw = dev.capability().hw.hw_threads();
        problem.bins.push_back(knapsack::BatchBin{
            dev.capability().hw.usable_memory_mib(),
            static_cast<ThreadCount>(kBatchOccupancy *
                                     static_cast<double>(hw)),
            dev.mem_bw_budget() >= 0.0
                ? node->middleware().unreserved_bandwidth(d)
                : -1.0});
        bin_hw.push_back(hw);
      }
    }
    const ThreadCount fleet_hw = *std::max_element(bin_hw.begin(), bin_hw.end());
    for (std::size_t b = 0; b < kBatches; ++b) {
      problem.jobs.clear();
      for (std::size_t k = 0; k < kBatchSize; ++k) {
        const auto& job = jobs[(b * kBatchSize + k) % jobs.size()];
        knapsack::BatchJob batch_job;
        batch_job.tag = k;
        batch_job.mem_mib = job.mem_req_mib;
        batch_job.threads = job.threads_req;
        batch_job.bw = job.mem_bw_mib_s;
        batch_job.value = knapsack::job_value(
            knapsack::ValueFunction::kPaperQuadratic, job.threads_req,
            fleet_hw);
        for (std::size_t bin = 0; bin < bin_hw.size(); ++bin) {
          if (job.threads_req <= bin_hw[bin]) batch_job.eligible.push_back(bin);
        }
        problem.jobs.push_back(std::move(batch_job));
      }
      const auto t0 = Clock::now();
      const knapsack::BatchResult result = packer.pack(problem);
      samples.push_back(elapsed_since(t0, 1e3));
      g_sink = g_sink + result.placed.size();
    }
  });

  return out;
}

}  // namespace perfbench
