// Ablations of the design choices DESIGN.md calls out, all on the Table II
// workload (1000 real jobs, 8 nodes):
//
//  1. Thread-budget semantics: the paper's "threads of all concurrent jobs
//     must not exceed the hardware" rule (deduct residents) with varying
//     overcommit, vs the literal Fig. 4 reading (fresh budget per pack).
//  2. Value function: Eq. 1's quadratic vs linear / unit / inverse.
//  3. Knapsack solver: the paper's 1-D heuristic DP vs the exact 2-D DP.
//  4. Cluster policy: knapsack vs first-fit / best-fit bin packing.
//  5. COSMIC queue discipline: strict FIFO vs first-fit drain.
//  6. Explicit PCIe link: offload inputs cross each card's fair-share
//     link at 6,000 / 3,000 / 1,500 MiB/s vs the calibrated implicit cost.
//  7. Machine-ad staleness: Condor's UPDATE_INTERVAL, MCC and MCCK.
#include "bench_util.hpp"

namespace {

using namespace phisched;
using namespace phisched::bench;

const workload::JobSet& jobs() {
  static const workload::JobSet kJobs =
      workload::make_real_jobset(1000, Rng(42).child("jobs"));
  return kJobs;
}

void report(AsciiTable& table, const std::string& label,
            const cluster::ExperimentConfig& config, double baseline) {
  const auto r = run_stack(config, jobs());
  table.add_row({label, AsciiTable::cell(r.makespan, 0),
                 pct(1.0 - r.makespan / baseline),
                 pct(r.avg_core_utilization),
                 AsciiTable::cell(static_cast<std::int64_t>(r.offloads_queued))});
}

}  // namespace

int main() {
  print_header("Ablations on the Table II workload",
               "design-choice sensitivity (1000 real jobs, 8 nodes)");

  const double mc_baseline =
      run_stack(paper_cluster(cluster::StackConfig::kMC), jobs())
          .makespan;
  std::printf("MC baseline makespan: %.0f s\n\n", mc_baseline);

  {
    AsciiTable table({"Thread budget", "Makespan", "vs MC", "Util",
                      "Offloads queued"});
    for (const double oc : {1.0, 1.25, 1.5, 2.0}) {
      auto config = paper_cluster(cluster::StackConfig::kMCCK);
      config.addon.deduct_resident_threads = true;
      config.addon.thread_overcommit = oc;
      report(table, "deduct residents, overcommit " + AsciiTable::cell(oc, 2),
             config, mc_baseline);
    }
    auto config = paper_cluster(cluster::StackConfig::kMCCK);
    config.addon.deduct_resident_threads = false;
    report(table, "literal Fig. 4 (fresh 240 per pack)", config, mc_baseline);
    std::printf("1) thread-budget semantics (MCCK)\n%s\n",
                table.to_string().c_str());
  }

  {
    AsciiTable table({"Value function", "Makespan", "vs MC", "Util",
                      "Offloads queued"});
    for (const auto vf :
         {knapsack::ValueFunction::kPaperQuadratic,
          knapsack::ValueFunction::kLinearThreads, knapsack::ValueFunction::kUnit,
          knapsack::ValueFunction::kInverseThreads}) {
      auto config = paper_cluster(cluster::StackConfig::kMCCK);
      config.knapsack.value_function = vf;
      report(table, knapsack::value_function_name(vf), config, mc_baseline);
    }
    std::printf("2) knapsack value function (Eq. 1 ablation)\n%s\n",
                table.to_string().c_str());
  }

  {
    AsciiTable table({"Solver", "Makespan", "vs MC", "Util",
                      "Offloads queued"});
    for (const auto kind :
         {knapsack::SolverKind::kDp1D, knapsack::SolverKind::kDp2D,
          knapsack::SolverKind::kGreedyDensity}) {
      auto config = paper_cluster(cluster::StackConfig::kMCCK);
      config.knapsack.solver = kind;
      if (kind == knapsack::SolverKind::kDp2D) {
        config.knapsack.max_candidates = 64;  // keep the 2-D DP tractable
      }
      report(table, knapsack::solver_kind_name(kind), config, mc_baseline);
    }
    std::printf("3) knapsack solver (paper heuristic vs exact)\n%s\n",
                table.to_string().c_str());
  }

  {
    AsciiTable table({"Cluster policy", "Makespan", "vs MC", "Util",
                      "Offloads queued"});
    report(table, "knapsack (MCCK)",
           paper_cluster(cluster::StackConfig::kMCCK), mc_baseline);
    report(table, "first-fit add-on",
           paper_cluster(cluster::StackConfig::kMCCFirstFit), mc_baseline);
    report(table, "best-fit add-on",
           paper_cluster(cluster::StackConfig::kMCCBestFit), mc_baseline);
    report(table, "random (MCC)", paper_cluster(cluster::StackConfig::kMCC),
           mc_baseline);
    report(table, "oracle LPT (knows durations)",
           paper_cluster(cluster::StackConfig::kMCCOracle), mc_baseline);
    std::printf("4) cluster-level packing policy\n%s\n",
                table.to_string().c_str());
  }

  {
    AsciiTable table({"COSMIC queue", "Makespan", "vs MC", "Util",
                      "Offloads queued"});
    for (const auto drain :
         {cosmic::DrainPolicy::kFifoStrict, cosmic::DrainPolicy::kFifoSkip}) {
      auto config = paper_cluster(cluster::StackConfig::kMCC);
      config.drain = drain;
      report(table,
             drain == cosmic::DrainPolicy::kFifoStrict ? "strict FIFO"
                                                       : "first-fit drain",
             config, mc_baseline);
    }
    std::printf("5) COSMIC offload queue discipline (MCC)\n%s\n",
                table.to_string().c_str());
  }

  {
    AsciiTable table({"PCIe model (MCCK)", "Makespan", "vs MC", "Util",
                      "Offloads queued"});
    for (const double bw : {0.0, 6000.0, 3000.0, 1500.0}) {
      auto config = paper_cluster(cluster::StackConfig::kMCCK);
      if (bw > 0.0) {
        // Each paper node holds one card, so its link is the node's only
        // bus. Inputs only: results and setup latency stay implicit.
        config.pcie.contention = true;
        config.pcie.bandwidth_mib_s = bw;
        config.pcie.output_fraction = 0.0;
      }
      report(table,
             bw == 0.0 ? std::string("implicit (calibrated default)")
                       : "explicit link @ " + AsciiTable::cell(bw, 0) + " MiB/s",
             config, mc_baseline);
    }
    std::printf(
        "6) explicit PCIe link (each card's fair-share link; gen2 x16 ~ 6 GB/s)\n"
        "%s\n",
        table.to_string().c_str());
  }

  {
    AsciiTable table({"Collector staleness", "MCC", "MCCK"});
    for (const double interval : {0.0, 30.0, 120.0, 300.0}) {
      auto mcc = paper_cluster(cluster::StackConfig::kMCC);
      mcc.ad_update_interval = interval;
      auto mcck = paper_cluster(cluster::StackConfig::kMCCK);
      mcck.ad_update_interval = interval;
      table.add_row(
          {interval == 0.0 ? std::string("always fresh")
                           : "UPDATE_INTERVAL " + AsciiTable::cell(interval, 0) + " s",
           AsciiTable::cell(run_stack(mcc, jobs()).makespan, 0),
           AsciiTable::cell(run_stack(mcck, jobs()).makespan, 0)});
    }
    std::printf(
        "7) machine-ad staleness (Condor UPDATE_INTERVAL; default deployment\n"
        "   pushes updates every ~300 s)\n%s\n",
        table.to_string().c_str());
  }
  return 0;
}
