// Table II-sized pin: 1,000 Table I jobs on 8 nodes, the paper's Table II
// configuration, under MC, MCC and MCCK. The FIFO equivalence battery
// runs only 60 uniform jobs on 4 nodes, so it never fills the queue with
// hundreds of jobs that share one Requirements; this run does (MC refuses
// hundreds of thousands of dispatches per pass). The values below were
// captured before the negotiator memoized candidates per autocluster, so
// any drift means the memo changed a match, a refusal or an RNG draw.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <string>
#include <utility>

#include "cluster/harness.hpp"
#include "obs/recorder.hpp"
#include "workload/jobset.hpp"

namespace phisched::cluster {
namespace {

struct Fingerprint {
  StackConfig stack;
  double makespan;
  std::uint64_t events_processed;
  std::uint64_t negotiation_cycles;
  std::uint64_t matches;
  std::uint64_t rejected_dispatches;
  /// FNV-1a over every job's (start, finish) bit patterns, in id order.
  std::uint64_t start_finish_hash;
};

std::uint64_t fnv1a(std::uint64_t h, double x) {
  unsigned char bytes[sizeof x];
  std::memcpy(bytes, &x, sizeof x);
  for (const unsigned char b : bytes) {
    h ^= b;
    h *= 1099511628211ull;
  }
  return h;
}

const Fingerprint kTable2[] = {
    {StackConfig::kMC, 8286.2080632237721, 13692ull, 1658ull, 1000ull,
     381758ull, 5352206911948765928ull},
    {StackConfig::kMCC, 6091.3702873084612, 13253ull, 1219ull, 1000ull, 0ull,
     7688191357991246359ull},
    {StackConfig::kMCCK, 4607.5597739246878, 12956ull, 922ull, 1000ull, 0ull,
     14474933604985120097ull},
};

TEST(Table2Fingerprint, ThousandRealJobsOnEightNodesBitIdentical) {
  const workload::JobSet jobs =
      workload::make_real_jobset(1000, Rng(42).child("jobs"));
  for (const Fingerprint& golden : kTable2) {
    SCOPED_TRACE(stack_config_name(golden.stack));
    ExperimentConfig config;
    config.node_count = 8;
    config.stack = golden.stack;
    config.seed = 42;
    config.telemetry = true;

    Harness harness(config);
    std::map<JobId, std::pair<SimTime, SimTime>> times;
    harness.set_terminal_observer([&times](const condor::JobRecord& rec) {
      times[rec.id] = {rec.start_time, rec.finish_time};
    });
    harness.submit(jobs);
    const ExperimentResult r = harness.run_to_completion();

    std::uint64_t hash = 1469598103934665603ull;
    for (const auto& [id, start_finish] : times) {
      hash = fnv1a(fnv1a(hash, start_finish.first), start_finish.second);
    }
    ASSERT_NE(r.telemetry, nullptr);
    const auto& counters = r.telemetry->metrics.counters;
    const auto rejected =
        counters.find("condor.negotiator.rejected_dispatches");
    ASSERT_NE(rejected, counters.end());

    EXPECT_EQ(times.size(), jobs.size());
    EXPECT_EQ(r.makespan, golden.makespan);
    EXPECT_EQ(r.events_processed, golden.events_processed);
    EXPECT_EQ(r.negotiation_cycles, golden.negotiation_cycles);
    EXPECT_EQ(r.matches, golden.matches);
    EXPECT_EQ(rejected->second, golden.rejected_dispatches);
    EXPECT_EQ(hash, golden.start_finish_hash);
  }
}

// The schedd decodes a job's view once per submit, qedit or requeue, not
// once per cycle: MC and MCC never edit an ad (and this job set never
// fails), and MCCK's add-on edits at most three attributes per pin.
TEST(Table2Fingerprint, ViewDecodesDoNotGrowWithCycles) {
  const workload::JobSet jobs =
      workload::make_real_jobset(1000, Rng(42).child("jobs"));
  for (const StackConfig stack :
       {StackConfig::kMC, StackConfig::kMCC, StackConfig::kMCCK}) {
    SCOPED_TRACE(stack_config_name(stack));
    ExperimentConfig config;
    config.node_count = 8;
    config.stack = stack;
    config.seed = 42;

    Harness harness(config);
    harness.submit(jobs);
    const ExperimentResult r = harness.run_to_completion();
    const std::uint64_t decodes = harness.schedd().view_decodes();

    EXPECT_GT(r.negotiation_cycles, 900u);
    EXPECT_EQ(r.job_retries, 0u);
    if (stack == StackConfig::kMCCK) {
      EXPECT_EQ(r.addon_pins, jobs.size());
      EXPECT_GE(decodes, jobs.size());
      EXPECT_LE(decodes, jobs.size() + 3 * r.addon_pins);  // 4,000
    } else {
      EXPECT_EQ(decodes, jobs.size());
    }
  }
}

// A node rebuilds its ad only when what it advertises changed: free
// slots, free exclusive devices, or a card's unreserved memory, threads
// or bandwidth. The collector asks every node for its ad once per cycle
// (8 x 1,658, 8 x 1,219 and 8 x 922 requests); the kept ad answers the
// rest.
TEST(Table2Fingerprint, NodeAdsRebuildOnlyWhenTheirStateChanges) {
  const workload::JobSet jobs =
      workload::make_real_jobset(1000, Rng(42).child("jobs"));
  const std::pair<StackConfig, std::uint64_t> kBuilds[] = {
      {StackConfig::kMC, 2007}, {StackConfig::kMCC, 1785},
      {StackConfig::kMCCK, 1756}};
  for (const auto& [stack, builds] : kBuilds) {
    SCOPED_TRACE(stack_config_name(stack));
    ExperimentConfig config;
    config.node_count = 8;
    config.stack = stack;
    config.seed = 42;

    Harness harness(config);
    harness.submit(jobs);
    (void)harness.run_to_completion();
    EXPECT_EQ(harness.machine_ad_builds(), builds);
  }
}

}  // namespace
}  // namespace phisched::cluster
