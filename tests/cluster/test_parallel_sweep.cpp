// The parallel sweep must be bit-identical to the serial one: every
// simulation is self-contained, so threading cannot change results.
#include <gtest/gtest.h>

#include "cluster/footprint.hpp"
#include "common/parallel.hpp"
#include "obs/recorder.hpp"
#include "workload/jobset.hpp"

namespace phisched::cluster {
namespace {

/// One experiment per config against the same job set, results in config
/// order, on at most `max_threads` threads.
std::vector<ExperimentResult> run_all(
    const std::vector<ExperimentConfig>& configs, const workload::JobSet& jobs,
    unsigned max_threads) {
  std::vector<ExperimentResult> out(configs.size());
  parallel_for(
      configs.size(),
      [&](std::size_t i) { out[i] = run_experiment(configs[i], jobs); },
      max_threads);
  return out;
}

TEST(ParallelSweep, MatchesSerialExactly) {
  const auto jobs = workload::make_real_jobset(60, Rng(13).child("jobs"));
  ExperimentConfig config;
  config.stack = StackConfig::kMCCK;
  const std::vector<std::size_t> sizes{1, 2, 3, 4};

  const auto serial = makespan_by_size(config, jobs, sizes,
                                       /*max_threads=*/1);
  const auto parallel = makespan_by_size(config, jobs, sizes,
                                         /*max_threads=*/4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].first, parallel[i].first);
    EXPECT_DOUBLE_EQ(serial[i].second, parallel[i].second);
  }
}

TEST(ParallelSweep, SingleThreadFallback) {
  const auto jobs = workload::make_real_jobset(20, Rng(14).child("jobs"));
  ExperimentConfig config;
  config.stack = StackConfig::kMCC;
  const auto result =
      makespan_by_size(config, jobs, {2}, /*max_threads=*/1);
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0].first, 2u);
  EXPECT_GT(result[0].second, 0.0);
}

TEST(ParallelSweep, MoreThreadsThanWork) {
  const auto jobs = workload::make_real_jobset(20, Rng(15).child("jobs"));
  ExperimentConfig config;
  const auto result =
      makespan_by_size(config, jobs, {1, 2}, /*max_threads=*/16);
  ASSERT_EQ(result.size(), 2u);
  EXPECT_GT(result[0].second, result[1].second);
}

TEST(ParallelSweep, TelemetryIsBitIdenticalAcrossThreading) {
  const auto jobs = workload::make_real_jobset(40, Rng(17).child("jobs"));
  std::vector<ExperimentConfig> configs(3);
  configs[0].stack = StackConfig::kMC;
  configs[1].stack = StackConfig::kMCC;
  configs[2].stack = StackConfig::kMCCK;
  for (auto& c : configs) {
    c.node_count = 2;
    c.telemetry = true;
  }

  const auto serial = run_all(configs, jobs, /*max_threads=*/1);
  const auto parallel = run_all(configs, jobs, /*max_threads=*/3);
  ASSERT_EQ(serial.size(), configs.size());
  ASSERT_EQ(parallel.size(), configs.size());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    EXPECT_DOUBLE_EQ(serial[i].makespan, parallel[i].makespan);
    ASSERT_NE(serial[i].telemetry, nullptr);
    ASSERT_NE(parallel[i].telemetry, nullptr);
    // Whole snapshots compare equal, counter for counter, event for
    // event — and so does the serialized export.
    EXPECT_EQ(*serial[i].telemetry, *parallel[i].telemetry) << "config " << i;
    EXPECT_EQ(obs::snapshot_json(*serial[i].telemetry),
              obs::snapshot_json(*parallel[i].telemetry));
  }
  // Sanity: the snapshots are not trivially equal-because-empty.
  EXPECT_FALSE(serial[0].telemetry->metrics.counters.empty());
  EXPECT_FALSE(serial[0].telemetry->events.empty());
}

TEST(ParallelSweep, EmptySizes) {
  const auto jobs = workload::make_real_jobset(5, Rng(16).child("jobs"));
  ExperimentConfig config;
  EXPECT_TRUE(makespan_by_size(config, jobs, {}).empty());
}

}  // namespace
}  // namespace phisched::cluster
