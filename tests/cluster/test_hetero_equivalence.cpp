// Heterogeneity must be pay-for-what-you-use: the default fleet (one
// default card per node, the paper's testbed) must equal an explicit
// `--devices 1x5110P` BIT-IDENTICALLY — exact result doubles and
// byte-identical telemetry JSON — across all 6 stacks x 3 seeds, and k
// default cards (`--devices k`) must equal `kx5110P`. Any drift means
// the named 5110P and the default card came apart.
#include <gtest/gtest.h>

#include <string>

#include "cluster/harness.hpp"
#include "obs/recorder.hpp"
#include "phi/capability.hpp"
#include "workload/jobset.hpp"

namespace phisched::cluster {
namespace {

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

constexpr StackConfig kStacks[] = {
    StackConfig::kMC,           StackConfig::kMCC,
    StackConfig::kMCCK,         StackConfig::kMCCFirstFit,
    StackConfig::kMCCBestFit,   StackConfig::kMCCOracle,
};
constexpr std::uint64_t kSeeds[] = {42ull, 7ull, 1234ull};

ExperimentResult run_one(const ExperimentConfig& config, std::uint64_t seed) {
  const auto jobs = workload::make_synthetic_jobset(
      workload::Distribution::kUniform, 60, Rng(seed).child("jobs"));
  Harness harness(config);
  harness.submit(jobs);
  return harness.run_to_completion();
}

TEST(HeteroEquivalence, HomogeneousSpecIsBitIdenticalToLegacyPath) {
  for (const StackConfig stack : kStacks) {
    for (const std::uint64_t seed : kSeeds) {
      SCOPED_TRACE(std::string(stack_config_name(stack)) + " seed " +
                   std::to_string(seed));

      ExperimentConfig defaults;
      defaults.node_count = 4;
      defaults.stack = stack;
      defaults.seed = seed;
      defaults.telemetry = true;

      ExperimentConfig spec = defaults;
      // 5110P == DeviceCapability{}, whose hw == PhiHardware{}.
      spec.devices = phi::parse_device_spec("1x5110P");

      const ExperimentResult a = run_one(defaults, seed);
      const ExperimentResult b = run_one(spec, seed);

      EXPECT_EQ(a.makespan, b.makespan);
      EXPECT_EQ(a.avg_core_utilization, b.avg_core_utilization);
      EXPECT_EQ(a.device_energy_mj, b.device_energy_mj);
      EXPECT_EQ(a.mean_turnaround, b.mean_turnaround);
      EXPECT_EQ(a.events_processed, b.events_processed);
      EXPECT_EQ(a.negotiation_cycles, b.negotiation_cycles);
      EXPECT_EQ(a.matches, b.matches);
      EXPECT_EQ(a.jobs_completed, b.jobs_completed);
      EXPECT_EQ(a.jobs_failed, b.jobs_failed);

      ASSERT_NE(a.telemetry, nullptr);
      ASSERT_NE(b.telemetry, nullptr);
      EXPECT_EQ(fnv1a(obs::metrics_json(a.telemetry->metrics)),
                fnv1a(obs::metrics_json(b.telemetry->metrics)));
      EXPECT_EQ(fnv1a(obs::events_json(a.telemetry->events)),
                fnv1a(obs::events_json(b.telemetry->events)));
    }
  }
}

// A bare card count must match the named spec too (cheaper single-stack
// spot check; the full cross product above covers the single-card
// geometry).
TEST(HeteroEquivalence, MultiCardSpecMatchesCountKnob) {
  ExperimentConfig counted;
  counted.node_count = 2;
  counted.devices = phi::parse_device_spec("2");
  counted.telemetry = true;

  ExperimentConfig spec = counted;
  spec.devices = phi::parse_device_spec("2x5110P");

  const ExperimentResult a = run_one(counted, 42ull);
  const ExperimentResult b = run_one(spec, 42ull);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.events_processed, b.events_processed);
  ASSERT_NE(a.telemetry, nullptr);
  ASSERT_NE(b.telemetry, nullptr);
  EXPECT_EQ(obs::metrics_json(a.telemetry->metrics),
            obs::metrics_json(b.telemetry->metrics));
  EXPECT_EQ(obs::events_json(a.telemetry->events),
            obs::events_json(b.telemetry->events));
}

// A card's capability must actually change the advertised geometry:
// a 7120P brings more memory than a 5110P, so more jobs pack per cycle.
TEST(HeteroEquivalence, MixedFleetDiffersFromHomogeneous) {
  ExperimentConfig homo;
  homo.node_count = 2;
  homo.telemetry = false;
  homo.devices = phi::parse_device_spec("2x5110P");

  ExperimentConfig mixed = homo;
  mixed.devices = phi::parse_device_spec("1x5110P+1x7120P");

  const ExperimentResult a = run_one(homo, 42ull);
  const ExperimentResult b = run_one(mixed, 42ull);
  EXPECT_EQ(a.jobs_completed, b.jobs_completed);  // everything still runs
  EXPECT_NE(a.makespan, b.makespan);
}

}  // namespace
}  // namespace phisched::cluster
