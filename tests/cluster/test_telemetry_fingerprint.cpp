// Whole-stack telemetry pins for the counters the FIFO battery never
// moves: the PCIe link and switch, memory-bandwidth contention, batched
// negotiation, container kills, requeues and OOM kills. Each case pins
// FNV-1a hashes of the exported metrics and event-log JSON (captured
// before the telemetry counters were bound to the components' own
// stats), and checks that every exported count equals the one the same
// run's ExperimentResult reports, so the two cannot drift apart. Any
// hash drift means an export changed: fix the code, do not re-capture.
#include <gtest/gtest.h>

#include <string>

#include "cluster/harness.hpp"
#include "condor/strategy.hpp"
#include "obs/recorder.hpp"
#include "phi/capability.hpp"
#include "workload/jobset.hpp"

namespace phisched::cluster {
namespace {

using workload::OffloadProfile;
using workload::Segment;

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

/// Sum of the counters named "<layer>.<...>.<suffix>".
std::uint64_t sum_counters(const obs::MetricsSnapshot& m,
                           const std::string& layer,
                           const std::string& suffix) {
  std::uint64_t total = 0;
  for (const auto& [name, value] : m.counters) {
    if (name.starts_with(layer + ".") && name.ends_with("." + suffix)) {
      total += value;
    }
  }
  return total;
}

/// Runs `jobs` to completion under `config` with telemetry on, checks
/// that the exported counts agree with the result, and returns it.
ExperimentResult run_and_cross_check(ExperimentConfig config,
                                     const workload::JobSet& jobs) {
  config.telemetry = true;
  Harness harness(config);
  harness.submit(jobs);
  ExperimentResult r = harness.run_to_completion();
  EXPECT_NE(r.telemetry, nullptr);
  if (r.telemetry == nullptr) return r;
  const obs::MetricsSnapshot& m = r.telemetry->metrics;
  EXPECT_EQ(sum_counters(m, "phi", "offloads_started"), r.offloads_started);
  EXPECT_EQ(sum_counters(m, "phi", "oom_kills"), r.oom_kills);
  EXPECT_EQ(sum_counters(m, "phi", "container_kills"), r.container_kills);
  EXPECT_EQ(sum_counters(m, "cosmic", "offloads_queued"), r.offloads_queued);
  EXPECT_EQ(m.counters.at("condor.negotiator.cycles"), r.negotiation_cycles);
  EXPECT_EQ(m.counters.at("condor.negotiator.matches"), r.matches);
  EXPECT_EQ(m.counters.at("condor.schedd.jobs_requeued"), r.job_retries);
  EXPECT_EQ(m.counters.at("cluster.job_retries"), r.job_retries);
  return r;
}

void expect_hashes(const ExperimentResult& r, std::uint64_t metrics_hash,
                   std::uint64_t events_hash) {
  ASSERT_NE(r.telemetry, nullptr);
  EXPECT_EQ(fnv1a(obs::metrics_json(r.telemetry->metrics)), metrics_hash);
  EXPECT_EQ(fnv1a(obs::events_json(r.telemetry->events)), events_hash);
}

/// Twenty-four jobs of which every third declares 500 MiB and touches
/// more. Under MCC with two retries the big liars die three times and
/// fail, the mild ones fit on their second retry; with containers off a
/// big liar beside two other offloads oversubscribes the card's memory
/// and the OOM killer fires.
workload::JobSet lying_jobs() {
  workload::JobSet jobs;
  for (JobId id = 0; id < 24; ++id) {
    workload::JobSpec job;
    job.id = id;
    job.threads_req = 60;
    MiB touched = 1300;
    job.mem_req_mib = 1500;
    if (id % 6 == 0) {
      job.mem_req_mib = 500;
      touched = 6000;  // 500 -> 1000 -> 2000: still short after 2 retries
    } else if (id % 6 == 3) {
      job.mem_req_mib = 500;
      touched = 1800;  // fits on the second retry's 2000
    }
    job.profile = OffloadProfile(
        {Segment::host(1.0),
         Segment::offload(4.0 + static_cast<double>(id % 5), 60, touched),
         Segment::host(0.5)});
    jobs.push_back(job);
  }
  return jobs;
}

ExperimentConfig lying_config() {
  ExperimentConfig config;
  config.node_count = 2;
  config.stack = StackConfig::kMCC;
  config.seed = 42;
  config.max_retries = 2;
  return config;
}

TEST(TelemetryFingerprint, FleetBatchShapeWithPcieAndMemBw) {
  ExperimentConfig config;
  config.node_count = 2;
  config.stack = StackConfig::kMCC;
  config.seed = 42;
  config.devices = phi::parse_device_spec("2x5110P+2x7120P");
  config.pcie.contention = true;
  config.pcie_switch.enabled = true;
  config.mem_bw.contention = true;
  config.negotiation = condor::parse_negotiation("batch");
  workload::JobSet jobs =
      workload::make_real_jobset(60, Rng(config.seed).child("jobs"));
  for (std::size_t i = 0; i < jobs.size(); i += 2) {
    jobs[i].mem_bw_mib_s = 80000.0;  // a streaming kernel, as in fleet_batch
  }

  const ExperimentResult r = run_and_cross_check(config, jobs);
  EXPECT_EQ(r.jobs_completed, 60u);
  EXPECT_GT(r.offloads_queued, 0u);
  ASSERT_NE(r.telemetry, nullptr);
  const obs::MetricsSnapshot& m = r.telemetry->metrics;
  EXPECT_GT(m.counters.at("condor.negotiator.packed"), 0u);
  EXPECT_GT(m.counters.at("phi.node0.pcie_switch.bytes"), 0u);
  EXPECT_GT(m.counters.at("phi.node0.mic0.pcie.bytes_in"), 0u);
  expect_hashes(r, 14406271211431048748ull, 7976865772885052070ull);
}

TEST(TelemetryFingerprint, ContainerKillsRequeueLyingJobs) {
  const ExperimentResult r = run_and_cross_check(lying_config(), lying_jobs());
  EXPECT_GT(r.container_kills, 0u);
  EXPECT_GT(r.job_retries, 0u);
  EXPECT_GT(r.jobs_failed, 0u);
  EXPECT_EQ(r.oom_kills, 0u);
  expect_hashes(r, 2646699814315268847ull, 3598790132269810370ull);
}

TEST(TelemetryFingerprint, OomKillsWithContainersOff) {
  ExperimentConfig config = lying_config();
  config.disable_containers_for_testing = true;
  const ExperimentResult r = run_and_cross_check(config, lying_jobs());
  EXPECT_GT(r.oom_kills, 0u);
  EXPECT_EQ(r.container_kills, 0u);
  expect_hashes(r, 17708926491204978231ull, 4832589447945144698ull);
}

}  // namespace
}  // namespace phisched::cluster
