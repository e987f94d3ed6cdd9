// Microbenchmarks of the simulation substrates (google-benchmark):
// event-queue throughput, ClassAd parsing/evaluation/matching, and
// end-to-end experiment cost per job — the numbers that say whether the
// scheduler itself could ever be the bottleneck (paper §IV-C argues the
// knapsack is cheap; here the whole control plane is).
#include <benchmark/benchmark.h>

#include "classad/classad.hpp"
#include "classad/eval.hpp"
#include "classad/parser.hpp"
#include "cluster/experiment.hpp"
#include "cluster/harness.hpp"
#include "cluster/node.hpp"
#include "condor/ads.hpp"
#include "phi/capability.hpp"
#include "sim/simulator.hpp"
#include "workload/jobset.hpp"

namespace {

using namespace phisched;

void BM_EventQueueThroughput(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    Simulator sim;
    for (std::size_t i = 0; i < n; ++i) {
      sim.schedule_at(static_cast<SimTime>(i % 97), [] {});
    }
    benchmark::DoNotOptimize(sim.run());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_EventQueueThroughput)->Range(1024, 65536);

void BM_EventCancellation(benchmark::State& state) {
  for (auto _ : state) {
    Simulator sim;
    std::vector<EventHandle> handles;
    handles.reserve(1000);
    for (int i = 0; i < 1000; ++i) {
      handles.push_back(sim.schedule_at(1.0, [] {}));
    }
    for (auto& h : handles) h.cancel();
    benchmark::DoNotOptimize(sim.run());
  }
}
BENCHMARK(BM_EventCancellation);

void BM_ClassAdParse(benchmark::State& state) {
  const std::string source =
      "TARGET.PhiFreeMemory >= MY.RequestPhiMemory && TARGET.FreeSlots >= 1";
  for (auto _ : state) {
    benchmark::DoNotOptimize(classad::parse(source));
  }
}
BENCHMARK(BM_ClassAdParse);

void BM_ClassAdMatch(benchmark::State& state) {
  classad::ClassAd machine;
  machine.insert_string("Name", "node3");
  machine.insert_integer("PhiFreeMemory", 4200);
  machine.insert_integer("FreeSlots", 12);
  machine.insert_expr("Requirements", "MY.FreeSlots >= 1");
  classad::ClassAd job;
  job.insert_integer("RequestPhiMemory", 3400);
  job.insert_expr("Requirements",
                  "TARGET.PhiFreeMemory >= MY.RequestPhiMemory && "
                  "TARGET.FreeSlots >= 1");
  for (auto _ : state) {
    benchmark::DoNotOptimize(classad::symmetric_match(job, machine));
  }
}
BENCHMARK(BM_ClassAdMatch);

/// The two-way match against a real machine ad: an idle
/// `2x5110P+2x7120P` node publishes about 40 attributes, so attribute
/// lookup costs what it costs in a negotiation cycle. The job carries one
/// stack's Requirements: MC's exclusive guard, MCC's free slot, or MCCK's
/// pin to this node or to another one.
void BM_ClassAdMatchNodeAd(benchmark::State& state,
                           const std::string& requirements) {
  Simulator sim;
  cluster::NodeConfig config;
  config.devices = phi::parse_device_spec("2x5110P+2x7120P");
  const cluster::Node node(sim, 3, config, Rng(42));
  const classad::ClassAd machine = node.machine_ad();
  workload::JobSpec spec;
  spec.id = 1;
  spec.mem_req_mib = 3400;
  spec.threads_req = 120;
  const classad::ClassAd job = condor::make_job_ad(spec, requirements);
  for (auto _ : state) {
    benchmark::DoNotOptimize(classad::symmetric_match(job, machine));
  }
}
BENCHMARK_CAPTURE(BM_ClassAdMatchNodeAd, exclusive,
                  condor::exclusive_requirements());
BENCHMARK_CAPTURE(BM_ClassAdMatchNodeAd, arbitrary,
                  condor::arbitrary_requirements());
BENCHMARK_CAPTURE(BM_ClassAdMatchNodeAd, pinned_here,
                  condor::pinned_requirements(3));
BENCHMARK_CAPTURE(BM_ClassAdMatchNodeAd, pinned_elsewhere,
                  condor::pinned_requirements(4));

void BM_ExperimentPerJob(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto jobs = workload::make_real_jobset(n, Rng(42).child("jobs"));
  cluster::ExperimentConfig config;
  config.node_count = 4;
  config.stack = cluster::StackConfig::kMCCK;
  for (auto _ : state) {
    cluster::Harness harness(config);
    harness.submit(jobs);
    benchmark::DoNotOptimize(harness.run_to_completion());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_ExperimentPerJob)->Arg(100)->Arg(400)->Unit(
    benchmark::kMillisecond);

}  // namespace
