// Multi-device (gang) jobs: a job that holds several Xeon Phis at once
// and drives them with asynchronous offloads — the RequestPhiDevices > 1
// case the paper's job scripts allow.
//
//   ./gang_jobs [gang_jobs] [single_jobs]
#include <cstdio>

#include "cluster/harness.hpp"
#include "cluster/report.hpp"
#include "example_args.hpp"
#include "workload/jobset.hpp"

using namespace phisched;
using workload::OffloadProfile;
using workload::Segment;

namespace {

/// A dual-card job: both cards compute concurrently (async + sync), then
/// the host reduces, then one card finishes the tail.
workload::JobSpec make_gang_job(JobId id, Rng& rng) {
  workload::JobSpec job;
  job.id = id;
  job.template_name = "GANG2";
  job.devices_req = 2;
  job.mem_req_mib = 1500;  // per card
  job.threads_req = 240;
  std::vector<Segment> segments;
  const int phases = static_cast<int>(rng.uniform_int(2, 4));
  for (int p = 0; p < phases; ++p) {
    const SimTime d = rng.uniform_real(3.0, 6.0);
    segments.push_back(Segment::offload_async(d, 240, 1200, 0));
    segments.push_back(Segment::offload_async(d, 240, 1200, 1));
    segments.push_back(Segment::sync());
    segments.push_back(Segment::host(rng.uniform_real(2.0, 4.0)));
  }
  segments.push_back(Segment::offload(rng.uniform_real(2.0, 4.0), 240, 1200, 0));
  job.profile = OffloadProfile(std::move(segments));
  return job;
}

workload::JobSpec make_single_job(JobId id, Rng& rng) {
  workload::JobSpec job;
  job.id = id;
  job.template_name = "SOLO";
  job.mem_req_mib = 1000;
  job.threads_req = 60;
  std::vector<Segment> segments;
  for (int i = 0; i < 4; ++i) {
    if (i > 0) segments.push_back(Segment::host(rng.uniform_real(2.0, 5.0)));
    segments.push_back(Segment::offload(rng.uniform_real(3.0, 6.0), 60, 800));
  }
  job.profile = OffloadProfile(std::move(segments));
  return job;
}

}  // namespace

int main(int argc, char** argv) {
  const examples::PositionalArgs args(argc, argv,
                                      "gang_jobs [gang_jobs] [single_jobs]");
  const auto gang_count = static_cast<std::size_t>(
      args.integer(1, "gang_jobs", 30, 1, examples::kMaxJobs));
  const auto single_count = static_cast<std::size_t>(
      args.integer(2, "single_jobs", 90, 1, examples::kMaxJobs));

  Rng rng = Rng(42).child("gang-example");
  workload::JobSet jobs;
  JobId id = 0;
  for (std::size_t i = 0; i < gang_count; ++i) jobs.push_back(make_gang_job(id++, rng));
  for (std::size_t i = 0; i < single_count; ++i) jobs.push_back(make_single_job(id++, rng));

  std::printf("gang scheduling: %zu dual-card jobs + %zu single-card jobs on "
              "4 nodes x 2 Xeon Phis\n\n", gang_count, single_count);

  std::vector<cluster::NamedResult> rows;
  for (const auto stack : {cluster::StackConfig::kMC, cluster::StackConfig::kMCC,
                           cluster::StackConfig::kMCCK}) {
    cluster::ExperimentConfig config;
    config.node_count = 4;
    config.devices.assign(2, phi::DeviceCapability{});
    config.node_hw.slots = 32;
    config.stack = stack;
    cluster::Harness harness(config);
    harness.submit(jobs);
    rows.push_back(
        {cluster::stack_config_name(stack), harness.run_to_completion()});
  }
  std::printf("%s\n", cluster::comparison_table(rows).to_string().c_str());
  std::printf(
      "Gang jobs reserve BOTH cards of a node all-or-nothing; their async\n"
      "offloads run concurrently across the gang (sync barriers join them).\n"
      "The knapsack add-on places gangs by node first, then packs\n"
      "single-card jobs into the remaining per-device capacity.\n");
  return 0;
}
