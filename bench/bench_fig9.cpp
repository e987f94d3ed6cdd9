// Fig. 9: makespan vs cluster size (2..8 nodes) for each distribution and
// configuration, 400 synthetic jobs.
//
// Paper shape: at very small clusters any sharing wins (MCC ~ MCCK, "job
// pressure" is high); the knapsack's edge over random sharing grows with
// cluster size, where placement decisions matter.
#include "bench_json.hpp"
#include "bench_util.hpp"

int main(int argc, char** argv) {
  using namespace phisched;
  using namespace phisched::bench;

  const std::vector<std::size_t> sizes{2, 3, 4, 5, 6, 7, 8};

  if (run_json_mode(argc, argv, "fig9", [&sizes](std::uint64_t seed) {
        std::map<std::string, double> m;
        for (const auto dist : workload::all_distributions()) {
          const auto jobs = workload::make_synthetic_jobset(
              dist, 400, Rng(seed).child("syn"));
          const std::string d = workload::distribution_name(dist);
          for (const auto stack :
               {cluster::StackConfig::kMC, cluster::StackConfig::kMCC,
                cluster::StackConfig::kMCCK}) {
            const auto series = cluster::makespan_by_size(
                paper_cluster(stack, 8, seed), jobs, sizes);
            const std::string s = cluster::stack_config_name(stack);
            for (const auto& [n, makespan] : series) {
              m[d + "." + s + ".nodes" + std::to_string(n) + ".makespan"] =
                  makespan;
            }
          }
        }
        return m;
      })) {
    return 0;
  }

  print_header("Fig. 9: makespan vs cluster size",
               "400 synthetic jobs, sizes 2-8, MC/MCC/MCCK");

  for (const auto dist : workload::all_distributions()) {
    const auto jobs =
        workload::make_synthetic_jobset(dist, 400, Rng(7).child("syn"));
    std::printf("--- %s ---\n", workload::distribution_name(dist));
    std::vector<std::string> header{"Nodes"};
    for (std::size_t n : sizes) header.push_back(std::to_string(n));
    AsciiTable table(std::move(header));
    for (const auto stack :
         {cluster::StackConfig::kMC, cluster::StackConfig::kMCC,
          cluster::StackConfig::kMCCK}) {
      // The parallel sweep is bit-identical to the serial one and uses
      // whatever cores the machine has.
      const auto series =
          cluster::makespan_by_size(paper_cluster(stack), jobs, sizes);
      std::vector<std::string> row{cluster::stack_config_name(stack)};
      for (const auto& [n, makespan] : series) {
        row.push_back(AsciiTable::cell(makespan, 0));
      }
      table.add_row(std::move(row));
    }
    std::printf("%s\n", table.to_string().c_str());
  }
  return 0;
}
