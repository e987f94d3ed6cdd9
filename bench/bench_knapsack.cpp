// Microbenchmarks of the knapsack solvers (google-benchmark).
//
// Validates the paper's complexity claim (Section IV-C): the 1-D DP is
// O(n·w) with w = 160 memory buckets, "nearly linear with the number of
// jobs" — and quantifies what the exact 2-D DP and the branch-and-bound
// reference cost by comparison.
#include <benchmark/benchmark.h>

#include "common/quantize.hpp"
#include "common/rng.hpp"
#include "knapsack/bnb.hpp"
#include "knapsack/dp1d.hpp"
#include "knapsack/dp2d.hpp"
#include "knapsack/value.hpp"
#include "workload/templates.hpp"

namespace {

using namespace phisched;
using namespace phisched::knapsack;

Problem make_problem(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Problem p;
  p.capacity_mib = 7680;
  p.thread_capacity = 240;
  p.quantum_mib = 50;
  p.items.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Item item;
    item.weight_mib = rng.uniform_int(300, 3400);
    item.threads = static_cast<ThreadCount>(30 * rng.uniform_int(1, 8));
    item.value = job_value(ValueFunction::kPaperQuadratic, item.threads, 240);
    item.tag = i;
    p.items.push_back(item);
  }
  return p;
}

void BM_Dp1D(benchmark::State& state) {
  const Problem p = make_problem(static_cast<std::size_t>(state.range(0)), 42);
  Dp1DSolver solver;
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.solve(p));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Dp1D)->RangeMultiplier(2)->Range(16, 2048)->Complexity(
    benchmark::oN);

void BM_Dp2D(benchmark::State& state) {
  const Problem p = make_problem(static_cast<std::size_t>(state.range(0)), 42);
  Dp2DSolver solver;
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.solve(p));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Dp2D)->RangeMultiplier(2)->Range(16, 256)->Complexity(
    benchmark::oN);

// One bin of the batched negotiation strategy: 16 Table I jobs (template
// threads, memory drawn on the 50 MiB grid, valued against a 7120P's 244
// threads) against a budget shaped like BatchStrategy's at occupancy 0.9.
void BM_Dp2DBatchBin(benchmark::State& state, MiB capacity_mib,
                     ThreadCount thread_capacity) {
  Rng rng(42);
  const auto& templates = workload::table1_templates();
  Problem p;
  p.capacity_mib = capacity_mib;
  p.thread_capacity = thread_capacity;
  for (std::size_t i = 0; i < 16; ++i) {
    const auto& tpl = templates[rng.index(templates.size())];
    Item item;
    item.weight_mib =
        quantize_up(rng.uniform_int(tpl.memory_lo_mib, tpl.memory_hi_mib));
    item.threads = tpl.threads;
    item.value = job_value(ValueFunction::kPaperQuadratic, item.threads, 244);
    item.tag = i;
    p.items.push_back(item);
  }
  Dp2DSolver solver;
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.solve(p));
  }
}
BENCHMARK_CAPTURE(BM_Dp2DBatchBin, idle_7120P, 15872, 219);
BENCHMARK_CAPTURE(BM_Dp2DBatchBin, idle_5110P, 7680, 216);
// A busy card with 36 threads left: no Table I job (60+ threads) fits.
BENCHMARK_CAPTURE(BM_Dp2DBatchBin, nothing_fits, 3000, 36);

void BM_BranchAndBound(benchmark::State& state) {
  const Problem p = make_problem(static_cast<std::size_t>(state.range(0)), 42);
  BranchAndBoundSolver solver;
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.solve(p));
  }
}
BENCHMARK(BM_BranchAndBound)->DenseRange(8, 24, 4);

void BM_ValueFunction(benchmark::State& state) {
  ThreadCount t = 30;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        job_value(ValueFunction::kPaperQuadratic, t, 240));
    t = t % 240 + 30;
  }
}
BENCHMARK(BM_ValueFunction);

}  // namespace
