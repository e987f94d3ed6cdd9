#include "knapsack/dp1d.hpp"

#include <vector>

#include "common/check.hpp"
#include "common/quantize.hpp"

namespace phisched::knapsack {

namespace {
struct Cell {
  double value = 0.0;
  ThreadCount threads = 0;
};
}  // namespace

Solution Dp1DSolver::solve(const Problem& problem) const {
  PHISCHED_REQUIRE(problem.capacity_mib >= 0, "dp1d: negative capacity");
  PHISCHED_REQUIRE(problem.quantum_mib > 0, "dp1d: quantum must be positive");

  const std::size_t n = problem.items.size();
  const auto w = static_cast<std::size_t>(
      bucket_count(problem.capacity_mib, problem.quantum_mib));
  if (n == 0 || w == 0) return {};

  // Item weights in buckets, rounded up (a job must fully fit).
  std::vector<std::size_t> wb(n);
  for (std::size_t i = 0; i < n; ++i) {
    PHISCHED_REQUIRE(problem.items[i].weight_mib > 0, "dp1d: zero-weight item");
    wb[i] = static_cast<std::size_t>(
        quantize_up(problem.items[i].weight_mib, problem.quantum_mib) /
        problem.quantum_mib);
  }

  // best[m]: the optimum over the items seen so far within m buckets,
  // updated in place. Capacities run from high to low so a take always
  // reads the previous item's cell m - wb; cells below an item's weight
  // keep the previous item's value and are never visited.
  std::vector<Cell> best(w + 1);
  // took[i * (w+1) + m]: whether item i is taken in the optimum for
  // capacity m given items 0..i.
  std::vector<std::uint8_t> took(n * (w + 1), 0);
  std::size_t filled = 0;

  for (std::size_t i = 0; i < n; ++i) {
    const Item& item = problem.items[i];
    if (wb[i] > w) continue;
    filled += w + 1 - wb[i];
    for (std::size_t m = w + 1; m-- > wb[i];) {
      const Cell& base = best[m - wb[i]];
      Cell cand;
      cand.threads = base.threads + item.threads;
      // The paper's thread rule: exceeding the hardware thread budget
      // zeroes the knapsack value, so such a take never wins.
      cand.value = cand.threads > problem.thread_capacity
                       ? 0.0
                       : base.value + item.value;
      if (cand.value > best[m].value) {
        best[m] = cand;
        took[i * (w + 1) + m] = 1;
      }
    }
  }

  // Reconstruct from the full-capacity cell.
  std::vector<std::size_t> picks;
  std::size_t m = w;
  for (std::size_t i = n; i-- > 0;) {
    if (took[i * (w + 1) + m] != 0) {
      picks.push_back(i);
      m -= wb[i];
    }
  }
  Solution s = materialize(problem, std::move(picks));
  PHISCHED_CHECK(feasible(problem, s), "dp1d produced an infeasible solution");
  s.cells = filled;
  return s;
}

}  // namespace phisched::knapsack
