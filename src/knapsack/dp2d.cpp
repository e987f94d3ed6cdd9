#include "knapsack/dp2d.hpp"

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <vector>

#include "common/check.hpp"
#include "common/quantize.hpp"

namespace phisched::knapsack {

namespace {
// An item that fits the bin on its own, with its size in DP units.
struct Fit {
  std::size_t index = 0;  ///< into Problem::items
  std::size_t buckets = 0;
  std::size_t threads = 0;  ///< then in units of the fits' thread gcd
};
}  // namespace

Solution Dp2DSolver::solve(const Problem& problem) const {
  PHISCHED_REQUIRE(problem.capacity_mib >= 0, "dp2d: negative capacity");
  PHISCHED_REQUIRE(problem.quantum_mib > 0, "dp2d: quantum must be positive");
  PHISCHED_REQUIRE(problem.thread_capacity >= 0, "dp2d: negative thread cap");

  const std::size_t n = problem.items.size();
  const auto w = static_cast<std::size_t>(
      bucket_count(problem.capacity_mib, problem.quantum_mib));
  const auto tcap = static_cast<std::size_t>(problem.thread_capacity);
  if (n == 0 || w == 0 || tcap == 0) return {};

  // An item heavier than the bin or wider than its thread budget is never
  // taken, so it is dropped. The grid stops at the remaining items' totals:
  // a cell past them holds the same optimum and picks as the capped one.
  std::vector<Fit> fits;
  std::size_t cap_w = 0;
  std::size_t cap_t = 0;
  std::size_t g = 0;
  for (std::size_t i = 0; i < n; ++i) {
    PHISCHED_REQUIRE(problem.items[i].weight_mib > 0, "dp2d: zero-weight item");
    PHISCHED_REQUIRE(problem.items[i].threads > 0, "dp2d: zero-thread item");
    const auto buckets = static_cast<std::size_t>(
        quantize_up(problem.items[i].weight_mib, problem.quantum_mib) /
        problem.quantum_mib);
    const auto threads = static_cast<std::size_t>(problem.items[i].threads);
    if (buckets > w || threads > tcap) continue;
    fits.push_back(Fit{i, buckets, threads});
    cap_w = std::min(w, cap_w + buckets);
    cap_t = std::min(tcap, cap_t + threads);
    g = std::gcd(g, threads);
  }
  if (fits.empty()) return {};

  // Every set's thread total is a multiple of g, so column t holds what
  // column g * floor(t / g) does: the thread axis runs in units of g.
  cap_t /= g;
  for (Fit& fit : fits) fit.threads /= g;

  // best[m * stride + t]: the optimum over the items seen so far within m
  // buckets and t thread units, updated in place. Rows run from high to
  // low so a take always reads the previous item's row m - buckets.
  const std::size_t stride = cap_t + 1;
  const std::size_t cells = (cap_w + 1) * stride;
  std::vector<double> best(cells, 0.0);
  // Bit k * cells + m * stride + t: whether item k is taken at (m, t).
  std::vector<std::uint64_t> took((fits.size() * cells + 63) / 64, 0);
  std::size_t filled = 0;

  for (std::size_t k = 0; k < fits.size(); ++k) {
    const Fit& fit = fits[k];
    const double value = problem.items[fit.index].value;
    filled += (cap_w + 1 - fit.buckets) * (cap_t + 1 - fit.threads);
    for (std::size_t m = cap_w + 1; m-- > fit.buckets;) {
      const std::size_t row = m * stride;
      const std::size_t src = (m - fit.buckets) * stride;
      for (std::size_t t = fit.threads; t <= cap_t; ++t) {
        const double cand = best[src + t - fit.threads] + value;
        if (cand > best[row + t]) {
          best[row + t] = cand;
          const std::size_t bit = k * cells + row + t;
          took[bit / 64] |= std::uint64_t{1} << (bit % 64);
        }
      }
    }
  }

  std::vector<std::size_t> picks;
  std::size_t m = cap_w;
  std::size_t t = cap_t;
  for (std::size_t k = fits.size(); k-- > 0;) {
    const std::size_t bit = k * cells + m * stride + t;
    if ((took[bit / 64] >> (bit % 64)) & 1U) {
      picks.push_back(fits[k].index);
      m -= fits[k].buckets;
      t -= fits[k].threads;
    }
  }
  Solution s = materialize(problem, std::move(picks));
  PHISCHED_CHECK(feasible(problem, s), "dp2d produced an infeasible solution");
  s.cells = filled;
  return s;
}

}  // namespace phisched::knapsack
