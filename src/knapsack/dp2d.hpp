// Exact 0-1 knapsack over BOTH resource dimensions: a 2-D dynamic program
// on (memory bucket, thread) states.
//
// Unlike the paper's 1-D formulation (dp1d.hpp), which folds the thread
// limit into the value as a heuristic, this solver carries the thread
// budget in the DP state and is exact for the doubly-constrained packing
// problem. It is the default packer of the batched negotiation strategy
// (condor::BatchStrategy); tests use it as ground truth and the ablation
// bench compares the paper's heuristic against it.
//
// Cost O(k · min(w, Σwb) · min(T, Σt) / g) over the k items that fit the
// bin alone, g being the gcd of their threads. Exact: an unfit item is
// never taken; after items 0..i cell (m, t) equals cell (min(m, S_i),
// min(t, U_i)) for the prefix sums S_i, U_i of buckets and threads; and
// every set's thread total is a multiple of g, so cell (m, t) equals cell
// (m, g · floor(t / g)). The thread axis therefore runs in units of g up to
// floor(min(T, Σt) / g), each cell sees the additions and comparisons the
// full (w, T) table makes, and backtracking from the capped corner takes
// the same picks. On equal value the later item is left out.
#pragma once

#include "knapsack/solver.hpp"

namespace phisched::knapsack {

class Dp2DSolver final : public Solver {
 public:
  [[nodiscard]] Solution solve(const Problem& problem) const override;
  [[nodiscard]] std::string name() const override { return "dp2d"; }
};

}  // namespace phisched::knapsack
