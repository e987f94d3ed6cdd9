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
// Cost O(k · min(w, Σwb) · min(T, Σt)) over the k items that fit the bin
// alone. Exact: an unfit item is never taken, and after items 0..i cell
// (m, t) equals cell (min(m, S_i), min(t, U_i)) for the prefix sums S_i, U_i
// of buckets and threads, so backtracking from the capped corner takes the
// picks a full (w, T) table would. On equal value the later item is left out.
#pragma once

#include "knapsack/solver.hpp"

namespace phisched::knapsack {

class Dp2DSolver final : public Solver {
 public:
  [[nodiscard]] Solution solve(const Problem& problem) const override;
  [[nodiscard]] std::string name() const override { return "dp2d"; }
};

}  // namespace phisched::knapsack
