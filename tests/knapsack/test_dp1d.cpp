#include "knapsack/dp1d.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/quantize.hpp"
#include "common/rng.hpp"
#include "knapsack/value.hpp"
#include "workload/templates.hpp"

namespace phisched::knapsack {
namespace {

Item item(MiB weight, ThreadCount threads, double value) {
  Item it;
  it.weight_mib = weight;
  it.threads = threads;
  it.value = value;
  return it;
}

TEST(Dp1D, EmptyProblem) {
  Dp1DSolver solver;
  Problem p;
  p.capacity_mib = 8000;
  EXPECT_TRUE(solver.solve(p).empty());
}

TEST(Dp1D, ZeroCapacity) {
  Dp1DSolver solver;
  Problem p;
  p.capacity_mib = 0;
  p.items.push_back(item(100, 60, 1.0));
  EXPECT_TRUE(solver.solve(p).empty());
}

TEST(Dp1D, PacksEverythingWhenItFits) {
  Dp1DSolver solver;
  Problem p;
  p.capacity_mib = 8000;
  p.items = {item(1000, 60, 1.0), item(2000, 60, 1.0), item(3000, 60, 1.0)};
  const Solution s = solver.solve(p);
  EXPECT_EQ(s.picks.size(), 3u);
  EXPECT_DOUBLE_EQ(s.value, 3.0);
  EXPECT_EQ(s.threads, 180);
}

TEST(Dp1D, ClassicKnapsackOptimum) {
  // Weights 10,20,30 (x100 MiB), values 60,100,120, capacity 50:
  // optimum = items 2+3 with value 220.
  Dp1DSolver solver;
  Problem p;
  p.capacity_mib = 5000;
  p.quantum_mib = 100;
  p.thread_capacity = 10000;  // threads irrelevant here
  p.items = {item(1000, 1, 60.0), item(2000, 1, 100.0), item(3000, 1, 120.0)};
  const Solution s = solver.solve(p);
  EXPECT_EQ(s.picks, (std::vector<std::size_t>{1, 2}));
  EXPECT_DOUBLE_EQ(s.value, 220.0);
}

TEST(Dp1D, ThreadRuleExcludesOverflowingSets) {
  // Two jobs fit in memory but not in threads: the value-zero rule keeps
  // the packed set thread-feasible.
  Dp1DSolver solver;
  Problem p;
  p.capacity_mib = 8000;
  p.thread_capacity = 240;
  p.items = {item(1000, 180, 0.44), item(1000, 180, 0.44),
             item(1000, 60, 0.94)};
  const Solution s = solver.solve(p);
  EXPECT_LE(s.threads, 240);
  // Best feasible: one 180 + the 60.
  EXPECT_DOUBLE_EQ(s.value, 0.44 + 0.94);
}

TEST(Dp1D, WeightsRoundUpToQuantum) {
  Dp1DSolver solver;
  Problem p;
  p.capacity_mib = 100;
  p.quantum_mib = 50;
  // 60 MiB rounds up to 100: only one fits.
  p.items = {item(60, 10, 1.0), item(60, 10, 1.0)};
  const Solution s = solver.solve(p);
  EXPECT_EQ(s.picks.size(), 1u);
}

TEST(Dp1D, PrefersManyNarrowJobsUnderPaperValues) {
  Dp1DSolver solver;
  Problem p;
  p.capacity_mib = 4000;
  p.thread_capacity = 240;
  // One wide job vs four narrow jobs of the same total memory.
  p.items = {item(4000, 240, job_value(ValueFunction::kPaperQuadratic, 240, 240)),
             item(1000, 60, job_value(ValueFunction::kPaperQuadratic, 60, 240)),
             item(1000, 60, job_value(ValueFunction::kPaperQuadratic, 60, 240)),
             item(1000, 60, job_value(ValueFunction::kPaperQuadratic, 60, 240)),
             item(1000, 60, job_value(ValueFunction::kPaperQuadratic, 60, 240))};
  const Solution s = solver.solve(p);
  EXPECT_EQ(s.picks.size(), 4u);  // the four narrow jobs
  EXPECT_EQ(s.threads, 240);
}

TEST(Dp1D, OversizedItemIgnored) {
  Dp1DSolver solver;
  Problem p;
  p.capacity_mib = 1000;
  p.items = {item(2000, 60, 5.0), item(500, 60, 1.0)};
  const Solution s = solver.solve(p);
  EXPECT_EQ(s.picks, (std::vector<std::size_t>{1}));
}

TEST(Dp1D, SolutionReportsQuantizedWeight) {
  Dp1DSolver solver;
  Problem p;
  p.capacity_mib = 1000;
  p.items = {item(120, 60, 1.0)};
  const Solution s = solver.solve(p);
  EXPECT_EQ(s.weight_mib, 150);  // 120 rounded up to the 50 MiB grid
}

TEST(Dp1D, ZeroWeightItemRejected) {
  Dp1DSolver solver;
  Problem p;
  p.capacity_mib = 1000;
  p.items = {item(0, 60, 1.0)};
  EXPECT_THROW((void)solver.solve(p), std::invalid_argument);
}

TEST(Dp1D, Name) { EXPECT_EQ(Dp1DSolver().name(), "dp1d"); }

// The two-row formulation: every item copies the whole previous row into
// the next one, cells below its weight included, then the rows swap.
// Dp1DSolver must pick exactly the same items.
struct Cell {
  double value = 0.0;
  ThreadCount threads = 0;
};

Solution two_row_reference(const Problem& problem) {
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

  std::vector<Cell> prev(w + 1);
  std::vector<Cell> curr(w + 1);
  // took[i * (w+1) + m]: whether item i is taken in the optimum for
  // capacity m given items 0..i.
  std::vector<std::uint8_t> took(n * (w + 1), 0);

  for (std::size_t i = 0; i < n; ++i) {
    const Item& item = problem.items[i];
    for (std::size_t m = 0; m <= w; ++m) {
      Cell best = prev[m];
      bool take = false;
      if (wb[i] <= m) {
        const Cell& base = prev[m - wb[i]];
        Cell cand;
        cand.threads = base.threads + item.threads;
        // The paper's thread rule: exceeding the hardware thread budget
        // zeroes the knapsack value, so such a take never wins.
        cand.value = cand.threads > problem.thread_capacity
                         ? 0.0
                         : base.value + item.value;
        if (cand.value > best.value) {
          best = cand;
          take = true;
        }
      }
      curr[m] = best;
      took[i * (w + 1) + m] = take ? 1 : 0;
    }
    std::swap(prev, curr);
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
  return s;
}

constexpr ValueFunction kValueFunctions[] = {
    ValueFunction::kPaperQuadratic, ValueFunction::kLinearThreads,
    ValueFunction::kUnit, ValueFunction::kInverseThreads};

// One knapsack as the add-on builds it: a 5110P or 7120P card with some
// memory and threads already resident, a thread budget anywhere from 0 to
// 1.5 x hw - resident (the overcommit range), and up to 256 Table I jobs
// filtered the way the policy filters its candidates. With `ties`, most
// jobs repeat an earlier one and every value is 1.
Problem addon_draw(Rng& rng, bool ties) {
  const bool big = rng.bernoulli(0.5);
  const MiB usable = big ? 15872 : 7680;
  const ThreadCount hw = big ? 244 : 240;
  const auto resident = static_cast<ThreadCount>(rng.uniform_int(0, hw));
  Problem p;
  p.capacity_mib = usable - rng.uniform_int(0, usable);
  p.thread_capacity = static_cast<ThreadCount>(
      rng.uniform_int(0, hw * 3 / 2 - resident));
  const ValueFunction f = kValueFunctions[rng.index(4)];
  const auto& templates = workload::table1_templates();
  const auto offered = static_cast<std::size_t>(rng.uniform_int(1, 256));
  for (std::size_t i = 0; i < offered; ++i) {
    Item it;
    if (ties && !p.items.empty() && rng.bernoulli(0.7)) {
      it = p.items[rng.index(p.items.size())];
    } else {
      const auto& tpl = templates[rng.index(templates.size())];
      it = item(rng.uniform_int(tpl.memory_lo_mib, tpl.memory_hi_mib),
                tpl.threads, job_value(f, tpl.threads, hw));
    }
    if (ties) it.value = 1.0;
    if (it.weight_mib > p.capacity_mib || it.threads > p.thread_capacity ||
        it.threads > hw) {
      continue;
    }
    p.items.push_back(it);
  }
  return p;
}

TEST(Dp1D, PicksMatchTwoRowReference) {
  Dp1DSolver solver;
  Rng rng(2014);
  std::size_t instances = 0;
  std::size_t nonempty = 0;
  for (int round = 0; round < 1000; ++round) {
    for (const bool ties : {false, true}) {
      const Problem p = addon_draw(rng, ties);
      SCOPED_TRACE("round " + std::to_string(round) +
                   (ties ? ", ties" : ""));
      const Solution want = two_row_reference(p);
      const Solution got = solver.solve(p);
      ASSERT_EQ(got.picks, want.picks);
      ASSERT_EQ(got.value, want.value);
      ++instances;
      if (!want.empty()) ++nonempty;
    }
  }
  EXPECT_EQ(instances, 2000u);
  // Most instances must pack something, or equal picks prove little.
  EXPECT_GT(nonempty, 1200u) << nonempty;
}

TEST(Dp1D, FillsOnlyCellsAtOrAboveEachWeight) {
  // 16 Table I jobs on an idle 7120P bin (15,872 MiB, 219 threads): item i
  // fills capacities wb_i..w, and an item heavier than the bin none.
  Rng rng(7120);
  const auto& templates = workload::table1_templates();
  Problem p;
  p.capacity_mib = 15872;
  p.thread_capacity = 219;
  for (std::size_t i = 0; i < 16; ++i) {
    const auto& tpl = templates[rng.index(templates.size())];
    p.items.push_back(
        item(rng.uniform_int(tpl.memory_lo_mib, tpl.memory_hi_mib),
             tpl.threads,
             job_value(ValueFunction::kPaperQuadratic, tpl.threads, 244)));
  }
  p.items.push_back(item(20000, 60, 1.0));
  const auto w = static_cast<std::size_t>(
      bucket_count(p.capacity_mib, p.quantum_mib));
  std::size_t want = 0;
  for (const Item& it : p.items) {
    const auto wb = static_cast<std::size_t>(
        quantize_up(it.weight_mib, p.quantum_mib) / p.quantum_mib);
    if (wb <= w) want += w + 1 - wb;
  }
  const Solution s = Dp1DSolver().solve(p);
  ASSERT_FALSE(s.empty());
  EXPECT_EQ(s.cells, want);
  EXPECT_LT(s.cells, 16u * (w + 1));
}

}  // namespace
}  // namespace phisched::knapsack
