#include "knapsack/dp2d.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

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

TEST(Dp2D, EmptyProblem) {
  Dp2DSolver solver;
  Problem p;
  p.capacity_mib = 8000;
  EXPECT_TRUE(solver.solve(p).empty());
}

TEST(Dp2D, RespectsBothConstraints) {
  Dp2DSolver solver;
  Problem p;
  p.capacity_mib = 3000;
  p.thread_capacity = 240;
  p.items = {item(1000, 120, 1.0), item(1000, 120, 1.0), item(1000, 120, 1.0),
             item(1000, 120, 1.0)};
  const Solution s = solver.solve(p);
  // Memory alone allows 3, threads only allow 2.
  EXPECT_EQ(s.picks.size(), 2u);
  EXPECT_LE(s.threads, 240);
  EXPECT_LE(s.weight_mib, 3000);
}

TEST(Dp2D, FindsThreadConstrainedOptimumTheHeuristicMisses) {
  // Items ordered so the 1-D heuristic's greedy path is suboptimal:
  // a high-value wide job plus a filler beats two mid jobs.
  Dp2DSolver solver;
  Problem p;
  p.capacity_mib = 4000;
  p.thread_capacity = 240;
  p.items = {item(2000, 200, 2.0), item(2000, 200, 2.0), item(2000, 40, 2.5),
             item(2000, 40, 2.5)};
  const Solution s = solver.solve(p);
  // Optimum: the two 40-thread items (value 5.0, threads 80).
  EXPECT_DOUBLE_EQ(s.value, 5.0);
  EXPECT_EQ(s.picks, (std::vector<std::size_t>{2, 3}));
}

TEST(Dp2D, MemoryOnlyReducesToClassicKnapsack) {
  Dp2DSolver solver;
  Problem p;
  p.capacity_mib = 5000;
  p.quantum_mib = 100;
  p.thread_capacity = 100000;
  p.items = {item(1000, 1, 60.0), item(2000, 1, 100.0), item(3000, 1, 120.0)};
  const Solution s = solver.solve(p);
  EXPECT_DOUBLE_EQ(s.value, 220.0);
}

TEST(Dp2D, SingleItemExactlyFitting) {
  Dp2DSolver solver;
  Problem p;
  p.capacity_mib = 1000;
  p.thread_capacity = 240;
  p.items = {item(1000, 240, 1.0)};
  const Solution s = solver.solve(p);
  EXPECT_EQ(s.picks.size(), 1u);
}

TEST(Dp2D, ItemExceedingThreadsAloneIsExcluded) {
  Dp2DSolver solver;
  Problem p;
  p.capacity_mib = 8000;
  p.thread_capacity = 120;
  p.items = {item(1000, 240, 10.0), item(1000, 120, 1.0)};
  const Solution s = solver.solve(p);
  EXPECT_EQ(s.picks, (std::vector<std::size_t>{1}));
}

TEST(Dp2D, ZeroThreadCapacityPacksNothing) {
  Dp2DSolver solver;
  Problem p;
  p.capacity_mib = 8000;
  p.thread_capacity = 0;
  p.items = {item(1000, 60, 1.0)};
  EXPECT_TRUE(solver.solve(p).empty());
}

TEST(Dp2D, Name) { EXPECT_EQ(Dp2DSolver().name(), "dp2d"); }

// The dense formulation: one (w + 1) x (T + 1) layer per item over the full
// bin, unfit items included, backtracked from (w, T). Dp2DSolver must pick
// exactly the same items.
Solution dense_reference(const Problem& problem) {
  const std::size_t n = problem.items.size();
  const auto w = static_cast<std::size_t>(
      bucket_count(problem.capacity_mib, problem.quantum_mib));
  const auto tcap = static_cast<std::size_t>(problem.thread_capacity);
  if (n == 0 || w == 0 || tcap == 0) return {};

  std::vector<std::size_t> wb(n);
  for (std::size_t i = 0; i < n; ++i) {
    wb[i] = static_cast<std::size_t>(
        quantize_up(problem.items[i].weight_mib, problem.quantum_mib) /
        problem.quantum_mib);
  }

  const std::size_t cols = (w + 1) * (tcap + 1);
  auto at = [&](std::size_t m, std::size_t t) { return m * (tcap + 1) + t; };

  std::vector<double> prev(cols, 0.0);
  std::vector<double> curr(cols, 0.0);
  std::vector<bool> took(n * cols, false);

  for (std::size_t i = 0; i < n; ++i) {
    const Item& it = problem.items[i];
    const auto ti = static_cast<std::size_t>(it.threads);
    for (std::size_t m = 0; m <= w; ++m) {
      for (std::size_t t = 0; t <= tcap; ++t) {
        double best = prev[at(m, t)];
        bool take = false;
        if (wb[i] <= m && ti <= t) {
          const double cand = prev[at(m - wb[i], t - ti)] + it.value;
          if (cand > best) {
            best = cand;
            take = true;
          }
        }
        curr[at(m, t)] = best;
        took[i * cols + at(m, t)] = take;
      }
    }
    std::swap(prev, curr);
  }

  std::vector<std::size_t> picks;
  std::size_t m = w;
  std::size_t t = tcap;
  for (std::size_t i = n; i-- > 0;) {
    if (took[i * cols + at(m, t)]) {
      picks.push_back(i);
      m -= wb[i];
      t -= static_cast<std::size_t>(problem.items[i].threads);
    }
  }
  return materialize(problem, std::move(picks));
}

enum class Shape {
  kRandom,            // mixed sizes, capacities off the quantum grid
  kTies,              // unit values with duplicated items
  kOversized,         // some items heavier or wider than the bin
  kNothingFits,       // every item heavier or wider than the bin
  kWideThreadBudget,  // thread capacity far above the items' total
  kLattice,           // threads on a step-g lattice, capacity off it
  kIdle7120P,         // the batch packer's shapes: 16 Table I jobs
  kIdle5110P,
  kNearFull,
};

constexpr Shape kSmallShapes[] = {Shape::kRandom,           Shape::kTies,
                                  Shape::kOversized,        Shape::kNothingFits,
                                  Shape::kWideThreadBudget, Shape::kLattice};
constexpr Shape kBatchShapes[] = {Shape::kIdle7120P, Shape::kIdle5110P,
                                  Shape::kNearFull};

// Bin capacity in MiB: `buckets` whole quanta plus a random remainder.
MiB capacity_of(std::int64_t buckets, MiB quantum, Rng& rng) {
  return buckets * quantum + rng.uniform_int(0, quantum - 1);
}

// A Table I job as the batch strategy offers it: the template's threads and
// a memory draw on the 50 MiB grid, valued against a 7120P's 244 threads.
Item table1_item(Rng& rng) {
  const auto& templates = workload::table1_templates();
  const auto& tpl = templates[rng.index(templates.size())];
  const MiB mem = rng.uniform_int(tpl.memory_lo_mib, tpl.memory_hi_mib);
  return item(quantize_up(mem), tpl.threads,
              job_value(ValueFunction::kPaperQuadratic, tpl.threads, 244));
}

Problem draw(Shape shape, Rng& rng) {
  Problem p;
  const MiB quanta[] = {1, 7, 50, 64};
  p.quantum_mib = quanta[rng.index(4)];
  p.capacity_mib = capacity_of(rng.uniform_int(0, 40), p.quantum_mib, rng);
  p.thread_capacity = static_cast<ThreadCount>(rng.uniform_int(0, 300));
  const MiB cap = p.capacity_mib;
  const ThreadCount tcap = p.thread_capacity;
  auto fitting = [&] {
    return item(rng.uniform_int(1, cap / 2 + p.quantum_mib),
                static_cast<ThreadCount>(rng.uniform_int(1, tcap / 2 + 1)),
                rng.uniform_real(0.0, 1.0));
  };
  auto unfit = [&] {
    if (rng.bernoulli(0.5)) {
      // Heavier than the bin's whole buckets: off the grid, that
      // includes weights up to the capacity itself.
      const MiB whole = cap - cap % p.quantum_mib;
      return item(whole + rng.uniform_int(1, 4 * p.quantum_mib),
                  static_cast<ThreadCount>(rng.uniform_int(1, 60)), 1.0);
    }
    return item(rng.uniform_int(1, cap / 2 + p.quantum_mib),
                tcap + static_cast<ThreadCount>(rng.uniform_int(1, 100)), 1.0);
  };
  const auto n = static_cast<std::size_t>(rng.uniform_int(1, 12));

  switch (shape) {
    case Shape::kRandom:
      p.items.resize(static_cast<std::size_t>(rng.uniform_int(0, 12)));
      for (Item& it : p.items) it = fitting();
      break;
    case Shape::kTies:
      for (std::size_t i = 0; i < n; ++i) {
        Item it =
            i > 0 && rng.bernoulli(0.5) ? p.items[rng.index(i)] : fitting();
        it.value = 1.0;
        p.items.push_back(it);
      }
      break;
    case Shape::kOversized:
      for (std::size_t i = 0; i < n; ++i) {
        p.items.push_back(rng.bernoulli(0.4) ? unfit() : fitting());
      }
      break;
    case Shape::kNothingFits:
      for (std::size_t i = 0; i < n; ++i) p.items.push_back(unfit());
      break;
    case Shape::kWideThreadBudget:
      p.capacity_mib = capacity_of(rng.uniform_int(1, 20), p.quantum_mib, rng);
      p.thread_capacity = static_cast<ThreadCount>(rng.uniform_int(1000, 3000));
      for (std::size_t i = 0; i < n; ++i) {
        p.items.push_back(item(rng.uniform_int(1, p.capacity_mib),
                               static_cast<ThreadCount>(rng.uniform_int(1, 60)),
                               rng.uniform_real(0.0, 1.0)));
      }
      break;
    case Shape::kLattice: {
      // Every item's threads are a multiple of g and the thread capacity
      // is not, so rounding the capacity's units up or leaving it in
      // threads packs differently. The multiples range up to one past the
      // capacity (variant 0), are all alike (variant 1), or are alike for
      // one item and too wide for the rest (variant 2).
      const ThreadCount steps[] = {2, 3, 30, 60, 64};
      const ThreadCount g = steps[rng.index(5)];
      const std::int64_t units = rng.uniform_int(1, 6);
      p.thread_capacity =
          g * static_cast<ThreadCount>(units) +
          static_cast<ThreadCount>(rng.uniform_int(1, g - 1));
      const std::size_t variant = rng.index(3);
      const std::int64_t same = rng.uniform_int(1, units);
      const std::size_t lone = rng.index(n);
      for (std::size_t i = 0; i < n; ++i) {
        std::int64_t k = variant == 0 ? rng.uniform_int(1, units + 1) : same;
        if (variant == 2 && i != lone) k = units + 1 + rng.uniform_int(0, 2);
        p.items.push_back(item(rng.uniform_int(1, cap / 2 + p.quantum_mib),
                               g * static_cast<ThreadCount>(k),
                               rng.uniform_real(0.0, 1.0)));
      }
      break;
    }
    case Shape::kIdle7120P:
    case Shape::kIdle5110P:
    case Shape::kNearFull:
      // Budgets as the batch strategy derives them at occupancy 0.9: an
      // idle 7120P (15,872 MiB, 219 threads), an idle 5110P (7,680 MiB,
      // 216 threads), or a busy card with 36 threads and some memory left.
      p.quantum_mib = kMemoryQuantumMiB;
      p.capacity_mib = shape == Shape::kIdle7120P   ? 15872
                       : shape == Shape::kIdle5110P ? 7680
                                                    : rng.uniform_int(0, 15872);
      p.thread_capacity = shape == Shape::kIdle7120P   ? 219
                          : shape == Shape::kIdle5110P ? 216
                                                       : 36;
      for (std::size_t i = 0; i < 16; ++i) p.items.push_back(table1_item(rng));
      break;
  }
  return p;
}

TEST(Dp2D, PicksMatchDenseReference) {
  Dp2DSolver solver;
  Rng rng(2014);
  std::size_t instances = 0;
  std::size_t nonempty = 0;
  auto check = [&](int round, Shape shape) {
    const Problem p = draw(shape, rng);
    SCOPED_TRACE("round " + std::to_string(round) + ", shape " +
                 std::to_string(static_cast<int>(shape)));
    const Solution want = dense_reference(p);
    const Solution got = solver.solve(p);
    ASSERT_EQ(got.picks, want.picks);
    ASSERT_EQ(got.value, want.value);
    ++instances;
    if (!want.empty()) ++nonempty;
  };
  // A batch shape's dense table is far larger than a small shape's, so
  // the batch shapes run every third round.
  for (int round = 0; round < 360; ++round) {
    for (const Shape shape : kSmallShapes) {
      ASSERT_NO_FATAL_FAILURE(check(round, shape));
    }
    if (round % 3 != 0) continue;
    for (const Shape shape : kBatchShapes) {
      ASSERT_NO_FATAL_FAILURE(check(round, shape));
    }
  }
  EXPECT_EQ(instances, 2520u);
  // Most instances must pack something, or equal picks prove little.
  EXPECT_GT(nonempty, 1500u) << nonempty;
}

TEST(Dp2D, FillsCellsInStepsOfTheThreadGcd) {
  // 16 Table I jobs on an idle 7120P bin: 317 whole buckets and 219
  // threads. Their threads are multiples of 60, so each item fills at most
  // 318 rows x 4 columns; unit columns would allow 16 x 318 x 220.
  Rng rng(7120);
  Problem p;
  p.quantum_mib = kMemoryQuantumMiB;
  p.capacity_mib = 15872;
  p.thread_capacity = 219;
  for (std::size_t i = 0; i < 16; ++i) p.items.push_back(table1_item(rng));
  const Solution s = Dp2DSolver().solve(p);
  ASSERT_FALSE(s.empty());
  EXPECT_GT(s.cells, 0u);
  EXPECT_LE(s.cells, 16u * 318u * 4u);
}

}  // namespace
}  // namespace phisched::knapsack
