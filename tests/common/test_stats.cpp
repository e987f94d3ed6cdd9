#include "common/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace phisched {
namespace {

TEST(Summary, EmptyIsZero) {
  Summary s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.stddev(), 0.0);
  EXPECT_EQ(s.min(), 0.0);
  EXPECT_EQ(s.max(), 0.0);
}

TEST(Summary, SingleSample) {
  Summary s;
  s.add(4.2);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 4.2);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 4.2);
  EXPECT_DOUBLE_EQ(s.max(), 4.2);
}

TEST(Summary, KnownMoments) {
  Summary s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  // Sample variance of this classic data set is 32/7.
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(Summary, MergeMatchesConcatenation) {
  Summary a;
  Summary b;
  Summary all;
  for (int i = 0; i < 50; ++i) {
    const double x = std::sin(i) * 10.0;
    (i % 2 == 0 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(Summary, MergeWithEmpty) {
  Summary a;
  a.add(1.0);
  a.add(3.0);
  Summary empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 2.0);

  Summary c;
  c.merge(a);
  EXPECT_EQ(c.count(), 2u);
  EXPECT_DOUBLE_EQ(c.mean(), 2.0);
}

TEST(TimeWeighted, ConstantSignal) {
  TimeWeighted tw;
  tw.reset(0.0, 5.0);
  tw.advance_to(10.0);
  EXPECT_DOUBLE_EQ(tw.integral(), 50.0);
  EXPECT_DOUBLE_EQ(tw.mean(), 5.0);
}

TEST(TimeWeighted, StepSignal) {
  TimeWeighted tw;
  tw.reset(0.0, 0.0);
  tw.set(4.0, 10.0);   // 0 for [0,4)
  tw.set(6.0, 0.0);    // 10 for [4,6)
  tw.advance_to(10.0); // 0 for [6,10)
  EXPECT_DOUBLE_EQ(tw.integral(), 20.0);
  EXPECT_DOUBLE_EQ(tw.mean(), 2.0);
}

TEST(TimeWeighted, MeanUntilExtendsLastValue) {
  TimeWeighted tw;
  tw.reset(0.0, 2.0);
  tw.set(5.0, 4.0);
  // [0,5): 2 → 10; [5,20): 4 → 60; total 70 over 20.
  EXPECT_DOUBLE_EQ(tw.mean_until(20.0), 3.5);
}

TEST(TimeWeighted, IntegralUntilExtendsLastValue) {
  TimeWeighted tw;
  // Before the first set there is no signal: every horizon reads 0.
  EXPECT_DOUBLE_EQ(tw.integral_until(0.0), 0.0);
  EXPECT_DOUBLE_EQ(tw.integral_until(50.0), 0.0);
  EXPECT_DOUBLE_EQ(tw.mean_until(50.0), 0.0);
  tw.set(1.0, 2.0);
  tw.set(5.0, 4.0);
  // At the last update: [1,5) at 2 only.
  EXPECT_DOUBLE_EQ(tw.integral_until(5.0), 8.0);
  // Past it the last value extends: plus [5,20) at 4.
  EXPECT_DOUBLE_EQ(tw.integral_until(20.0), 68.0);
  // The query reads without advancing the signal.
  EXPECT_DOUBLE_EQ(tw.integral(), 8.0);
  EXPECT_DOUBLE_EQ(tw.last_time(), 5.0);
}

TEST(TimeWeighted, FirstSetActsAsReset) {
  TimeWeighted tw;
  tw.set(3.0, 7.0);
  tw.advance_to(5.0);
  EXPECT_DOUBLE_EQ(tw.start_time(), 3.0);
  EXPECT_DOUBLE_EQ(tw.mean(), 7.0);
}

TEST(TimeWeighted, RejectsTimeTravel) {
  TimeWeighted tw;
  tw.reset(5.0, 1.0);
  EXPECT_THROW(tw.set(4.0, 2.0), std::invalid_argument);
}

TEST(TimeWeighted, EmptyIntervalMeanIsZero) {
  TimeWeighted tw;
  tw.reset(2.0, 9.0);
  EXPECT_DOUBLE_EQ(tw.mean(), 0.0);
  EXPECT_DOUBLE_EQ(tw.mean_until(2.0), 0.0);
}

}  // namespace
}  // namespace phisched
