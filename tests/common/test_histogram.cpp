#include "common/histogram.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "common/error.hpp"

namespace phisched {
namespace {

TEST(Histogram, BinsAndEdges) {
  Histogram h(0.0, 10.0, 5);
  EXPECT_EQ(h.bins(), 5u);
  EXPECT_DOUBLE_EQ(h.bin_low(0), 0.0);
  EXPECT_DOUBLE_EQ(h.bin_high(0), 2.0);
  EXPECT_DOUBLE_EQ(h.bin_low(4), 8.0);
  EXPECT_DOUBLE_EQ(h.bin_high(4), 10.0);
}

TEST(Histogram, CountsLandInCorrectBins) {
  Histogram h(0.0, 10.0, 5);
  h.add(0.5);
  h.add(1.9);
  h.add(2.0);
  h.add(9.99);
  EXPECT_DOUBLE_EQ(h.count(0), 2.0);
  EXPECT_DOUBLE_EQ(h.count(1), 1.0);
  EXPECT_DOUBLE_EQ(h.count(4), 1.0);
  EXPECT_DOUBLE_EQ(h.total(), 4.0);
}

TEST(Histogram, OutOfRangeClampsToEdgeBins) {
  Histogram h(0.0, 10.0, 5);
  h.add(-100.0);
  h.add(100.0);
  EXPECT_DOUBLE_EQ(h.count(0), 1.0);
  EXPECT_DOUBLE_EQ(h.count(4), 1.0);
}

TEST(Histogram, WeightedSamples) {
  Histogram h(0.0, 4.0, 2);
  h.add(1.0, 3.0);
  h.add(3.0, 1.0);
  EXPECT_DOUBLE_EQ(h.fraction(0), 0.75);
  EXPECT_DOUBLE_EQ(h.fraction(1), 0.25);
}

TEST(Histogram, FractionOfEmptyIsZero) {
  Histogram h(0.0, 1.0, 4);
  EXPECT_DOUBLE_EQ(h.fraction(2), 0.0);
}

TEST(Histogram, AsciiRenderContainsBars) {
  Histogram h(0.0, 2.0, 2);
  h.add(0.5);
  h.add(0.6);
  h.add(1.5);
  const std::string art = h.ascii(10);
  EXPECT_NE(art.find("##########"), std::string::npos);  // modal bin
  EXPECT_NE(art.find("#####"), std::string::npos);
}

TEST(Histogram, NanSamplesAndWeightsAreRejectedLoudly) {
  // NaN has no bucket: admitting it would silently corrupt total() and
  // every later fraction() read, so the histogram refuses it up front.
  Histogram h(0.0, 10.0, 5);
  h.add(1.0);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(h.add(nan), InternalError);
  EXPECT_THROW(h.add(1.0, nan), InternalError);
  EXPECT_DOUBLE_EQ(h.total(), 1.0) << "a rejected sample must not count";
}

TEST(Histogram, InfiniteSamplesClampToEdgeBins) {
  Histogram h(0.0, 10.0, 5);
  h.add(-std::numeric_limits<double>::infinity());
  h.add(std::numeric_limits<double>::infinity());
  EXPECT_DOUBLE_EQ(h.count(0), 1.0);
  EXPECT_DOUBLE_EQ(h.count(4), 1.0);
  EXPECT_DOUBLE_EQ(h.total(), 2.0);
}

TEST(Histogram, RejectsBadConstruction) {
  EXPECT_THROW(Histogram(1.0, 1.0, 4), std::invalid_argument);
  EXPECT_THROW(Histogram(0.0, 1.0, 0), std::invalid_argument);
}

TEST(Histogram, BinOutOfRangeThrows) {
  Histogram h(0.0, 1.0, 2);
  EXPECT_THROW((void)h.count(2), std::invalid_argument);
}

}  // namespace
}  // namespace phisched
