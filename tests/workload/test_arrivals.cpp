// Arrival-stream generators: spec grammar round-trips, every process is
// seed-deterministic and non-decreasing, and traces are validated loudly.
#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "workload/arrivals.hpp"

namespace phisched::workload {
namespace {

std::vector<SimTime> take(ArrivalStream& stream, std::size_t n) {
  std::vector<SimTime> out;
  for (std::size_t i = 0; i < n; ++i) {
    const auto t = stream.next();
    if (!t.has_value()) break;
    out.push_back(*t);
  }
  return out;
}

std::string write_trace(const std::string& name, const std::string& body) {
  const std::string path = ::testing::TempDir() + name;
  std::ofstream out(path, std::ios::trunc);
  out << body;
  return path;
}

TEST(ArrivalSpec, ParsesPoissonAndRoundTrips) {
  const ArrivalSpec spec = ArrivalSpec::parse("poisson:rate=2.5");
  EXPECT_EQ(spec.kind, ArrivalKind::kPoisson);
  EXPECT_DOUBLE_EQ(spec.rate, 2.5);
  EXPECT_EQ(ArrivalSpec::parse(spec.to_string()).rate, spec.rate);
}

TEST(ArrivalSpec, ParsesBurstyDiurnalTrace) {
  const ArrivalSpec bursty =
      ArrivalSpec::parse("bursty:rate_on=5,rate_off=0.2,mean_on=30,mean_off=120");
  EXPECT_EQ(bursty.kind, ArrivalKind::kBursty);
  EXPECT_DOUBLE_EQ(bursty.rate_on, 5.0);
  EXPECT_DOUBLE_EQ(bursty.mean_off_s, 120.0);

  const ArrivalSpec diurnal =
      ArrivalSpec::parse("diurnal:base=0.5,peak=3.0,period=3600");
  EXPECT_EQ(diurnal.kind, ArrivalKind::kDiurnal);
  EXPECT_DOUBLE_EQ(diurnal.peak, 3.0);

  const ArrivalSpec trace =
      ArrivalSpec::parse("trace:file=arrivals.txt,scale=0.5");
  EXPECT_EQ(trace.kind, ArrivalKind::kTrace);
  EXPECT_EQ(trace.trace_file, "arrivals.txt");
  EXPECT_DOUBLE_EQ(trace.trace_scale, 0.5);
}

TEST(ArrivalSpec, DefaultsApplyWhenKeysOmitted) {
  const ArrivalSpec spec = ArrivalSpec::parse("poisson");
  EXPECT_EQ(spec.kind, ArrivalKind::kPoisson);
  EXPECT_GT(spec.rate, 0.0);
}

TEST(ArrivalSpec, RejectsMalformedSpecsLoudly) {
  EXPECT_THROW(ArrivalSpec::parse(""), std::invalid_argument);
  EXPECT_THROW(ArrivalSpec::parse("lognormal:rate=1"), std::invalid_argument);
  EXPECT_THROW(ArrivalSpec::parse("poisson:rate=-1"), std::invalid_argument);
  EXPECT_THROW(ArrivalSpec::parse("poisson:rate=abc"), std::invalid_argument);
  EXPECT_THROW(ArrivalSpec::parse("poisson:bogus=1"), std::invalid_argument);
  EXPECT_THROW(ArrivalSpec::parse("trace:scale=1"), std::invalid_argument)
      << "trace without file= must be rejected";
}

TEST(ArrivalSpec, AcceptsEverySpellingOfZero) {
  // The old prefix check ("0." / "0e") rejected 0.00, 0e0 and .0 even
  // though zero is a legal value for these keys.
  for (const char* zero : {"0", "0.0", "0.00", "0e0", ".0", "0.", "00"}) {
    const ArrivalSpec spec = ArrivalSpec::parse(
        std::string("diurnal:base=") + zero + ",peak=3.0,period=3600");
    EXPECT_DOUBLE_EQ(spec.base, 0.0) << zero;
  }
}

TEST(ArrivalSpec, RejectsNonFiniteValues) {
  EXPECT_THROW(ArrivalSpec::parse("poisson:rate=nan"), std::invalid_argument);
  EXPECT_THROW(ArrivalSpec::parse("poisson:rate=inf"), std::invalid_argument);
  // Hex floats used to be read: 0x1p-1 ran as 0.5.
  EXPECT_THROW(ArrivalSpec::parse("poisson:rate=0x1p-1"),
               std::invalid_argument);
}

TEST(ArrivalSpec, RejectsDuplicateKeysNamingTheKey) {
  try {
    static_cast<void>(ArrivalSpec::parse("poisson:rate=1,rate=2"));
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("rate"), std::string::npos);
  }
  EXPECT_THROW(
      ArrivalSpec::parse("bursty:rate_on=5,rate_on=5,rate_off=0.2"),
      std::invalid_argument);
  EXPECT_THROW(ArrivalSpec::parse("trace:file=a.txt,file=b.txt"),
               std::invalid_argument);
}

TEST(ArrivalStreams, SeedDeterministicAndNonDecreasing) {
  for (const char* spec_text :
       {"poisson:rate=2.0",
        "bursty:rate_on=5,rate_off=0.2,mean_on=30,mean_off=120",
        "diurnal:base=0.5,peak=3.0,period=3600"}) {
    const ArrivalSpec spec = ArrivalSpec::parse(spec_text);
    auto a = make_arrival_stream(spec, Rng(99));
    auto b = make_arrival_stream(spec, Rng(99));
    const auto ta = take(*a, 500);
    const auto tb = take(*b, 500);
    EXPECT_EQ(ta, tb) << spec_text;  // bit-identical replay
    ASSERT_EQ(ta.size(), 500u) << spec_text;
    EXPECT_GE(ta.front(), 0.0);
    for (std::size_t i = 1; i < ta.size(); ++i) {
      ASSERT_LE(ta[i - 1], ta[i]) << spec_text << " at " << i;
    }

    auto c = make_arrival_stream(spec, Rng(100));
    EXPECT_NE(take(*c, 500), ta) << spec_text << ": seed must matter";
  }
}

TEST(ArrivalStreams, PoissonMeanInterArrivalMatchesRate) {
  const ArrivalSpec spec = ArrivalSpec::parse("poisson:rate=4.0");
  auto stream = make_arrival_stream(spec, Rng(1));
  const auto times = take(*stream, 20000);
  const double mean_gap = times.back() / static_cast<double>(times.size());
  EXPECT_NEAR(mean_gap, 0.25, 0.01);
}

TEST(ArrivalStreams, BurstyIsBurstierThanPoissonAtSameMeanRate) {
  // Dispersion check: squared coefficient of variation of inter-arrival
  // gaps is 1 for Poisson, > 1 for the on/off-modulated process.
  const auto gaps_cv2 = [](const std::vector<SimTime>& times) {
    std::vector<double> gaps;
    for (std::size_t i = 1; i < times.size(); ++i) {
      gaps.push_back(times[i] - times[i - 1]);
    }
    double mean = 0.0;
    for (const double g : gaps) mean += g;
    mean /= static_cast<double>(gaps.size());
    double var = 0.0;
    for (const double g : gaps) var += (g - mean) * (g - mean);
    var /= static_cast<double>(gaps.size());
    return var / (mean * mean);
  };
  const ArrivalSpec bursty =
      ArrivalSpec::parse("bursty:rate_on=10,rate_off=0.1,mean_on=20,mean_off=80");
  auto stream = make_arrival_stream(bursty, Rng(5));
  EXPECT_GT(gaps_cv2(take(*stream, 5000)), 2.0);
}

TEST(ArrivalStreams, DiurnalRateOscillatesWithThePeriod) {
  // base≈0 with a strong peak: arrivals must cluster around the middle
  // of each period (rate(t) peaks at period/2) and thin out at the ends.
  const ArrivalSpec spec =
      ArrivalSpec::parse("diurnal:base=0.05,peak=5.0,period=1000");
  auto stream = make_arrival_stream(spec, Rng(17));
  std::size_t mid = 0;
  std::size_t edge = 0;
  for (const SimTime t : take(*stream, 5000)) {
    const double phase = t - 1000.0 * std::floor(t / 1000.0);
    if (phase > 250.0 && phase < 750.0) {
      ++mid;
    } else {
      ++edge;
    }
  }
  EXPECT_GT(mid, 3 * edge);
}

TEST(ArrivalStreams, SyntheticStreamsNeverExhaust) {
  auto stream = make_arrival_stream(ArrivalSpec::parse("poisson:rate=1"),
                                    Rng(2));
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(stream->next().has_value());
}

TEST(TraceStream, ReplaysFileWithCommentsAndScale) {
  const std::string path = write_trace(
      "arrivals_ok.txt", "# header comment\n0.5\n1.5\n1.5\n\n4.0 # inline\n");
  ArrivalSpec spec;
  spec.kind = ArrivalKind::kTrace;
  spec.trace_file = path;
  spec.trace_scale = 2.0;
  auto stream = make_arrival_stream(spec, Rng(1));
  EXPECT_EQ(take(*stream, 10),
            (std::vector<SimTime>{1.0, 3.0, 3.0, 8.0}));
  EXPECT_FALSE(stream->next().has_value()) << "finite trace must exhaust";
}

TEST(TraceStream, RejectsMalformedTracesLoudly) {
  ArrivalSpec spec;
  spec.kind = ArrivalKind::kTrace;

  spec.trace_file = write_trace("arrivals_decreasing.txt", "5.0\n3.0\n");
  EXPECT_THROW(make_arrival_stream(spec, Rng(1)), std::invalid_argument);

  spec.trace_file = write_trace("arrivals_negative.txt", "-1.0\n");
  EXPECT_THROW(make_arrival_stream(spec, Rng(1)), std::invalid_argument);

  spec.trace_file = write_trace("arrivals_junk.txt", "1.0\ntwo\n");
  EXPECT_THROW(make_arrival_stream(spec, Rng(1)), std::invalid_argument);

  spec.trace_file = ::testing::TempDir() + "does_not_exist.txt";
  EXPECT_THROW(make_arrival_stream(spec, Rng(1)), std::invalid_argument);
}

}  // namespace
}  // namespace phisched::workload
