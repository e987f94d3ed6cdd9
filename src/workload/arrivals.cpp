#include "workload/arrivals.hpp"

#include <cmath>
#include <fstream>
#include <set>
#include <sstream>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/parse.hpp"

namespace phisched::workload {

namespace {

constexpr double kTwoPi = 6.283185307179586;

class PoissonStream final : public ArrivalStream {
 public:
  PoissonStream(double rate, Rng rng) : rate_(rate), rng_(std::move(rng)) {}

  std::optional<SimTime> next() override {
    t_ += rng_.exponential(rate_);
    return t_;
  }

 private:
  double rate_;
  Rng rng_;
  SimTime t_ = 0.0;
};

/// Markov-modulated on/off Poisson process: exponential sojourns in an
/// "on" phase (rate_on) and an "off" phase (rate_off, possibly 0).
/// Memorylessness lets a draw that overshoots the phase boundary be
/// discarded and redrawn in the next phase without biasing the process.
class BurstyStream final : public ArrivalStream {
 public:
  BurstyStream(const ArrivalSpec& spec, Rng rng)
      : spec_(spec), rng_(std::move(rng)) {
    phase_end_ = rng_.exponential(1.0 / spec_.mean_on_s);
  }

  std::optional<SimTime> next() override {
    for (;;) {
      const double rate = on_ ? spec_.rate_on : spec_.rate_off;
      if (rate > 0.0) {
        const SimTime candidate = t_ + rng_.exponential(rate);
        if (candidate <= phase_end_) {
          t_ = candidate;
          return t_;
        }
      }
      // Silent phase, or the draw crossed the boundary: move to the
      // next phase and try again from its start.
      t_ = phase_end_;
      on_ = !on_;
      const double mean = on_ ? spec_.mean_on_s : spec_.mean_off_s;
      phase_end_ = t_ + rng_.exponential(1.0 / mean);
    }
  }

 private:
  ArrivalSpec spec_;
  Rng rng_;
  SimTime t_ = 0.0;
  bool on_ = true;
  SimTime phase_end_ = 0.0;
};

/// Non-homogeneous Poisson via Lewis-Shedler thinning: candidates are
/// drawn at the peak rate and accepted with probability rate(t)/peak.
class DiurnalStream final : public ArrivalStream {
 public:
  DiurnalStream(const ArrivalSpec& spec, Rng rng)
      : spec_(spec), rng_(std::move(rng)) {}

  std::optional<SimTime> next() override {
    for (;;) {
      t_ += rng_.exponential(spec_.peak);
      const double rate =
          spec_.base + (spec_.peak - spec_.base) *
                           (1.0 - std::cos(kTwoPi * t_ / spec_.period_s)) / 2.0;
      if (rng_.bernoulli(rate / spec_.peak)) return t_;
    }
  }

 private:
  ArrivalSpec spec_;
  Rng rng_;
  SimTime t_ = 0.0;
};

class TraceStream final : public ArrivalStream {
 public:
  explicit TraceStream(std::vector<SimTime> times)
      : times_(std::move(times)) {}

  std::optional<SimTime> next() override {
    if (pos_ >= times_.size()) return std::nullopt;
    return times_[pos_++];
  }

 private:
  std::vector<SimTime> times_;
  std::size_t pos_ = 0;
};

[[nodiscard]] std::vector<SimTime> load_trace(const std::string& path,
                                              double scale) {
  std::ifstream in(path);
  PHISCHED_REQUIRE(in.good(), "arrivals: cannot read trace file ", path);
  std::vector<SimTime> times;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream fields(line);
    std::string token;
    if (!(fields >> token)) continue;  // blank or comment-only
    const auto t = read_real(token);
    PHISCHED_REQUIRE(t.has_value(), "arrivals: trace ", path, ":", line_no,
                     ": expected a finite number, got '", token, "'");
    std::string trailing;
    PHISCHED_REQUIRE(!(fields >> trailing), "arrivals: trace ", path, ":",
                     line_no, ": trailing token '", trailing, "'");
    PHISCHED_REQUIRE(*t >= 0.0, "arrivals: trace ", path, ":", line_no,
                     ": time must be >= 0");
    const SimTime scaled = *t * scale;
    PHISCHED_REQUIRE(times.empty() || scaled >= times.back(),
                     "arrivals: trace ", path, ":", line_no,
                     ": times must be non-decreasing");
    times.push_back(scaled);
  }
  return times;
}

[[nodiscard]] double parse_positive(const std::string& key,
                                    const std::string& value) {
  const auto parsed = read_real(value);
  PHISCHED_REQUIRE(parsed && *parsed > 0.0, "arrivals: ", key,
                   " must be a positive number, got '", value, "'");
  return *parsed;
}

/// Range-checked after reading, so every spelling of zero ("0.00",
/// "0e0", ".0") is accepted.
[[nodiscard]] double parse_non_negative(const std::string& key,
                                        const std::string& value) {
  const auto parsed = read_real(value);
  PHISCHED_REQUIRE(parsed && *parsed >= 0.0, "arrivals: ", key,
                   " must be a non-negative number, got '", value, "'");
  return *parsed;
}

}  // namespace

const char* arrival_kind_name(ArrivalKind k) {
  switch (k) {
    case ArrivalKind::kPoisson: return "poisson";
    case ArrivalKind::kBursty: return "bursty";
    case ArrivalKind::kDiurnal: return "diurnal";
    case ArrivalKind::kTrace: return "trace";
  }
  return "?";
}

ArrivalSpec ArrivalSpec::parse(const std::string& text) {
  const std::size_t colon = text.find(':');
  const std::string kind = text.substr(0, colon);
  ArrivalSpec spec;
  if (kind == "poisson") {
    spec.kind = ArrivalKind::kPoisson;
  } else if (kind == "bursty") {
    spec.kind = ArrivalKind::kBursty;
  } else if (kind == "diurnal") {
    spec.kind = ArrivalKind::kDiurnal;
  } else if (kind == "trace") {
    spec.kind = ArrivalKind::kTrace;
  } else {
    PHISCHED_REQUIRE(false, "arrivals: unknown kind '", kind,
                     "' (poisson|bursty|diurnal|trace)");
  }

  std::string params =
      colon == std::string::npos ? std::string() : text.substr(colon + 1);
  std::set<std::string> seen;
  std::size_t start = 0;
  while (start < params.size()) {
    const std::size_t comma = params.find(',', start);
    const std::size_t end = comma == std::string::npos ? params.size() : comma;
    const std::string token = params.substr(start, end - start);
    start = end + 1;
    if (token.empty()) continue;
    const std::size_t eq = token.find('=');
    PHISCHED_REQUIRE(eq != std::string::npos && eq > 0,
                     "arrivals: expected key=value, got '", token, "'");
    const std::string key = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);
    PHISCHED_REQUIRE(seen.insert(key).second, "arrivals: duplicate key '", key,
                     "' (each key may appear once)");
    if (spec.kind == ArrivalKind::kPoisson && key == "rate") {
      spec.rate = parse_positive(key, value);
    } else if (spec.kind == ArrivalKind::kBursty && key == "rate_on") {
      spec.rate_on = parse_positive(key, value);
    } else if (spec.kind == ArrivalKind::kBursty && key == "rate_off") {
      spec.rate_off = parse_non_negative(key, value);
    } else if (spec.kind == ArrivalKind::kBursty && key == "mean_on") {
      spec.mean_on_s = parse_positive(key, value);
    } else if (spec.kind == ArrivalKind::kBursty && key == "mean_off") {
      spec.mean_off_s = parse_positive(key, value);
    } else if (spec.kind == ArrivalKind::kDiurnal && key == "base") {
      spec.base = parse_non_negative(key, value);
    } else if (spec.kind == ArrivalKind::kDiurnal && key == "peak") {
      spec.peak = parse_positive(key, value);
    } else if (spec.kind == ArrivalKind::kDiurnal && key == "period") {
      spec.period_s = parse_positive(key, value);
    } else if (spec.kind == ArrivalKind::kTrace && key == "file") {
      PHISCHED_REQUIRE(!value.empty(), "arrivals: trace file path is empty");
      spec.trace_file = value;
    } else if (spec.kind == ArrivalKind::kTrace && key == "scale") {
      spec.trace_scale = parse_positive(key, value);
    } else {
      PHISCHED_REQUIRE(false, "arrivals: unknown key '", key, "' for kind '",
                       arrival_kind_name(spec.kind), "'");
    }
  }
  if (spec.kind == ArrivalKind::kDiurnal) {
    PHISCHED_REQUIRE(spec.peak >= spec.base,
                     "arrivals: diurnal peak must be >= base");
  }
  if (spec.kind == ArrivalKind::kTrace) {
    PHISCHED_REQUIRE(!spec.trace_file.empty(),
                     "arrivals: trace requires file=PATH");
  }
  return spec;
}

std::string ArrivalSpec::to_string() const {
  std::ostringstream os;
  os << arrival_kind_name(kind) << ':';
  switch (kind) {
    case ArrivalKind::kPoisson:
      os << "rate=" << rate;
      break;
    case ArrivalKind::kBursty:
      os << "rate_on=" << rate_on << ",rate_off=" << rate_off
         << ",mean_on=" << mean_on_s << ",mean_off=" << mean_off_s;
      break;
    case ArrivalKind::kDiurnal:
      os << "base=" << base << ",peak=" << peak << ",period=" << period_s;
      break;
    case ArrivalKind::kTrace:
      os << "file=" << trace_file << ",scale=" << trace_scale;
      break;
  }
  return os.str();
}

std::unique_ptr<ArrivalStream> make_arrival_stream(const ArrivalSpec& spec,
                                                   Rng rng) {
  switch (spec.kind) {
    case ArrivalKind::kPoisson:
      return std::make_unique<PoissonStream>(spec.rate, std::move(rng));
    case ArrivalKind::kBursty:
      return std::make_unique<BurstyStream>(spec, std::move(rng));
    case ArrivalKind::kDiurnal:
      return std::make_unique<DiurnalStream>(spec, std::move(rng));
    case ArrivalKind::kTrace:
      return std::make_unique<TraceStream>(
          load_trace(spec.trace_file, spec.trace_scale));
  }
  PHISCHED_CHECK(false, "arrivals: unreachable kind");
  return nullptr;
}

}  // namespace phisched::workload
