// Prefix selection behind the CLI's --metrics-filter: filter_metrics
// keeps instruments by dotted-name prefix, filter_events keeps events by
// type or identity-field prefix.
#include <gtest/gtest.h>

#include <cstdint>

#include "obs/recorder.hpp"

namespace phisched::obs {
namespace {

[[nodiscard]] Recorder make_recorder() {
  Recorder rec;
  Registry& m = rec.metrics();
  m.counter("phi.node0.mic0.oom_kills", [] { return std::uint64_t{2}; });
  m.counter("phi.node0.mic0.pcie.bytes_in",
            [] { return std::uint64_t{4096}; });
  m.counter("phi.node1.mic0.oom_kills", [] { return std::uint64_t{1}; });
  m.counter("cosmic.node0.offloads_admitted", [] { return std::uint64_t{9}; });
  m.gauge("cluster.makespan_s").add(42.0);
  m.series("phi.node0.mic0.pcie.busy_frac").set(0.0, 1.0);
  m.series("cosmic.node0.mic0.queue_depth").set(0.0, 2.0);
  m.histogram("cluster.job_slowdown", 0.0, 10.0, 5).add(1.5);
  rec.event(1.0, "pcie_xfer_begin",
            {{"link", "phi.node0.mic0.pcie"}, {"job", "3"}});
  rec.event(2.0, "kill", {{"device", "phi.node1.mic0"}, {"job", "5"}});
  rec.event(3.0, "negotiation_cycle", {{"cycle", "1"}});
  return rec;
}

TEST(MetricsFilter, EmptyPrefixListKeepsEverything) {
  const Recorder rec = make_recorder();
  const MetricsSnapshot snap = rec.metrics().snapshot(10.0);
  const MetricsSnapshot kept = filter_metrics(snap, {});
  EXPECT_EQ(kept.counters.size(), snap.counters.size());
  EXPECT_EQ(kept.gauges.size(), snap.gauges.size());
  EXPECT_EQ(kept.histograms.size(), snap.histograms.size());
  EXPECT_EQ(filter_events(rec.events(), {}).size(), 3u);
}

TEST(MetricsFilter, PrefixSelectsAcrossInstrumentKinds) {
  const Recorder rec = make_recorder();
  const MetricsSnapshot kept =
      filter_metrics(rec.metrics().snapshot(10.0), {"phi.node0.mic0.pcie"});
  ASSERT_EQ(kept.counters.size(), 1u);
  EXPECT_EQ(kept.counters.count("phi.node0.mic0.pcie.bytes_in"), 1u);
  // The series flattens to .mean/.integral gauges; both carry the prefix.
  EXPECT_EQ(kept.gauges.count("phi.node0.mic0.pcie.busy_frac.mean"), 1u);
  EXPECT_EQ(kept.gauges.count("phi.node0.mic0.pcie.busy_frac.integral"), 1u);
  EXPECT_EQ(kept.gauges.count("cluster.makespan_s"), 0u);
  EXPECT_TRUE(kept.histograms.empty());
}

TEST(MetricsFilter, MultiplePrefixesUnion) {
  const Recorder rec = make_recorder();
  const MetricsSnapshot kept = filter_metrics(rec.metrics().snapshot(10.0),
                                              {"cluster.", "cosmic.node0"});
  EXPECT_EQ(kept.counters.count("cosmic.node0.offloads_admitted"), 1u);
  EXPECT_EQ(kept.gauges.count("cluster.makespan_s"), 1u);
  EXPECT_EQ(kept.histograms.count("cluster.job_slowdown"), 1u);
  EXPECT_EQ(kept.counters.count("phi.node0.mic0.oom_kills"), 0u);
}

TEST(MetricsFilter, EventsMatchOnTypeOrFieldValue) {
  const Recorder rec = make_recorder();
  // By field value: the kill event carries device=phi.node1.mic0.
  const auto by_field = filter_events(rec.events(), {"phi.node1"});
  ASSERT_EQ(by_field.size(), 1u);
  EXPECT_EQ(by_field[0].type, "kill");
  // By type prefix.
  const auto by_type = filter_events(rec.events(), {"pcie_"});
  ASSERT_EQ(by_type.size(), 1u);
  EXPECT_EQ(by_type[0].type, "pcie_xfer_begin");
  // No match drops everything.
  EXPECT_TRUE(filter_events(rec.events(), {"nope."}).empty());
}

}  // namespace
}  // namespace phisched::obs
