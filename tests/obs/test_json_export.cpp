// Golden-file regression for the telemetry JSON export: the exact bytes
// of snapshot_json for a hand-built recorder are pinned under
// tests/obs/golden/. Regenerate intentionally with
//   PHISCHED_REGEN_GOLDEN=1 ctest -R JsonExport
// after a deliberate schema change, and review the diff.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common/json.hpp"
#include "obs/recorder.hpp"

namespace phisched::obs {
namespace {

[[nodiscard]] std::string golden_path() {
  return std::string(PHISCHED_TEST_DATA_DIR) + "/obs/golden/snapshot.json";
}

[[nodiscard]] std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// A small recorder exercising every instrument kind, with values chosen
/// to cover integers, fractions, and empty-vs-populated sections.
[[nodiscard]] Recorder make_reference_recorder() {
  Recorder rec;
  Registry& m = rec.metrics();
  m.counter("phi.node0.mic0.oom_kills", [] { return std::uint64_t{2}; });
  m.counter("condor.negotiator.cycles", [] { return std::uint64_t{7}; });
  m.gauge("cluster.makespan_s").add(123.5);
  m.gauge("cluster.avg_core_utilization").add(0.7421875);
  m.series("cosmic.node0.mic0.queue_depth").set(0.0, 0.0);
  m.series("cosmic.node0.mic0.queue_depth").set(2.0, 3.0);
  m.series("cosmic.node0.mic0.queue_depth").set(6.0, 1.0);
  m.time_histogram("phi.node0.mic0.speed_seconds", 0.0, 1.0, 4).set(0.0, 1.0);
  m.time_histogram("phi.node0.mic0.speed_seconds", 0.0, 1.0, 4).set(4.0, 0.125);
  m.histogram("cluster.job_slowdown", 0.0, 10.0, 5).add(1.5);
  m.histogram("cluster.job_slowdown", 0.0, 10.0, 5).add(3.25);
  rec.event(1.5, "oversub_begin",
            {{"device", "phi.node0.mic0"}, {"demand", "480"}});
  rec.event(4.0, "kill", {{"job", "3"}, {"reason", "oom"}});
  return rec;
}

TEST(JsonExport, SnapshotMatchesGoldenFile) {
  const Recorder rec = make_reference_recorder();
  const Snapshot snap = take_snapshot(rec, 10.0);
  const std::string doc = snapshot_json(snap, /*pretty=*/true);
  ASSERT_TRUE(json_parse(doc).has_value());

  if (std::getenv("PHISCHED_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(golden_path(), std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << golden_path();
    out << doc;
    GTEST_SKIP() << "regenerated " << golden_path();
  }

  const std::string golden = read_file(golden_path());
  ASSERT_FALSE(golden.empty())
      << "missing golden file " << golden_path()
      << " — run with PHISCHED_REGEN_GOLDEN=1 to create it";
  EXPECT_EQ(doc, golden);
}

TEST(JsonExport, MetricsJsonHasStableSchema) {
  const Recorder rec = make_reference_recorder();
  const std::string doc = metrics_json(rec.metrics().snapshot(10.0));
  ASSERT_TRUE(json_parse(doc).has_value());
  // Schema anchors the dashboards rely on.
  EXPECT_NE(doc.find("\"counters\""), std::string::npos);
  EXPECT_NE(doc.find("\"gauges\""), std::string::npos);
  EXPECT_NE(doc.find("\"histograms\""), std::string::npos);
  EXPECT_NE(doc.find("\"cosmic.node0.mic0.queue_depth.mean\""),
            std::string::npos);
  EXPECT_NE(doc.find("\"lo\""), std::string::npos);
  EXPECT_NE(doc.find("\"counts\""), std::string::npos);
}

TEST(JsonExport, EventsJsonPreservesOrderAndFields) {
  const Recorder rec = make_reference_recorder();
  const std::string doc = events_json(rec.events());
  ASSERT_TRUE(json_parse(doc).has_value());
  EXPECT_EQ(doc.find("oversub_begin") < doc.find("\"kill\""), true);
  EXPECT_NE(doc.find("\"t\":1.5"), std::string::npos);
  EXPECT_NE(doc.find("\"reason\":\"oom\""), std::string::npos);
}

TEST(JsonExport, EmptyRecorderSerializesCleanly) {
  const Recorder rec;
  const Snapshot snap = take_snapshot(rec, 0.0);
  const std::string doc = snapshot_json(snap);
  EXPECT_TRUE(json_parse(doc).has_value());
  EXPECT_EQ(doc,
            R"({"metrics":{"counters":{},"gauges":{},"histograms":{}},)"
            R"("events":[]})");
}

TEST(JsonExport, SerializationIsDeterministic) {
  const Recorder a = make_reference_recorder();
  const Recorder b = make_reference_recorder();
  EXPECT_EQ(snapshot_json(take_snapshot(a, 10.0), true),
            snapshot_json(take_snapshot(b, 10.0), true));
}

}  // namespace
}  // namespace phisched::obs
