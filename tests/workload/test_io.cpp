#include "workload/io.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "workload/jobset.hpp"

namespace phisched::workload {
namespace {

void expect_same(const JobSet& a, const JobSet& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id);
    EXPECT_EQ(a[i].template_name, b[i].template_name);
    EXPECT_EQ(a[i].mem_req_mib, b[i].mem_req_mib);
    EXPECT_EQ(a[i].threads_req, b[i].threads_req);
    EXPECT_EQ(a[i].base_memory_mib, b[i].base_memory_mib);
    EXPECT_DOUBLE_EQ(a[i].submit_time, b[i].submit_time);
    const auto& sa = a[i].profile.segments();
    const auto& sb = b[i].profile.segments();
    ASSERT_EQ(sa.size(), sb.size());
    for (std::size_t s = 0; s < sa.size(); ++s) {
      EXPECT_EQ(sa[s].kind, sb[s].kind);
      EXPECT_DOUBLE_EQ(sa[s].duration, sb[s].duration);
      EXPECT_EQ(sa[s].threads, sb[s].threads);
      EXPECT_EQ(sa[s].memory_mib, sb[s].memory_mib);
      EXPECT_EQ(sa[s].device_index, sb[s].device_index);
      EXPECT_EQ(sa[s].async, sb[s].async);
    }
  }
}

TEST(JobsetIo, RoundTripRealJobset) {
  const JobSet jobs = make_real_jobset(50, Rng(21).child("io"));
  expect_same(jobs, from_text(to_text(jobs)));
}

TEST(JobsetIo, RoundTripWithSubmitTimes) {
  JobSet jobs = make_real_jobset(10, Rng(22).child("io"));
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    jobs[i].submit_time = 0.123456789 * static_cast<double>(i);
  }
  expect_same(jobs, from_text(to_text(jobs)));
}

TEST(JobsetIo, FileRoundTrip) {
  const JobSet jobs = make_real_jobset(8, Rng(23).child("io"));
  const std::string path = ::testing::TempDir() + "/phisched_jobset_test.txt";
  ASSERT_TRUE(save_jobset(jobs, path));
  expect_same(jobs, load_jobset(path));
  std::remove(path.c_str());
}

TEST(JobsetIo, HandWrittenInput) {
  const JobSet jobs = from_text(
      "# my workload\n"
      "job id=7 template=KM mem=1300 threads=60 base=16 submit=2.5\n"
      "  offload 4.25 60 1200\n"
      "  host 1.5\n"
      "  offload 3.75 60 1200\n"
      "end\n"
      "job id=8 mem=500 threads=120\n"
      "end\n");
  ASSERT_EQ(jobs.size(), 2u);
  EXPECT_EQ(jobs[0].id, 7u);
  EXPECT_EQ(jobs[0].template_name, "KM");
  EXPECT_DOUBLE_EQ(jobs[0].submit_time, 2.5);
  EXPECT_EQ(jobs[0].profile.offload_count(), 2u);
  EXPECT_DOUBLE_EQ(jobs[0].profile.total_duration(), 9.5);
  EXPECT_EQ(jobs[1].id, 8u);
  EXPECT_TRUE(jobs[1].profile.empty());
  EXPECT_EQ(jobs[1].base_memory_mib, 16);  // default preserved
}

TEST(JobsetIo, EmptyInput) {
  EXPECT_TRUE(from_text("").empty());
  EXPECT_TRUE(from_text("# nothing here\n").empty());
}

TEST(JobsetIo, MalformedInputsThrow) {
  EXPECT_THROW((void)from_text("job id=1\njob id=2\n"), std::invalid_argument);
  EXPECT_THROW((void)from_text("host 1.0\n"), std::invalid_argument);
  EXPECT_THROW((void)from_text("job id=1\n"), std::invalid_argument);  // no end
  EXPECT_THROW((void)from_text("job id=1\n  offload 1.0\nend\n"),
               std::invalid_argument);  // missing offload fields
  EXPECT_THROW((void)from_text("job id=x\nend\n"), std::invalid_argument);
  EXPECT_THROW((void)from_text("job bogus=1\nend\n"), std::invalid_argument);
  EXPECT_THROW((void)from_text("frobnicate\n"), std::invalid_argument);
  EXPECT_THROW((void)from_text("end\n"), std::invalid_argument);
}

TEST(JobsetIo, ErrorsMentionLineNumbers) {
  try {
    (void)from_text("job id=1\nend\nwat\n");
    FAIL() << "should have thrown";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos);
  }
}

/// `text` must be rejected with the reader's own error for `line`.
void expect_parse_error(const std::string& text, std::size_t line) {
  SCOPED_TRACE(text);
  try {
    (void)from_text(text);
    ADD_FAILURE() << "accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("jobset parse error on line " +
                                         std::to_string(line) + ":"),
              std::string::npos)
        << e.what();
  }
}

/// A one-job file: a header with `fields`, then `segment` on line 3.
std::string one_job(const std::string& fields,
                    const std::string& segment = "host 1") {
  return "# jobset\njob id=1 mem=100 threads=60 base=0 submit=0 " + fields +
         "\n  " + segment + "\nend\n";
}

TEST(JobsetIo, NonFiniteNumbersThrow) {
  // Each of these used to load and then simulate forever.
  expect_parse_error(one_job("submit=inf"), 2);
  expect_parse_error(one_job("submit=-inf"), 2);
  expect_parse_error(one_job("submit=nan"), 2);
  expect_parse_error(one_job("submit=1e400"), 2);  // overflows to inf
  expect_parse_error(one_job("", "host inf"), 3);
  expect_parse_error(one_job("", "host nan"), 3);
  expect_parse_error(one_job("", "offload inf 240 1023"), 3);
  expect_parse_error(one_job("", "offload_async nan 240 1023"), 3);
}

TEST(JobsetIo, HexNumbersThrow) {
  // strtod reads "0x10" as 16.
  expect_parse_error(one_job("submit=0x10"), 2);
  expect_parse_error(one_job("", "host 0x1p4"), 3);
  expect_parse_error(one_job("", "offload 0x10 240 1023"), 3);
}

TEST(JobsetIo, OutOfRangeIntegersThrow) {
  // 4294967536 used to wrap to 240 threads in the cast to int.
  expect_parse_error(one_job("threads=4294967536"), 2);
  expect_parse_error(one_job("devices=4294967297"), 2);
  expect_parse_error(one_job("", "offload 1 4294967536 1023"), 3);
  expect_parse_error(one_job("", "offload 1 240 1023 4294967296"), 3);
  // strtoll clamps these to INT64_MAX and INT64_MIN.
  expect_parse_error(one_job("mem=99999999999999999999"), 2);
  expect_parse_error(one_job("base=-99999999999999999999"), 2);
  expect_parse_error("job id=99999999999999999999\nend\n", 1);
}

TEST(JobsetIo, NegativeIdThrows) {
  // -1 used to load as 18446744073709551615.
  expect_parse_error("job id=-1\nend\n", 1);
}

TEST(JobsetIo, FiniteDecimalSpellingsLoad) {
  const JobSet jobs =
      from_text(one_job("submit=1.5e2", "offload 2.5E-1 240 1023 1"));
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_DOUBLE_EQ(jobs[0].submit_time, 150.0);
  ASSERT_EQ(jobs[0].profile.segments().size(), 1u);
  EXPECT_DOUBLE_EQ(jobs[0].profile.segments()[0].duration, 0.25);
  EXPECT_EQ(jobs[0].profile.segments()[0].device_index, 1);
}

TEST(JobsetIo, LoadMissingFileThrows) {
  EXPECT_THROW((void)load_jobset("/nonexistent/jobs.txt"),
               std::invalid_argument);
}

TEST(JobsetIo, GangAndAsyncRoundTrip) {
  JobSet jobs(1);
  jobs[0].id = 3;
  jobs[0].mem_req_mib = 800;
  jobs[0].threads_req = 240;
  jobs[0].devices_req = 2;
  jobs[0].profile = OffloadProfile({
      Segment::offload_async(2.0, 240, 500, 0),
      Segment::offload_async(2.5, 240, 500, 1),
      Segment::sync(),
      Segment::offload(1.0, 120, 300, 1),
  });
  const JobSet back = from_text(to_text(jobs));
  ASSERT_EQ(back.size(), 1u);
  EXPECT_EQ(back[0].devices_req, 2);
  const auto& segs = back[0].profile.segments();
  ASSERT_EQ(segs.size(), 4u);
  EXPECT_TRUE(segs[0].async);
  EXPECT_EQ(segs[1].device_index, 1);
  EXPECT_EQ(segs[2].kind, SegmentKind::kSync);
  EXPECT_FALSE(segs[3].async);
  EXPECT_EQ(segs[3].device_index, 1);
  expect_same(jobs, back);
}

TEST(JobsetIo, HandWrittenGangInput) {
  const JobSet jobs = from_text(
      "job id=1 mem=500 threads=240 devices=2\n"
      "  offload_async 3.0 240 400 0\n"
      "  offload_async 3.0 240 400 1\n"
      "  sync\n"
      "end\n");
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_EQ(jobs[0].devices_req, 2);
  EXPECT_EQ(jobs[0].profile.offload_count(), 2u);
}

TEST(JobsetIo, DurationsSurviveExactly) {
  JobSet jobs(1);
  jobs[0].id = 0;
  jobs[0].mem_req_mib = 100;
  jobs[0].threads_req = 60;
  jobs[0].profile = OffloadProfile(
      {Segment::offload(1.0 / 3.0, 60, 50), Segment::host(0.1)});
  const JobSet back = from_text(to_text(jobs));
  EXPECT_DOUBLE_EQ(back[0].profile.segments()[0].duration, 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(back[0].profile.segments()[1].duration, 0.1);
}

}  // namespace
}  // namespace phisched::workload
