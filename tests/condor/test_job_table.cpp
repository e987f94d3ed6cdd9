// The job table: cached views and the negotiation order.
//
// The property test drives randomized sequences of submit, qedit, match,
// release, requeue and terminal transitions. After every step, each
// pending record's view must equal a fresh decode of its ad, and the
// pending queue must hold exactly the pending jobs in submission order.
// The qedits cover every attribute a view holds: the RequestPhi*
// attributes as literals and as expressions over other attributes,
// literal and non-literal Requirements, PinnedDevice and PinnedNode.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "classad/classad.hpp"
#include "classad/parser.hpp"
#include "common/rng.hpp"
#include "condor/ads.hpp"
#include "condor/schedd.hpp"
#include "sim/simulator.hpp"

namespace phisched::condor {
namespace {

std::vector<JobId> ids_of(const PendingJobs& records) {
  std::vector<JobId> ids;
  for (const JobRecord* rec : records) ids.push_back(rec->id);
  return ids;
}

template <typename T>
const T& pick(Rng& rng, const std::vector<T>& options) {
  return options[rng.index(options.size())];
}

/// One attribute edit, as text: (name, expression), or an empty
/// expression for "insert undefined".
std::pair<std::string, std::string> random_edit(Rng& rng) {
  using Edit = std::pair<std::string, std::string>;
  return pick<Edit>(
      rng, {{kAttrRequestPhiMemory, std::to_string(rng.uniform_int(0, 8000))},
            {kAttrRequestPhiMemory, "Weight * 100"},
            {kAttrRequestPhiThreads, std::to_string(rng.uniform_int(1, 240))},
            {kAttrRequestPhiDevices, std::to_string(rng.uniform_int(1, 3))},
            {kAttrRequestPhiMemBandwidth, "1500.5"},
            {kAttrRequestPhiMemBandwidth, "undefined"},
            {kAttrRequestPhiDevices, std::to_string(rng.uniform_int(-2, 2))},
            {kAttrRequestPhiThreads, "Weight * 2"},
            {kAttrRequestPhiDevices, "Urgent ? 3 : -1"},
            {kAttrRequestPhiThreads, "\"high\""},
            {"Weight", std::to_string(rng.uniform_int(-1, 2))},
            {"Urgent", pick<std::string>(rng, {"true", "false"})},
            {kAttrRequirements, pick<std::string>(
                                    rng, {"false", "true", "undefined", "7",
                                          "TARGET.FreeSlots >= 1",
                                          "MY.Weight > 0"})},
            {kAttrPinnedDevice, std::to_string(rng.uniform_int(0, 3))},
            {kAttrPinnedDevice, "Weight"},
            {kAttrPinnedNode, "\"node1\""},
            {kAttrPinnedNode, "undefined"}});
}

classad::ClassAd random_ad(Rng& rng, JobId id) {
  classad::ClassAd ad;
  ad.insert_integer(kAttrJobId, static_cast<std::int64_t>(id));
  ad.insert_expr(kAttrRequirements, "TARGET.FreeSlots >= 1");
  const auto edits = rng.uniform_int(0, 5);
  for (std::int64_t i = 0; i < edits; ++i) {
    const auto [attr, expr] = random_edit(rng);
    ad.insert_expr(attr, expr);
  }
  return ad;
}

/// Every pending view against a fresh decode, and the queue against the
/// pending jobs of `submitted`, which lists every id in submission order.
/// Reading the views again decodes nothing.
void check(Schedd& schedd, const std::vector<JobId>& submitted, int step) {
  SCOPED_TRACE("step " + std::to_string(step));
  const PendingJobs pending = schedd.pending();
  for (const JobRecord* rec : pending) {
    SCOPED_TRACE("job " + std::to_string(rec->id));
    const JobView& view = schedd.view(*rec);
    EXPECT_EQ(view.request, job_request(rec->ad));
    EXPECT_EQ(view.never_met, classad::requirements_never_met(rec->ad));
    EXPECT_EQ(view.pinned_device, rec->ad.eval_integer(kAttrPinnedDevice));
    EXPECT_EQ(view.pinned_node, rec->ad.has(kAttrPinnedNode));
  }
  std::vector<JobId> expected;
  for (const JobId id : submitted) {
    if (schedd.record(id).state == JobState::kPending) expected.push_back(id);
  }
  EXPECT_EQ(ids_of(pending), expected);
  const std::uint64_t decodes = schedd.view_decodes();
  for (const JobRecord* rec : pending) (void)schedd.view(*rec);
  EXPECT_EQ(schedd.view_decodes(), decodes);
}

TEST(JobTableProperty, ViewsAndOrderMatchAFreshDecode) {
  constexpr int kScenarios = 30;
  constexpr int kSteps = 250;
  for (int scenario = 0; scenario < kScenarios; ++scenario) {
    SCOPED_TRACE("scenario " + std::to_string(scenario));
    Rng rng = Rng(7).child("scenario" + std::to_string(scenario));
    Simulator sim;
    Schedd schedd(sim);
    std::vector<JobId> ids;
    JobId next = 0;
    const auto any_in = [&](JobState state) -> const JobRecord* {
      std::vector<const JobRecord*> found;
      for (const JobId id : ids) {
        if (schedd.record(id).state == state) found.push_back(&schedd.record(id));
      }
      return found.empty() ? nullptr : found[rng.index(found.size())];
    };
    for (int step = 0; step < kSteps; ++step) {
      const double roll = rng.uniform_real(0.0, 1.0);
      if (ids.empty() || roll < 0.2) {
        ids.push_back(next);
        schedd.submit(next, random_ad(rng, next));
        ++next;
      } else if (roll < 0.55) {
        if (const JobRecord* rec = any_in(JobState::kPending)) {
          const auto [attr, expr] = random_edit(rng);
          schedd.qedit_expr(rec->id, attr, expr);
        }
      } else if (roll < 0.7) {
        if (const JobRecord* rec = any_in(JobState::kPending)) {
          schedd.mark_matched(*rec, 0);
        }
      } else if (roll < 0.8) {
        if (const JobRecord* rec = any_in(JobState::kMatched)) {
          schedd.release_match(*rec);
        }
      } else if (roll < 0.88) {
        if (const JobRecord* rec = any_in(JobState::kMatched)) {
          schedd.mark_running(*rec);
        }
      } else if (roll < 0.95) {
        if (const JobRecord* rec = any_in(JobState::kRunning)) {
          schedd.requeue(*rec, random_ad(rng, rec->id));
        }
      } else if (const JobRecord* rec = any_in(JobState::kRunning)) {
        if (rng.bernoulli(0.5)) {
          schedd.mark_completed(*rec);
        } else {
          schedd.mark_failed(*rec);
        }
      }
      check(schedd, ids, step);
      if (::testing::Test::HasFailure()) return;
    }
  }
}

TEST(JobTable, RecordsStayPutAndKeepSubmissionOrder) {
  Simulator sim;
  Schedd schedd(sim);
  std::vector<const JobRecord*> records;
  for (JobId id : {JobId{7}, JobId{3}, JobId{5}}) {
    records.push_back(&schedd.submit(id, classad::ClassAd{}));
  }
  for (JobId id = 100; id < 1100; ++id) (void)schedd.submit(id, {});
  EXPECT_EQ(&schedd.record(7), records[0]);
  EXPECT_EQ(&schedd.record(3), records[1]);
  EXPECT_EQ(&schedd.record(5), records[2]);
  const PendingJobs pending = schedd.pending();
  ASSERT_EQ(pending.size(), 1003u);
  EXPECT_EQ((PendingJobs{pending[0], pending[1], pending[2]}), records);
  std::vector<JobId> by_id;
  schedd.for_each_by_id(
      [&by_id](const JobRecord& rec) { by_id.push_back(rec.id); });
  EXPECT_TRUE(std::is_sorted(by_id.begin(), by_id.end()));
  EXPECT_EQ(by_id.size(), 1003u);
}

TEST(JobTable, ViewsDecodeOnFirstReadAfterAnEdit) {
  Simulator sim;
  Schedd schedd(sim);
  classad::ClassAd ad;
  ad.insert_integer(kAttrRequestPhiMemory, 100);
  ad.insert_expr(kAttrRequirements, "false");
  const JobRecord& rec = schedd.submit(1, std::move(ad));
  EXPECT_EQ(schedd.view_decodes(), 0u);  // submit decodes nothing
  EXPECT_EQ(schedd.view(rec).request.mem_mib, 100);
  EXPECT_TRUE(schedd.view(rec).never_met);
  EXPECT_EQ(schedd.view_decodes(), 1u);

  // Three edits, one decode.
  schedd.qedit_expr(1, kAttrRequirements, "TARGET.FreeSlots >= 1");
  schedd.qedit_expr(1, kAttrPinnedNode, "\"node0\"");
  schedd.qedit_expr(1, kAttrPinnedDevice, "1");
  EXPECT_EQ(schedd.view_decodes(), 1u);
  EXPECT_FALSE(schedd.view(rec).never_met);
  EXPECT_TRUE(schedd.view(rec).pinned_node);
  EXPECT_EQ(schedd.view(rec).pinned_device, 1);
  EXPECT_EQ(schedd.view_decodes(), 2u);

  // A match and a release change no attribute.
  schedd.mark_matched(rec, 0);
  schedd.release_match(rec);
  (void)schedd.view(rec);
  EXPECT_EQ(schedd.view_decodes(), 2u);

  // A requeue brings a fresh ad.
  schedd.mark_matched(rec, 0);
  schedd.mark_running(rec);
  classad::ClassAd fresh;
  fresh.insert_integer(kAttrRequestPhiMemory, 200);
  schedd.requeue(rec, std::move(fresh));
  EXPECT_EQ(schedd.view(rec).request.mem_mib, 200);
  EXPECT_FALSE(schedd.view(rec).pinned_node);
  EXPECT_EQ(schedd.view_decodes(), 3u);
}

TEST(JobTable, ForeignRecordsAreRejected) {
  Simulator sim;
  Schedd mine(sim);
  Schedd other(sim);
  (void)mine.submit(1, {});
  const JobRecord& foreign = other.submit(1, {});
  EXPECT_THROW((void)mine.view(foreign), std::invalid_argument);
  EXPECT_THROW(mine.mark_matched(foreign, 0), std::invalid_argument);
}

}  // namespace
}  // namespace phisched::condor
