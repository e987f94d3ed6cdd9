#include "condor/schedd.hpp"

#include <gtest/gtest.h>

#include "classad/parser.hpp"
#include "common/rng.hpp"
#include "sim/simulator.hpp"

namespace phisched::condor {
namespace {

classad::ClassAd simple_ad() {
  classad::ClassAd ad;
  ad.insert_integer("RequestPhiMemory", 1000);
  return ad;
}

class ScheddTest : public ::testing::Test {
 protected:
  std::vector<JobId> pending_ids() const {
    std::vector<JobId> ids;
    for (const JobRecord* rec : schedd_.pending()) ids.push_back(rec->id);
    return ids;
  }

  Simulator sim_;
  Schedd schedd_{sim_};
};

TEST_F(ScheddTest, SubmitAndPendingFifo) {
  schedd_.submit(3, simple_ad());
  schedd_.submit(1, simple_ad());
  schedd_.submit(2, simple_ad());
  // FIFO is submission order, not id order.
  EXPECT_EQ(pending_ids(), (std::vector<JobId>{3, 1, 2}));
  EXPECT_EQ(schedd_.submitted_count(), 3u);
  EXPECT_EQ(schedd_.pending_count(), 3u);
}

TEST_F(ScheddTest, DuplicateSubmitThrows) {
  schedd_.submit(1, simple_ad());
  EXPECT_THROW(schedd_.submit(1, simple_ad()), std::invalid_argument);
}

TEST_F(ScheddTest, LifecycleTransitions) {
  schedd_.submit(1, simple_ad());
  sim_.run_until(5.0);
  schedd_.mark_matched(1, 2);
  EXPECT_EQ(schedd_.record(1).state, JobState::kMatched);
  EXPECT_EQ(schedd_.record(1).node, 2);
  EXPECT_TRUE(schedd_.pending().empty());
  sim_.run_until(6.0);
  schedd_.mark_running(1);
  EXPECT_DOUBLE_EQ(schedd_.record(1).start_time, 6.0);
  sim_.run_until(20.0);
  schedd_.mark_completed(1);
  EXPECT_EQ(schedd_.record(1).state, JobState::kCompleted);
  EXPECT_DOUBLE_EQ(schedd_.record(1).finish_time, 20.0);
  EXPECT_TRUE(schedd_.drained());
  EXPECT_DOUBLE_EQ(schedd_.last_finish_time(), 20.0);
}

TEST_F(ScheddTest, InvalidTransitionsThrow) {
  schedd_.submit(1, simple_ad());
  EXPECT_THROW(schedd_.mark_running(1), std::invalid_argument);
  EXPECT_THROW(schedd_.mark_completed(1), std::invalid_argument);
  schedd_.mark_matched(1, 0);
  EXPECT_THROW(schedd_.mark_matched(1, 0), std::invalid_argument);
}

TEST_F(ScheddTest, ReleaseMatchReturnsToPending) {
  schedd_.submit(1, simple_ad());
  schedd_.mark_matched(1, 0);
  schedd_.release_match(1);
  EXPECT_EQ(schedd_.record(1).state, JobState::kPending);
  EXPECT_EQ(pending_ids(), (std::vector<JobId>{1}));
}

TEST_F(ScheddTest, FailedFromMatchedOrRunning) {
  schedd_.submit(1, simple_ad());
  schedd_.submit(2, simple_ad());
  schedd_.mark_matched(1, 0);
  schedd_.mark_failed(1);  // killed during dispatch latency
  schedd_.mark_matched(2, 0);
  schedd_.mark_running(2);
  schedd_.mark_failed(2);
  EXPECT_EQ(schedd_.failed_count(), 2u);
  EXPECT_TRUE(schedd_.drained());
}

TEST_F(ScheddTest, QeditRewritesPendingAd) {
  schedd_.submit(1, simple_ad());
  schedd_.qedit_expr(1, "Requirements", "TARGET.Name == \"node5\"");
  const auto req = schedd_.record(1).ad.lookup("Requirements");
  ASSERT_NE(req, nullptr);
  EXPECT_EQ(classad::to_string(*req), "(TARGET.Name == \"node5\")");
}

TEST_F(ScheddTest, QeditOnNonPendingThrows) {
  schedd_.submit(1, simple_ad());
  schedd_.mark_matched(1, 0);
  EXPECT_THROW(schedd_.qedit_expr(1, "Requirements", "true"),
               std::invalid_argument);
}

TEST_F(ScheddTest, TerminalCallbackFires) {
  std::vector<JobId> terminal;
  schedd_.set_on_terminal(
      [&](const JobRecord& rec) { terminal.push_back(rec.id); });
  schedd_.submit(1, simple_ad());
  schedd_.submit(2, simple_ad());
  schedd_.mark_matched(1, 0);
  schedd_.mark_running(1);
  schedd_.mark_completed(1);
  schedd_.mark_matched(2, 0);
  schedd_.mark_failed(2);
  EXPECT_EQ(terminal, (std::vector<JobId>{1, 2}));
}

TEST_F(ScheddTest, RequeuedJobKeepsItsFifoPosition) {
  schedd_.submit(1, simple_ad());
  schedd_.submit(2, simple_ad());
  schedd_.submit(3, simple_ad());
  schedd_.mark_matched(2, 0);
  schedd_.mark_running(2);
  // Later submissions, and enough retirements to compact the live list
  // while job 2 is away.
  schedd_.submit(4, simple_ad());
  schedd_.submit(5, simple_ad());
  for (const JobId id : {JobId{1}, JobId{3}, JobId{4}}) {
    schedd_.mark_matched(id, 0);
    schedd_.mark_running(id);
    schedd_.mark_completed(id);
  }
  schedd_.submit(6, simple_ad());
  schedd_.requeue(2, simple_ad());
  EXPECT_EQ(pending_ids(), (std::vector<JobId>{2, 5, 6}));
  // A refused dispatch returns a job to its place as well.
  schedd_.mark_matched(5, 0);
  schedd_.release_match(5);
  EXPECT_EQ(pending_ids(), (std::vector<JobId>{2, 5, 6}));
  EXPECT_EQ(schedd_.pending_count(), 3u);
}

TEST_F(ScheddTest, PendingCountTracksPendingThroughALifecycle) {
  // Random transitions over a stream of submissions; after every step
  // pending() must be the submission order filtered by state.
  Rng rng(11);
  std::vector<JobId> submitted;
  std::vector<JobId> active;  // not yet terminal
  JobId next = 0;
  for (int step = 0; step < 2000; ++step) {
    if (active.empty() || rng.bernoulli(0.2)) {
      schedd_.submit(next, simple_ad());
      submitted.push_back(next);
      active.push_back(next++);
    } else {
      const std::size_t at = rng.index(active.size());
      const JobId id = active[at];
      switch (schedd_.record(id).state) {
        case JobState::kPending:
          schedd_.mark_matched(id, 0);
          break;
        case JobState::kMatched:
          if (rng.bernoulli(0.3)) {
            schedd_.release_match(id);
          } else if (rng.bernoulli(0.1)) {
            schedd_.mark_failed(id);
          } else {
            schedd_.mark_running(id);
          }
          break;
        case JobState::kRunning:
          if (rng.bernoulli(0.2)) {
            schedd_.requeue(id, simple_ad());
          } else if (rng.bernoulli(0.1)) {
            schedd_.mark_failed(id);
          } else {
            schedd_.mark_completed(id);
          }
          break;
        default:
          break;
      }
      const JobState state = schedd_.record(id).state;
      if (state == JobState::kCompleted || state == JobState::kFailed) {
        active.erase(active.begin() + static_cast<std::ptrdiff_t>(at));
      }
    }
    std::vector<JobId> expected;
    for (const JobId id : submitted) {
      if (schedd_.record(id).state == JobState::kPending) {
        expected.push_back(id);
      }
    }
    ASSERT_EQ(pending_ids(), expected) << "step " << step;
    ASSERT_EQ(schedd_.pending_count(), schedd_.pending().size());
  }
  EXPECT_GT(schedd_.completed_count(), 0u);
  EXPECT_GT(schedd_.failed_count(), 0u);
}

TEST_F(ScheddTest, UnknownJobThrows) {
  EXPECT_THROW((void)schedd_.record(9), std::invalid_argument);
  EXPECT_FALSE(schedd_.known(9));
}

TEST_F(ScheddTest, StateNames) {
  EXPECT_STREQ(job_state_name(JobState::kPending), "pending");
  EXPECT_STREQ(job_state_name(JobState::kMatched), "matched");
  EXPECT_STREQ(job_state_name(JobState::kRunning), "running");
  EXPECT_STREQ(job_state_name(JobState::kCompleted), "completed");
  EXPECT_STREQ(job_state_name(JobState::kFailed), "failed");
}

}  // namespace
}  // namespace phisched::condor
