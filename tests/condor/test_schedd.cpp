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
  schedd_.mark_matched(schedd_.record(1), 2);
  EXPECT_EQ(schedd_.record(1).state, JobState::kMatched);
  EXPECT_EQ(schedd_.record(1).node, 2);
  EXPECT_TRUE(schedd_.pending().empty());
  sim_.run_until(6.0);
  schedd_.mark_running(schedd_.record(1));
  EXPECT_DOUBLE_EQ(schedd_.record(1).start_time, 6.0);
  sim_.run_until(20.0);
  schedd_.mark_completed(schedd_.record(1));
  EXPECT_EQ(schedd_.record(1).state, JobState::kCompleted);
  EXPECT_DOUBLE_EQ(schedd_.record(1).finish_time, 20.0);
  EXPECT_TRUE(schedd_.drained());
  EXPECT_DOUBLE_EQ(schedd_.last_finish_time(), 20.0);
}

TEST_F(ScheddTest, InvalidTransitionsThrow) {
  schedd_.submit(1, simple_ad());
  EXPECT_THROW(schedd_.mark_running(schedd_.record(1)), std::invalid_argument);
  EXPECT_THROW(schedd_.mark_completed(schedd_.record(1)),
               std::invalid_argument);
  schedd_.mark_matched(schedd_.record(1), 0);
  EXPECT_THROW(schedd_.mark_matched(schedd_.record(1), 0),
               std::invalid_argument);
}

TEST_F(ScheddTest, ReleaseMatchReturnsToPending) {
  schedd_.submit(1, simple_ad());
  schedd_.mark_matched(schedd_.record(1), 0);
  schedd_.release_match(schedd_.record(1));
  EXPECT_EQ(schedd_.record(1).state, JobState::kPending);
  EXPECT_EQ(pending_ids(), (std::vector<JobId>{1}));
}

TEST_F(ScheddTest, FailedFromMatchedOrRunning) {
  schedd_.submit(1, simple_ad());
  schedd_.submit(2, simple_ad());
  schedd_.mark_matched(schedd_.record(1), 0);
  schedd_.mark_failed(schedd_.record(1));  // killed during dispatch latency
  schedd_.mark_matched(schedd_.record(2), 0);
  schedd_.mark_running(schedd_.record(2));
  schedd_.mark_failed(schedd_.record(2));
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
  schedd_.mark_matched(schedd_.record(1), 0);
  EXPECT_THROW(schedd_.qedit_expr(1, "Requirements", "true"),
               std::invalid_argument);
}

TEST_F(ScheddTest, TerminalCallbackFires) {
  std::vector<JobId> terminal;
  schedd_.set_on_terminal(
      [&](const JobRecord& rec) { terminal.push_back(rec.id); });
  schedd_.submit(1, simple_ad());
  schedd_.submit(2, simple_ad());
  schedd_.mark_matched(schedd_.record(1), 0);
  schedd_.mark_running(schedd_.record(1));
  schedd_.mark_completed(schedd_.record(1));
  schedd_.mark_matched(schedd_.record(2), 0);
  schedd_.mark_failed(schedd_.record(2));
  EXPECT_EQ(terminal, (std::vector<JobId>{1, 2}));
}

TEST_F(ScheddTest, RequeuedJobKeepsItsFifoPosition) {
  schedd_.submit(1, simple_ad());
  schedd_.submit(2, simple_ad());
  schedd_.submit(3, simple_ad());
  schedd_.mark_matched(schedd_.record(2), 0);
  schedd_.mark_running(schedd_.record(2));
  // Later submissions, and enough retirements to compact the live list
  // while job 2 is away.
  schedd_.submit(4, simple_ad());
  schedd_.submit(5, simple_ad());
  for (const JobId id : {JobId{1}, JobId{3}, JobId{4}}) {
    schedd_.mark_matched(schedd_.record(id), 0);
    schedd_.mark_running(schedd_.record(id));
    schedd_.mark_completed(schedd_.record(id));
  }
  schedd_.submit(6, simple_ad());
  schedd_.requeue(schedd_.record(2), simple_ad());
  EXPECT_EQ(pending_ids(), (std::vector<JobId>{2, 5, 6}));
  // A refused dispatch returns a job to its place as well.
  schedd_.mark_matched(schedd_.record(5), 0);
  schedd_.release_match(schedd_.record(5));
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
          schedd_.mark_matched(schedd_.record(id), 0);
          break;
        case JobState::kMatched:
          if (rng.bernoulli(0.3)) {
            schedd_.release_match(schedd_.record(id));
          } else if (rng.bernoulli(0.1)) {
            schedd_.mark_failed(schedd_.record(id));
          } else {
            schedd_.mark_running(schedd_.record(id));
          }
          break;
        case JobState::kRunning:
          if (rng.bernoulli(0.2)) {
            schedd_.requeue(schedd_.record(id), simple_ad());
          } else if (rng.bernoulli(0.1)) {
            schedd_.mark_failed(schedd_.record(id));
          } else {
            schedd_.mark_completed(schedd_.record(id));
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

TEST(Schedd, TerminalRecordKeepsLifecycleOnly) {
  Simulator sim;
  Schedd schedd(sim);
  const JobRecord& done = schedd.submit(1, simple_ad());
  const JobRecord& failed = schedd.submit(2, simple_ad());
  (void)schedd.view(done);
  (void)schedd.autocluster(done);
  bool observer_saw_ad = false;
  schedd.set_on_terminal([&](const JobRecord& rec) {
    observer_saw_ad = rec.ad.has("RequestPhiMemory");
  });

  // Job 1 is killed once and requeued, then runs to completion.
  sim.run_until(5.0);
  schedd.mark_matched(done, 2);
  schedd.mark_running(done);
  schedd.requeue(done, simple_ad());
  schedd.mark_matched(done, 3);
  sim.run_until(6.0);
  schedd.mark_running(done);
  sim.run_until(20.0);
  schedd.mark_completed(done);
  EXPECT_TRUE(observer_saw_ad);

  const JobRecord& rec = schedd.record(1);
  EXPECT_EQ(&rec, &done);
  EXPECT_EQ(rec.id, 1);
  EXPECT_EQ(rec.state, JobState::kCompleted);
  EXPECT_EQ(rec.node, 3);
  EXPECT_DOUBLE_EQ(rec.submit_time, 0.0);
  EXPECT_DOUBLE_EQ(rec.start_time, 6.0);
  EXPECT_DOUBLE_EQ(rec.finish_time, 20.0);
  EXPECT_EQ(rec.retries, 1);
  EXPECT_FALSE(rec.ad.has("RequestPhiMemory"));
  EXPECT_EQ(rec.autocluster, 0u);
  EXPECT_THROW((void)schedd.view(rec), std::invalid_argument);
  EXPECT_THROW((void)schedd.autocluster(rec), std::invalid_argument);

  // A failed job retires the same way.
  schedd.mark_matched(failed, 0);
  schedd.mark_failed(failed);
  EXPECT_EQ(schedd.record(2).state, JobState::kFailed);
  EXPECT_DOUBLE_EQ(schedd.record(2).finish_time, 20.0);
  EXPECT_THROW((void)schedd.view(failed), std::invalid_argument);
  EXPECT_TRUE(schedd.known(1));
  EXPECT_TRUE(schedd.drained());
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
