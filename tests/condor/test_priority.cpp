// Job priorities: the negotiator examines higher-JobPrio jobs first,
// FIFO within equal priorities. The schedd caches each job's priority, so
// the cases below also edit priorities, and the attributes they read,
// between cycles.
#include <gtest/gtest.h>

#include <functional>

#include "condor/ads.hpp"
#include "condor/negotiator.hpp"

namespace phisched::condor {
namespace {

class PriorityTest : public ::testing::Test {
 protected:
  PriorityTest() : schedd_(sim_) {
    collector_.advertise(0, [this] {
      classad::ClassAd ad;
      ad.insert_string(kAttrName, machine_name(0));
      ad.insert_integer(kAttrFreeSlots, slots_);
      return ad;
    });
  }

  void submit(JobId id, std::optional<std::int64_t> prio) {
    classad::ClassAd ad;
    ad.insert_integer(kAttrJobId, static_cast<std::int64_t>(id));
    ad.insert_expr(kAttrRequirements, "TARGET.FreeSlots >= 1");
    if (prio.has_value()) ad.insert_integer(kAttrJobPrio, *prio);
    schedd_.submit(id, ad);
  }

  /// The jobs dispatched, in order. `accept` decides each dispatch
  /// (default: all); a refused job goes back to pending.
  std::vector<JobId> run_one_cycle(
      const std::function<bool(JobId)>& accept = nullptr) {
    std::vector<JobId> dispatched;
    Negotiator negotiator(
        sim_, schedd_, collector_,
        [&dispatched, &accept](JobId job, NodeId) {
          dispatched.push_back(job);
          return accept == nullptr || accept(job);
        },
        NegotiatorConfig{}, Rng(1));
    negotiator.run_cycle();
    return dispatched;
  }

  /// One cycle that refuses every dispatch: the examination order, with
  /// every job left pending.
  std::vector<JobId> examination_order() {
    return run_one_cycle([](JobId) { return false; });
  }

  Simulator sim_;
  Schedd schedd_;
  Collector collector_;
  std::int64_t slots_ = 100;
};

TEST_F(PriorityTest, HigherPriorityExaminedFirst) {
  submit(1, 0);
  submit(2, 10);
  submit(3, 5);
  EXPECT_EQ(run_one_cycle(), (std::vector<JobId>{2, 3, 1}));
}

TEST_F(PriorityTest, FifoWithinEqualPriority) {
  submit(5, 3);
  submit(1, 3);
  submit(9, 3);
  EXPECT_EQ(run_one_cycle(), (std::vector<JobId>{5, 1, 9}));
}

TEST_F(PriorityTest, MissingPriorityIsZero) {
  submit(1, std::nullopt);
  submit(2, -1);
  submit(3, 1);
  EXPECT_EQ(run_one_cycle(), (std::vector<JobId>{3, 1, 2}));
}

TEST_F(PriorityTest, QeditOfJobPrioReordersTheNextCycle) {
  submit(1, 0);
  submit(2, 0);
  submit(3, 0);
  EXPECT_EQ(examination_order(), (std::vector<JobId>{1, 2, 3}));
  schedd_.qedit_expr(3, kAttrJobPrio, "5");
  EXPECT_EQ(examination_order(), (std::vector<JobId>{3, 1, 2}));
  schedd_.qedit_expr(1, kAttrJobPrio, "7");
  EXPECT_EQ(examination_order(), (std::vector<JobId>{1, 3, 2}));
  schedd_.qedit_expr(3, kAttrJobPrio, "-1");
  EXPECT_EQ(examination_order(), (std::vector<JobId>{1, 2, 3}));
}

TEST_F(PriorityTest, JobPrioExpressionFollowsTheAttributeItReads) {
  submit(1, 0);
  submit(2, std::nullopt);
  schedd_.qedit_expr(2, kAttrJobPrio, "Boost * 2");
  schedd_.qedit_expr(2, "Boost", "0");
  EXPECT_EQ(examination_order(), (std::vector<JobId>{1, 2}));
  schedd_.qedit_expr(2, "Boost", "3");
  EXPECT_EQ(examination_order(), (std::vector<JobId>{2, 1}));
  schedd_.qedit_expr(2, "Boost", "-1");
  EXPECT_EQ(examination_order(), (std::vector<JobId>{1, 2}));
}

TEST_F(PriorityTest, RefusedAndRequeuedJobsKeepTheirPlace) {
  submit(1, 0);
  submit(2, 0);
  submit(3, 0);
  submit(4, 5);
  // Job 2's dispatch is refused; jobs 1 and 3 start.
  EXPECT_EQ(run_one_cycle([](JobId job) { return job != 2 && job != 4; }),
            (std::vector<JobId>{4, 1, 2, 3}));
  submit(5, 0);
  submit(6, 5);
  // The refused jobs keep their submission places within their
  // priorities, ahead of later submissions.
  EXPECT_EQ(examination_order(), (std::vector<JobId>{4, 6, 2, 5}));

  // Job 1 fails and is requeued with a fresh ad of the same priority: it
  // too keeps its place.
  schedd_.mark_running(1);
  classad::ClassAd fresh;
  fresh.insert_integer(kAttrJobId, 1);
  fresh.insert_expr(kAttrRequirements, "TARGET.FreeSlots >= 1");
  schedd_.requeue(1, fresh);
  EXPECT_EQ(examination_order(), (std::vector<JobId>{4, 6, 1, 2, 5}));

  // Requeued with a higher priority, it moves up to that priority's
  // FIFO place.
  schedd_.mark_matched(1, 0);
  schedd_.mark_running(1);
  fresh.insert_integer(kAttrJobPrio, 5);
  schedd_.requeue(1, fresh);
  EXPECT_EQ(examination_order(), (std::vector<JobId>{1, 4, 6, 2, 5}));
}

TEST_F(PriorityTest, PriorityWinsScarceSlots) {
  slots_ = 1;
  submit(1, 0);
  submit(2, 100);
  const auto dispatched = run_one_cycle();
  ASSERT_EQ(dispatched.size(), 1u);
  EXPECT_EQ(dispatched[0], 2u);
}

}  // namespace
}  // namespace phisched::condor
