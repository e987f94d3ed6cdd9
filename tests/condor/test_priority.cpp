// The negotiator examines pending jobs in FIFO order: submission order,
// not id order. A refused dispatch or a requeue changes a job's state,
// not its place.
#include <gtest/gtest.h>

#include <functional>

#include "condor/ads.hpp"
#include "condor/negotiator.hpp"

namespace phisched::condor {
namespace {

class PriorityTest : public ::testing::Test {
 protected:
  PriorityTest() : schedd_(sim_) {
    collector_.advertise(0, [] {
      classad::ClassAd ad;
      ad.insert_string(kAttrName, machine_name(0));
      ad.insert_integer(kAttrFreeSlots, 100);
      return ad;
    });
  }

  void submit(JobId id) {
    classad::ClassAd ad;
    ad.insert_integer(kAttrJobId, static_cast<std::int64_t>(id));
    ad.insert_expr(kAttrRequirements, "TARGET.FreeSlots >= 1");
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
};

TEST_F(PriorityTest, FifoWithinEqualPriority) {
  submit(5);
  submit(1);
  submit(9);
  EXPECT_EQ(run_one_cycle(), (std::vector<JobId>{5, 1, 9}));
}

TEST_F(PriorityTest, RefusedAndRequeuedJobsKeepTheirPlace) {
  submit(1);
  submit(2);
  submit(3);
  // Job 2's dispatch is refused; jobs 1 and 3 start.
  EXPECT_EQ(run_one_cycle([](JobId job) { return job != 2; }),
            (std::vector<JobId>{1, 2, 3}));
  submit(5);
  submit(4);
  // The refused job keeps its submission place, ahead of later
  // submissions.
  EXPECT_EQ(examination_order(), (std::vector<JobId>{2, 5, 4}));

  // Job 1 fails and is requeued with a fresh ad: it too keeps its place.
  schedd_.mark_running(schedd_.record(1));
  classad::ClassAd fresh;
  fresh.insert_integer(kAttrJobId, 1);
  fresh.insert_expr(kAttrRequirements, "TARGET.FreeSlots >= 1");
  schedd_.requeue(schedd_.record(1), fresh);
  EXPECT_EQ(examination_order(), (std::vector<JobId>{1, 2, 5, 4}));
}

}  // namespace
}  // namespace phisched::condor
