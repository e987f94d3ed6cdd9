#include "condor/negotiator.hpp"

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "condor/ads.hpp"
#include "workload/jobset.hpp"

namespace phisched::condor {
namespace {

class NegotiatorTest : public ::testing::Test {
 protected:
  NegotiatorTest() : schedd_(sim_) {}

  void add_machine(NodeId node, std::int64_t free_mem,
                   std::int64_t free_slots) {
    machine_mem_[node] = free_mem;
    machine_slots_[node] = free_slots;
    collector_.advertise(node, [this, node] {
      classad::ClassAd ad;
      ad.insert_string(kAttrName, machine_name(node));
      ad.insert_integer(kAttrPhiFreeMemory, machine_mem_[node]);
      ad.insert_integer(kAttrFreeSlots, machine_slots_[node]);
      ad.insert_expr(kAttrRequirements, "MY.FreeSlots >= 1");
      return ad;
    });
  }

  void submit_job(JobId id, MiB mem, const std::string& reqs) {
    workload::JobSpec spec;
    spec.id = id;
    spec.mem_req_mib = mem;
    spec.threads_req = 60;
    schedd_.submit(id, make_job_ad(spec, reqs));
  }

  Negotiator make(NegotiatorConfig config = {},
                  Negotiator::DispatchFn dispatch = nullptr) {
    if (dispatch == nullptr) {
      dispatch = [this](JobId job, NodeId node) {
        dispatched_.emplace_back(job, node);
        return true;
      };
    }
    return Negotiator(sim_, schedd_, collector_, std::move(dispatch), config,
                      Rng(5));
  }

  Simulator sim_;
  Schedd schedd_;
  Collector collector_;
  std::map<NodeId, std::int64_t> machine_mem_;
  std::map<NodeId, std::int64_t> machine_slots_;
  std::vector<std::pair<JobId, NodeId>> dispatched_;
};

TEST_F(NegotiatorTest, MatchesJobToOnlyFittingMachine) {
  add_machine(0, 100, 4);
  add_machine(1, 5000, 4);
  submit_job(1, 2000, sharing_requirements());
  NegotiatorConfig config;
  auto negotiator = make(config);
  negotiator.run_cycle();
  ASSERT_EQ(dispatched_.size(), 1u);
  EXPECT_EQ(dispatched_[0], (std::pair<JobId, NodeId>{1, 1}));
  EXPECT_EQ(schedd_.record(1).state, JobState::kMatched);
  EXPECT_EQ(negotiator.stats().matches, 1u);
}

TEST_F(NegotiatorTest, McCycleScansOncePerAutoclusterAndClaim) {
  // One MC cycle over 1,000 pending Table I jobs on 8 nodes. The snapshot's
  // PhiFreeDevices stays stale for the whole cycle, so every job matches
  // every machine and all but one dispatch per node are refused. A
  // per-job scan evaluates 8 x 1,000 two-way matches; the memo rescans
  // only after a claim, once per autocluster.
  for (NodeId n = 0; n < 8; ++n) {
    collector_.advertise(n, [n] {
      classad::ClassAd ad;
      ad.insert_string(kAttrName, machine_name(n));
      ad.insert_integer(kAttrFreeSlots, 16);
      ad.insert_integer(kAttrPhiDevices, 1);
      ad.insert_integer(kAttrPhiFreeDevices, 1);
      ad.insert_expr(kAttrRequirements, "MY.FreeSlots >= 1");
      return ad;
    });
  }
  const workload::JobSet jobs =
      workload::make_real_jobset(1000, Rng(42).child("jobs"));
  for (const workload::JobSpec& spec : jobs) {
    schedd_.submit(spec.id, make_job_ad(spec, exclusive_requirements()));
  }
  std::set<NodeId> busy;
  auto negotiator = make({}, [&busy](JobId, NodeId node) {
    return busy.insert(node).second;
  });
  negotiator.run_cycle();

  std::set<AutoclusterId> autoclusters;
  for (const workload::JobSpec& spec : jobs) {
    autoclusters.insert(schedd_.record(spec.id).autocluster);
  }
  EXPECT_EQ(autoclusters.count(0), 0u);  // every job was classified
  const NegotiatorStats& stats = negotiator.stats();
  EXPECT_EQ(stats.matches, 8u);
  EXPECT_EQ(stats.rejected_dispatches, 992u);
  EXPECT_LE(stats.match_evaluations,
            8 * (stats.matches + 1) * autoclusters.size());
}

TEST_F(NegotiatorTest, FifoOrderRespected) {
  add_machine(0, 10000, 1);  // one slot: only the first job this cycle
  submit_job(10, 100, sharing_requirements());
  submit_job(11, 100, sharing_requirements());
  auto negotiator = make();
  negotiator.run_cycle();
  ASSERT_EQ(dispatched_.size(), 1u);
  EXPECT_EQ(dispatched_[0].first, 10u);
}

TEST_F(NegotiatorTest, SlotDeductionWithinCycle) {
  add_machine(0, 10000, 2);
  for (JobId id = 0; id < 5; ++id) submit_job(id, 100, sharing_requirements());
  auto negotiator = make();
  negotiator.run_cycle();
  // Only 2 slots advertised → 2 matches this cycle even though dispatch
  // always accepts.
  EXPECT_EQ(dispatched_.size(), 2u);
  EXPECT_EQ(schedd_.pending_count(), 3u);
}

TEST_F(NegotiatorTest, CustomResourceStaleWithinCycleByDefault) {
  // Vanilla Condor does not deduct custom attributes: both jobs match the
  // same advertised memory within one cycle.
  add_machine(0, 2000, 8);
  submit_job(1, 1500, sharing_requirements());
  submit_job(2, 1500, sharing_requirements());
  auto negotiator = make();
  negotiator.run_cycle();
  EXPECT_EQ(dispatched_.size(), 2u);
}

TEST_F(NegotiatorTest, RejectedDispatchReturnsJobToPending) {
  add_machine(0, 10000, 4);
  submit_job(1, 100, sharing_requirements());
  auto negotiator =
      make({}, [](JobId, NodeId) { return false; });
  negotiator.run_cycle();
  EXPECT_EQ(schedd_.record(1).state, JobState::kPending);
  EXPECT_EQ(negotiator.stats().rejected_dispatches, 1u);
  EXPECT_EQ(negotiator.stats().matches, 0u);
}

TEST_F(NegotiatorTest, PreCycleHookRunsBeforeMatching) {
  add_machine(0, 10000, 4);
  submit_job(1, 100, "false");  // unmatchable until the hook pins it
  auto negotiator = make();
  negotiator.set_pre_cycle_hook([this](const MachineAds&) {
    schedd_.qedit_expr(1, kAttrRequirements, "TARGET.FreeSlots >= 1");
  });
  negotiator.run_cycle();
  EXPECT_EQ(dispatched_.size(), 1u);
}

TEST_F(NegotiatorTest, PeriodicCyclesFireOnTimer) {
  add_machine(0, 10000, 1);
  submit_job(1, 100, sharing_requirements());
  submit_job(2, 100, sharing_requirements());
  NegotiatorConfig config;
  config.cycle_interval = 10.0;
  auto negotiator = make(config);
  negotiator.start();
  sim_.run_until(10.5);
  EXPECT_EQ(dispatched_.size(), 1u);  // cycle at t=10
  // Free the slot before the next cycle.
  machine_slots_[0] = 1;
  schedd_.mark_running(1);
  schedd_.mark_completed(1);
  sim_.run_until(20.5);
  EXPECT_EQ(dispatched_.size(), 2u);  // cycle at t=20
  negotiator.stop();
  sim_.run();
  EXPECT_EQ(negotiator.stats().cycles, 2u);
}

TEST_F(NegotiatorTest, UnmatchableJobStaysPending) {
  add_machine(0, 100, 4);
  submit_job(1, 5000, sharing_requirements());
  auto negotiator = make();
  negotiator.run_cycle();
  EXPECT_TRUE(dispatched_.empty());
  EXPECT_EQ(schedd_.pending_count(), 1u);
}

TEST_F(NegotiatorTest, PinnedJobGoesToNamedNode) {
  add_machine(0, 10000, 4);
  add_machine(1, 10000, 4);
  add_machine(2, 10000, 4);
  submit_job(1, 100, pinned_requirements(2));
  auto negotiator = make();
  negotiator.run_cycle();
  ASSERT_EQ(dispatched_.size(), 1u);
  EXPECT_EQ(dispatched_[0].second, 2);
}

TEST_F(NegotiatorTest, NamePinnedJobsAreMatchedOnlyAgainstTheirNode) {
  // Every job carries the add-on's pin and every machine a distinct
  // literal Name, so a scan evaluates only the named machine: at most one
  // two-way match per job, where a scan of every machine would evaluate
  // 50. Each machine has two slots for its four jobs.
  constexpr NodeId kMachines = 50;
  constexpr JobId kJobs = 200;
  const auto pin = [](JobId id) {
    return static_cast<NodeId>((id * 7) % kMachines);
  };
  for (NodeId n = 0; n < kMachines; ++n) add_machine(n, 8000, 2);
  for (JobId id = 0; id < kJobs; ++id) {
    submit_job(id, 1000 + 10 * static_cast<MiB>(id % 3),
               pinned_requirements(pin(id)));
  }
  auto negotiator = make();
  negotiator.run_cycle();
  EXPECT_EQ(negotiator.stats().matches, 2u * kMachines);
  EXPECT_LE(negotiator.stats().match_evaluations, kJobs);
  for (const auto& [job, node] : dispatched_) EXPECT_EQ(node, pin(job));
}

TEST_F(NegotiatorTest, RandomOrderSpreadsAcrossMachines) {
  for (NodeId n = 0; n < 4; ++n) add_machine(n, 10000, 100);
  for (JobId id = 0; id < 40; ++id) submit_job(id, 100, sharing_requirements());
  auto negotiator = make();
  negotiator.run_cycle();
  std::map<NodeId, int> per_node;
  for (const auto& [job, node] : dispatched_) per_node[node] += 1;
  EXPECT_EQ(per_node.size(), 4u);  // all machines used
}

TEST_F(NegotiatorTest, StaleDeviceCountOversubscribesWithoutDeduction) {
  // Vanilla Condor: custom attributes stay stale within the cycle, so
  // both exclusive jobs match the single advertised device.
  collector_.advertise(0, [] {
    classad::ClassAd ad;
    ad.insert_string(kAttrName, machine_name(0));
    ad.insert_integer(kAttrFreeSlots, 8);
    ad.insert_integer(kAttrPhiFreeDevices, 1);
    ad.insert_expr(kAttrRequirements, "MY.FreeSlots >= 1");
    return ad;
  });
  submit_job(1, 100, exclusive_requirements());
  submit_job(2, 100, exclusive_requirements());
  auto negotiator = make();
  negotiator.run_cycle();
  EXPECT_EQ(dispatched_.size(), 2u);
}

TEST_F(NegotiatorTest, RejectsBadConfig) {
  NegotiatorConfig config;
  config.cycle_interval = 0.0;
  EXPECT_THROW(make(config), std::invalid_argument);
}

}  // namespace
}  // namespace phisched::condor
