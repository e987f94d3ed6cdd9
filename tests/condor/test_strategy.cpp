#include "condor/strategy.hpp"

#include <gtest/gtest.h>

#include <map>

#include "condor/ads.hpp"
#include "sim/simulator.hpp"

namespace phisched::condor {
namespace {

// --- grammar -----------------------------------------------------------------

TEST(ParseNegotiation, FifoIsTheDefaultSpelling) {
  const NegotiationConfig c = parse_negotiation("fifo");
  EXPECT_EQ(c.strategy, MatchStrategyKind::kFifo);
  EXPECT_EQ(negotiation_to_string(c), "fifo");
}

TEST(ParseNegotiation, BareBatchUsesDefaults) {
  const NegotiationConfig c = parse_negotiation("batch");
  EXPECT_EQ(c.strategy, MatchStrategyKind::kBatch);
  EXPECT_EQ(c.batch.batch_size, 16u);
  EXPECT_DOUBLE_EQ(c.batch.occupancy_threads, 0.9);
  EXPECT_DOUBLE_EQ(c.batch.occupancy_memory, 1.0);
  EXPECT_EQ(c.batch.packer, knapsack::SolverKind::kDp2D);
}

TEST(ParseNegotiation, FullGrammarRoundTrips) {
  const NegotiationConfig c =
      parse_negotiation("batch:size=8,occ=0.75,occ-mem=0.5,packer=bnb");
  EXPECT_EQ(c.batch.batch_size, 8u);
  EXPECT_DOUBLE_EQ(c.batch.occupancy_threads, 0.75);
  EXPECT_DOUBLE_EQ(c.batch.occupancy_memory, 0.5);
  EXPECT_EQ(c.batch.packer, knapsack::SolverKind::kBranchAndBound);
  EXPECT_EQ(negotiation_to_string(c),
            "batch:size=8,occ=0.75,occ-mem=0.5,packer=bnb");
  const NegotiationConfig again =
      parse_negotiation(negotiation_to_string(c));
  EXPECT_EQ(again.batch.batch_size, c.batch.batch_size);
  EXPECT_EQ(again.batch.packer, c.batch.packer);
}

TEST(ParseNegotiation, KeysComposeInAnyOrder) {
  const NegotiationConfig c = parse_negotiation("batch:packer=greedy,size=4");
  EXPECT_EQ(c.batch.batch_size, 4u);
  EXPECT_EQ(c.batch.packer, knapsack::SolverKind::kGreedyDensity);
  EXPECT_DOUBLE_EQ(c.batch.occupancy_threads, 0.9);  // untouched default
}

TEST(ParseNegotiation, RejectsBadSpecs) {
  EXPECT_THROW((void)parse_negotiation("lifo"), std::invalid_argument);
  EXPECT_THROW((void)parse_negotiation("fifo:size=4"), std::invalid_argument);
  EXPECT_THROW((void)parse_negotiation("batch:size"), std::invalid_argument);
  EXPECT_THROW((void)parse_negotiation("batch:size=abc"), std::invalid_argument);
  EXPECT_THROW((void)parse_negotiation("batch:size=0"), std::invalid_argument);
  EXPECT_THROW((void)parse_negotiation("batch:size=2.5"), std::invalid_argument);
  EXPECT_THROW((void)parse_negotiation("batch:occ=0"), std::invalid_argument);
  EXPECT_THROW((void)parse_negotiation("batch:occ=0.9x"), std::invalid_argument);
  EXPECT_THROW((void)parse_negotiation("batch:packer=simplex"),
               std::invalid_argument);
  EXPECT_THROW((void)parse_negotiation("batch:quantum=50"), std::invalid_argument);
  EXPECT_THROW((void)parse_negotiation(""), std::invalid_argument);
}

TEST(ParseNegotiation, RejectsNonFiniteOccupancy) {
  // nan used to slip through the `<= 0` guard and poison every admission
  // comparison; inf additionally made the float->int batch cast UB.
  EXPECT_THROW((void)parse_negotiation("batch:occ=nan"),
               std::invalid_argument);
  EXPECT_THROW((void)parse_negotiation("batch:occ=inf"),
               std::invalid_argument);
  EXPECT_THROW((void)parse_negotiation("batch:occ=-inf"),
               std::invalid_argument);
  EXPECT_THROW((void)parse_negotiation("batch:occ-mem=nan"),
               std::invalid_argument);
  EXPECT_THROW((void)parse_negotiation("batch:occ=-1"),
               std::invalid_argument);
  // Hex floats used to be read: 0x1p-1 ran as 0.5.
  EXPECT_THROW((void)parse_negotiation("batch:occ=0x1p-1"),
               std::invalid_argument);
}

TEST(ParseNegotiation, RejectsOccupancyAboveSaneBound) {
  EXPECT_THROW((void)parse_negotiation("batch:occ=17"),
               std::invalid_argument);
  EXPECT_THROW((void)parse_negotiation("batch:occ-mem=1e30"),
               std::invalid_argument);
  // The bound itself is inclusive.
  EXPECT_DOUBLE_EQ(parse_negotiation("batch:occ=16").batch.occupancy_threads,
                   16.0);
}

TEST(ParseNegotiation, RejectsSizeOutsideItsRangeBeforeTheCast) {
  // Regression: a size outside [1, 1000000] must be rejected before the
  // cast to size_t (undefined for negative or huge values), with an error
  // naming the key and its range. Sizes are integers, so 1e6 is refused
  // as `--jobs 1e3` is.
  for (const char* spec : {"batch:size=-1", "batch:size=1e20", "batch:size=0",
                           "batch:size=2.5", "batch:size=1000001",
                           "batch:size=1e6"}) {
    try {
      (void)parse_negotiation(spec);
      ADD_FAILURE() << "expected std::invalid_argument for " << spec;
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("'size'"), std::string::npos) << what;
      EXPECT_NE(what.find("[1, 1000000]"), std::string::npos) << what;
    }
  }
  EXPECT_EQ(parse_negotiation("batch:size=1").batch.batch_size, 1u);
  EXPECT_EQ(parse_negotiation("batch:size=1000000").batch.batch_size,
            1000000u);
}

TEST(ParseNegotiation, RejectsDuplicateKeysNamingTheKey) {
  try {
    (void)parse_negotiation("batch:size=4,size=8");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("size"), std::string::npos);
  }
  EXPECT_THROW((void)parse_negotiation("batch:occ=0.5,occ=0.6"),
               std::invalid_argument);
  EXPECT_THROW((void)parse_negotiation("batch:packer=bnb,packer=bnb"),
               std::invalid_argument);
}

// --- strategy fixtures -------------------------------------------------------

classad::ClassAd machine_ad(NodeId node, std::int64_t slots, MiB total_mem,
                            MiB free_mem, ThreadCount free_threads,
                            int devices = 1) {
  classad::ClassAd ad;
  ad.insert_string(kAttrName, machine_name(node));
  ad.insert_integer(kAttrFreeSlots, slots);
  ad.insert_integer(kAttrPhiDevices, devices);
  ad.insert_integer(kAttrPhiHwThreads, 240);
  ad.insert_integer(kAttrPhiTotalMemory, total_mem);
  ad.insert_integer(kAttrPhiFreeMemory, free_mem);
  for (DeviceId d = 0; d < devices; ++d) {
    ad.insert_integer(per_device_memory_attr(d), free_mem);
    ad.insert_integer(per_device_threads_attr(d), free_threads);
  }
  ad.insert_expr(kAttrRequirements, "MY.FreeSlots >= 1");
  return ad;
}

class StrategyTest : public ::testing::Test {
 protected:
  StrategyTest() : schedd_(sim_), rng_(5) {}

  void add_machine(NodeId node, classad::ClassAd ad) {
    machines_.emplace_back(node, std::move(ad));
  }

  void submit(JobId id, MiB mem, ThreadCount threads, int devices = 1) {
    workload::JobSpec spec;
    spec.id = id;
    spec.mem_req_mib = mem;
    spec.threads_req = threads;
    spec.devices_req = devices;
    schedd_.submit(id, make_job_ad(spec, arbitrary_requirements()));
  }

  CycleOutcome run(const NegotiationConfig& config) {
    auto strategy = make_match_strategy(config);
    const PendingJobs pending = schedd_.pending();
    MatchCycle cycle{schedd_, rng_, machines_, pending, dispatch_, 0.0, false};
    return strategy->run(cycle);
  }

  Simulator sim_;
  Schedd schedd_;
  Rng rng_;
  std::vector<std::pair<NodeId, classad::ClassAd>> machines_;
  std::vector<std::pair<JobId, NodeId>> dispatched_;
  std::function<bool(JobId, NodeId)> dispatch_ = [this](JobId job,
                                                        NodeId node) {
    dispatched_.emplace_back(job, node);
    return true;
  };
};

TEST_F(StrategyTest, BatchPacksWholeBatchInOneCycle) {
  add_machine(0, machine_ad(0, 16, 7600, 7600, 240));
  add_machine(1, machine_ad(1, 16, 7600, 7600, 240));
  for (JobId id = 0; id < 6; ++id) submit(id, 1000, 60);

  NegotiationConfig config;
  config.strategy = MatchStrategyKind::kBatch;
  const CycleOutcome outcome = run(config);
  EXPECT_EQ(outcome.batch_jobs, 6u);
  EXPECT_EQ(outcome.packed, 6u);
  EXPECT_EQ(outcome.matches, 6u);
  EXPECT_EQ(outcome.occupancy_rejected, 0u);
  EXPECT_EQ(dispatched_.size(), 6u);
}

TEST_F(StrategyTest, BatchSizeBoundsTheDrain) {
  add_machine(0, machine_ad(0, 16, 7600, 7600, 240));
  for (JobId id = 0; id < 10; ++id) submit(id, 100, 10);

  NegotiationConfig config;
  config.strategy = MatchStrategyKind::kBatch;
  config.batch.batch_size = 4;
  const CycleOutcome outcome = run(config);
  EXPECT_EQ(outcome.batch_jobs, 4u);
  EXPECT_EQ(outcome.matches, 4u);
  EXPECT_EQ(schedd_.pending().size(), 6u);
}

TEST_F(StrategyTest, UnmatchableJobsDoNotConsumeBatchSlots) {
  // Starvation regression: under MCCK the add-on parks jobs at
  // `Requirements = false` until it pins them, and pins by value rather
  // than queue position. If such jobs counted toward batch_size, a head
  // of parked jobs would starve every matchable job behind them forever.
  add_machine(0, machine_ad(0, 16, 7600, 7600, 240));
  for (JobId id = 0; id < 4; ++id) {
    workload::JobSpec spec;
    spec.id = id;
    spec.mem_req_mib = 100;
    spec.threads_req = 10;
    schedd_.submit(id, make_job_ad(spec, "false"));  // parked, unpinned
  }
  submit(4, 100, 10);  // matchable, behind all four parked jobs

  NegotiationConfig config;
  config.strategy = MatchStrategyKind::kBatch;
  config.batch.batch_size = 2;
  const CycleOutcome outcome = run(config);
  EXPECT_EQ(outcome.batch_jobs, 1u);  // only the matchable job drained
  EXPECT_EQ(outcome.matches, 1u);
  ASSERT_EQ(dispatched_.size(), 1u);
  EXPECT_EQ(dispatched_[0].first, 4u);
  EXPECT_EQ(schedd_.pending().size(), 4u);  // parked jobs wait, unharmed
}

TEST_F(StrategyTest, ThreadOccupancyGateHoldsJobsBack) {
  // 0.9 * 240 = 216 thread budget; three 100-thread jobs need 300.
  add_machine(0, machine_ad(0, 16, 7600, 7600, 240));
  for (JobId id = 0; id < 3; ++id) submit(id, 100, 100);

  NegotiationConfig config;
  config.strategy = MatchStrategyKind::kBatch;
  const CycleOutcome outcome = run(config);
  EXPECT_EQ(outcome.matches, 2u);
  EXPECT_EQ(outcome.occupancy_rejected, 1u);
  EXPECT_EQ(schedd_.pending().size(), 1u);
}

TEST_F(StrategyTest, ResidentThreadsShrinkTheBudget) {
  // 100 declared threads already resident: budget 216 - 100 = 116, so
  // only one more 100-thread job packs.
  add_machine(0, machine_ad(0, 16, 7600, 7600, 140));
  submit(0, 100, 100);
  submit(1, 100, 100);

  NegotiationConfig config;
  config.strategy = MatchStrategyKind::kBatch;
  const CycleOutcome outcome = run(config);
  EXPECT_EQ(outcome.matches, 1u);
  EXPECT_EQ(outcome.occupancy_rejected, 1u);
}

TEST_F(StrategyTest, MemoryOccupancyGateUsesTotalMemory) {
  // occ-mem 0.5 of 7600 = 3800: one 2000 MiB job fits, the second would
  // push declared memory past the threshold.
  add_machine(0, machine_ad(0, 16, 7600, 7600, 240));
  submit(0, 2000, 10);
  submit(1, 2000, 10);

  NegotiationConfig config;
  config.strategy = MatchStrategyKind::kBatch;
  config.batch.occupancy_memory = 0.5;
  const CycleOutcome outcome = run(config);
  EXPECT_EQ(outcome.matches, 1u);
  EXPECT_EQ(outcome.occupancy_rejected, 1u);
}

TEST_F(StrategyTest, OversizedJobFallsBackToPerJobWalk) {
  // 240 declared threads exceed the 216 budget even on an idle card; the
  // job must not starve — it takes the per-job FIFO path instead.
  add_machine(0, machine_ad(0, 16, 7600, 7600, 240));
  submit(0, 100, 240);

  NegotiationConfig config;
  config.strategy = MatchStrategyKind::kBatch;
  const CycleOutcome outcome = run(config);
  EXPECT_EQ(outcome.matches, 1u);
  EXPECT_EQ(outcome.occupancy_rejected, 0u);
  ASSERT_EQ(dispatched_.size(), 1u);
  EXPECT_EQ(dispatched_[0].first, 0u);
}

TEST_F(StrategyTest, GangJobsBypassThePacker) {
  classad::ClassAd two_devices = machine_ad(0, 16, 7600, 7600, 240, 2);
  two_devices.insert_integer(kAttrPhiFreeDevices, 2);
  add_machine(0, std::move(two_devices));
  submit(0, 100, 30, /*devices=*/2);
  submit(1, 100, 30);

  NegotiationConfig config;
  config.strategy = MatchStrategyKind::kBatch;
  const CycleOutcome outcome = run(config);
  // Both match: the single through the packer, the gang via the walk.
  EXPECT_EQ(outcome.matches, 2u);
  EXPECT_EQ(outcome.packed, 1u);
}

TEST_F(StrategyTest, PackedPlacementPinsTheChosenDevice) {
  classad::ClassAd two_devices = machine_ad(0, 16, 7600, 7600, 240, 2);
  add_machine(0, std::move(two_devices));
  submit(0, 100, 30);

  NegotiationConfig config;
  config.strategy = MatchStrategyKind::kBatch;
  run(config);
  const auto pinned = schedd_.record(0).ad.eval_integer(kAttrPinnedDevice);
  ASSERT_TRUE(pinned.has_value());
  EXPECT_EQ(*pinned, 0);
}

TEST_F(StrategyTest, PrePinnedDeviceIsRespected) {
  classad::ClassAd two_devices = machine_ad(0, 16, 7600, 7600, 240, 2);
  add_machine(0, std::move(two_devices));
  submit(0, 100, 30);
  schedd_.qedit_expr(0, kAttrPinnedDevice, "1");

  NegotiationConfig config;
  config.strategy = MatchStrategyKind::kBatch;
  const CycleOutcome outcome = run(config);
  EXPECT_EQ(outcome.matches, 1u);
  EXPECT_EQ(*schedd_.record(0).ad.eval_integer(kAttrPinnedDevice), 1);
}

TEST_F(StrategyTest, SlotBudgetHonoredAcrossPackedPlacements) {
  // One slot, two packable jobs: the re-check against the deducted ad
  // keeps the second placement from dispatching.
  add_machine(0, machine_ad(0, 1, 7600, 7600, 240));
  submit(0, 100, 30);
  submit(1, 100, 30);

  NegotiationConfig config;
  config.strategy = MatchStrategyKind::kBatch;
  const CycleOutcome outcome = run(config);
  EXPECT_EQ(outcome.matches, 1u);
  EXPECT_EQ(schedd_.pending().size(), 1u);
}

TEST_F(StrategyTest, FifoStrategyMatchesInOrder) {
  add_machine(0, machine_ad(0, 2, 7600, 7600, 240));
  for (JobId id = 0; id < 3; ++id) submit(id, 100, 30);

  NegotiationConfig config;  // kFifo default
  const CycleOutcome outcome = run(config);
  EXPECT_EQ(outcome.matches, 2u);  // two slots
  EXPECT_EQ(outcome.batch_jobs, 0u);
  EXPECT_EQ(outcome.packed, 0u);
  ASSERT_EQ(dispatched_.size(), 2u);
  EXPECT_EQ(dispatched_[0].first, 0u);
  EXPECT_EQ(dispatched_[1].first, 1u);
}

TEST_F(StrategyTest, ChooseMachineDrawsNoRngWhenNothingMatches) {
  add_machine(0, machine_ad(0, 0, 7600, 7600, 240));  // no free slots
  submit(9, 10, 10);

  CandidateMemo memo(schedd_, machines_);
  Rng a(77);
  Rng b(77);
  EXPECT_FALSE(memo.choose(schedd_.record(9), a).has_value());
  // a must be untouched: same next draw as the pristine twin.
  EXPECT_EQ(a.index(1000), b.index(1000));
}

TEST_F(StrategyTest, ConstantRequirementsFoldBeforeTheScan) {
  // MCCK parks unpinned jobs at `Requirements = false`. A literal other
  // than true accepts no machine, so the memo answers without a scan,
  // without classifying the job and without touching the RNG.
  for (NodeId n = 0; n < 4; ++n) {
    add_machine(n, machine_ad(n, 16, 7600, 7600, 240));
  }
  workload::JobSpec spec;
  spec.mem_req_mib = 10;
  spec.threads_req = 10;
  JobId next = 0;
  const auto submit_with = [&](const char* requirements) {
    spec.id = next++;
    schedd_.submit(spec.id, make_job_ad(spec, requirements));
    return spec.id;
  };
  CandidateMemo memo(schedd_, machines_);
  for (const char* literal : {"false", "undefined", "error", "1", "\"yes\""}) {
    const JobRecord& job = schedd_.record(submit_with(literal));
    EXPECT_TRUE(classad::requirements_never_met(job.ad)) << literal;
    Rng rng(77);
    Rng pristine = rng;
    EXPECT_EQ(memo.choose(job, rng), std::nullopt) << literal;
    EXPECT_TRUE(rng.engine() == pristine.engine()) << literal;
    EXPECT_TRUE(memo.candidates(job).empty()) << literal;
    EXPECT_EQ(job.autocluster, 0u) << literal;
  }
  EXPECT_EQ(memo.evaluations(), 0u);
  // `true` and a non-literal expression still scan, and draw once.
  for (const char* reqs : {"true", "TARGET.FreeSlots >= 1"}) {
    const JobRecord& job = schedd_.record(submit_with(reqs));
    EXPECT_FALSE(classad::requirements_never_met(job.ad)) << reqs;
    Rng twin = rng_;
    EXPECT_EQ(memo.choose(job, rng_), std::optional{twin.index(4)}) << reqs;
    EXPECT_TRUE(rng_.engine() == twin.engine()) << reqs;
  }
  EXPECT_EQ(memo.evaluations(), 8u);
}

TEST_F(StrategyTest, MakeStrategyRejectsBadBatchKnobs) {
  NegotiationConfig config;
  config.strategy = MatchStrategyKind::kBatch;
  config.batch.batch_size = 0;
  EXPECT_THROW(make_match_strategy(config), std::invalid_argument);
  config.batch.batch_size = 16;
  config.batch.occupancy_threads = 0.0;
  EXPECT_THROW(make_match_strategy(config), std::invalid_argument);
  config.batch.occupancy_threads = 0.9;
  config.batch.occupancy_memory = -1.0;
  EXPECT_THROW(make_match_strategy(config), std::invalid_argument);
}

}  // namespace
}  // namespace phisched::condor
