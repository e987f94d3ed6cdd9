// Autoclusters and the candidate memo.
//
// The property test replays randomized negotiation cycles twice: once
// through FifoStrategy, which reads candidates from the cycle's
// CandidateMemo, and once through a copy of the per-job scan the memo
// replaced (reference_choose below, kept verbatim). Both must make the
// same dispatch decisions in the same order and leave the RNG in the
// same state. The ads exercise everything the autocluster key must
// cover: MY., TARGET. and bare references, names missing on one side,
// machine attributes that read TARGET.x, a Rank that only Requirements
// reads, literal and non-literal Requirements, qedits and requeues
// between cycles, and slot claims within a cycle. A second property
// test replays jobs that name a machine against machines whose Name
// takes every form the memo's name index must tell apart.
#include <gtest/gtest.h>

#include <initializer_list>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "classad/classad.hpp"
#include "classad/parser.hpp"
#include "condor/ads.hpp"
#include "condor/strategy.hpp"
#include "sim/simulator.hpp"

namespace phisched::condor {
namespace {

// --- the unmemoized per-job scan (reference) -------------------------------

std::uint64_t reference_evaluations = 0;

std::optional<std::size_t> reference_choose(const classad::ClassAd& job_ad,
                                            const MachineAds& machines,
                                            Rng& rng) {
  if (classad::requirements_never_met(job_ad)) return std::nullopt;
  std::vector<std::size_t> candidates;
  for (std::size_t m = 0; m < machines.size(); ++m) {
    ++reference_evaluations;
    if (classad::symmetric_match(job_ad, machines[m].second)) {
      candidates.push_back(m);
    }
  }
  if (candidates.empty()) return std::nullopt;
  return candidates[rng.index(candidates.size())];
}

struct Decision {
  JobId job;
  NodeId node;
  bool accepted;
  friend bool operator==(const Decision&, const Decision&) = default;
};

using DispatchFn = std::function<bool(JobId, NodeId)>;

/// The FIFO walk with one scan per job, claiming a slot per accepted
/// dispatch exactly as the strategy does.
void reference_cycle(Schedd& schedd, MachineAds machines, Rng& rng,
                     const DispatchFn& dispatch) {
  for (const JobRecord* job : schedd.pending()) {
    const JobId id = job->id;
    const JobRecord& rec = schedd.record(id);
    if (rec.state != JobState::kPending) continue;
    const auto chosen = reference_choose(rec.ad, machines, rng);
    if (!chosen.has_value()) continue;
    auto& [node, machine] = machines[*chosen];
    schedd.mark_matched(rec, node);
    if (dispatch(id, node)) {
      if (machine.has(kAttrFreeSlots)) {
        machine.insert_integer(
            kAttrFreeSlots,
            machine.eval_integer(kAttrFreeSlots).value_or(0) - 1);
      }
    } else {
      schedd.release_match(rec);
    }
  }
}

/// One FifoStrategy cycle; returns the two-way matches it evaluated.
std::uint64_t memo_cycle(Schedd& schedd, MachineAds machines, Rng& rng,
                         const DispatchFn& dispatch) {
  const auto strategy = make_match_strategy(NegotiationConfig{});
  const PendingJobs pending = schedd.pending();
  MatchCycle cycle{schedd, rng, machines, pending, dispatch, 0.0, false};
  (void)strategy->run(cycle);
  return cycle.candidates.evaluations();
}

// --- randomized ads -------------------------------------------------------

template <typename T>
const T& pick(Rng& rng, const std::vector<T>& options) {
  return options[rng.index(options.size())];
}

/// A machine ad. Requirements may read the job through TARGET. or through
/// a bare name the machine lacks (Tier); Fits reads TARGET.NeedMem.
classad::ClassAd random_machine(Rng& rng, NodeId node) {
  classad::ClassAd ad;
  ad.insert_string(kAttrName, machine_name(node));
  ad.insert_integer(kAttrFreeSlots, rng.uniform_int(0, 3));
  ad.insert_integer("Mem", pick<std::int64_t>(rng, {2, 4, 8}));
  ad.insert_real("Load", pick<double>(rng, {0.5, 1.5, 2.5}));
  if (rng.bernoulli(0.7)) {
    ad.insert_string("Color", pick<std::string>(rng, {"red", "blue"}));
  }
  if (rng.bernoulli(0.5)) {
    ad.insert_expr("Open", rng.bernoulli(0.5) ? "true" : "false");
  }
  ad.insert_expr("Fits", "TARGET.NeedMem <= MY.Mem");
  ad.insert_expr(kAttrRequirements,
                 pick<std::string>(
                     rng, {"MY.FreeSlots >= 1",
                           "MY.FreeSlots >= 1 && TARGET.Owner =!= \"mallory\"",
                           "FreeSlots >= 1 && Tier <= 2",
                           "MY.FreeSlots >= 1 && (TARGET.Group == \"a\" || "
                           "MY.Open)"}));
  return ad;
}

/// A job ad from small domains, so many jobs share an autocluster.
classad::ClassAd random_job(Rng& rng, JobId id) {
  classad::ClassAd ad;
  ad.insert_integer(kAttrJobId, static_cast<std::int64_t>(id));
  if (rng.bernoulli(0.9)) {
    ad.insert_integer("NeedMem", pick<std::int64_t>(rng, {1, 2, 4, 8}));
  }
  if (rng.bernoulli(0.7)) {
    ad.insert_string("Owner", pick<std::string>(rng, {"alice", "mallory"}));
  }
  if (rng.bernoulli(0.7)) ad.insert_integer("Tier", rng.uniform_int(1, 3));
  if (rng.bernoulli(0.7)) {
    ad.insert_string("Group", pick<std::string>(rng, {"a", "b"}));
  }
  if (rng.bernoulli(0.5)) {
    ad.insert_string("Color", pick<std::string>(rng, {"red", "blue"}));
  }
  if (rng.bernoulli(0.5)) ad.insert_integer("Limit", rng.uniform_int(1, 2));
  if (rng.bernoulli(0.6)) ad.insert_expr("Want", "TARGET.Load < Limit");
  if (rng.bernoulli(0.3)) ad.insert_integer("Weight", rng.uniform_int(1, 2));
  if (rng.bernoulli(0.7)) {
    ad.insert_expr("Rank",
                   pick<std::string>(
                       rng, {"TARGET.Mem", "-TARGET.Load",
                             "TARGET.Mem * Weight",
                             "TARGET.Color == \"red\" ? 10 : 1"}));
  }
  ad.insert_expr(kAttrRequirements,
                 pick<std::string>(
                     rng, {"TARGET.FreeSlots >= 1",
                           "TARGET.Fits && TARGET.FreeSlots >= 1",
                           "TARGET.Mem >= MY.NeedMem && TARGET.FreeSlots > 0",
                           "Color == TARGET.Color && TARGET.FreeSlots >= 1",
                           "Want && TARGET.FreeSlots >= 1",
                           "TARGET.FreeSlots >= 1 && MY.Rank >= 2",
                           "false", "true", "undefined"}));
  return ad;
}

/// A deterministic accept/refuse verdict, the same for both replays.
bool verdict(std::uint64_t salt, JobId job, NodeId node) {
  std::uint64_t x = salt ^ (job * 0x9e3779b97f4a7c15ULL) ^
                    (static_cast<std::uint64_t>(node) << 40);
  x = (x ^ (x >> 31)) * 0xbf58476d1ce4e5b9ULL;
  return (x ^ (x >> 29)) % 10 < 3;
}

class Replay {
 public:
  Replay() : schedd_(sim_) {}
  Schedd& schedd() { return schedd_; }
  std::vector<Decision>& log() { return log_; }
  DispatchFn dispatcher(std::uint64_t salt) {
    return [this, salt](JobId job, NodeId node) {
      const bool ok = verdict(salt, job, node);
      log_.push_back({job, node, ok});
      return ok;
    };
  }

 private:
  Simulator sim_;
  Schedd schedd_;
  std::vector<Decision> log_;
};

TEST(AutoclusterProperty, MemoChoosesExactlyWhatThePerJobScanChose) {
  constexpr int kScenarios = 40;
  constexpr int kCycles = 6;
  std::uint64_t memo_evaluations = 0;
  reference_evaluations = 0;
  for (int scenario = 0; scenario < kScenarios; ++scenario) {
    SCOPED_TRACE("scenario " + std::to_string(scenario));
    Rng gen = Rng(2024).child("scenario" + std::to_string(scenario));
    Replay memo;
    Replay reference;
    Rng memo_rng(static_cast<std::uint64_t>(scenario));
    Rng reference_rng(static_cast<std::uint64_t>(scenario));
    JobId next = 0;
    const auto submit = [&](int count) {
      for (int i = 0; i < count; ++i) {
        const classad::ClassAd ad = random_job(gen, next);
        memo.schedd().submit(next, ad);
        reference.schedd().submit(next, ad);
        ++next;
      }
    };
    submit(static_cast<int>(gen.uniform_int(15, 40)));
    const auto machine_count = static_cast<NodeId>(gen.uniform_int(2, 6));

    for (int cycle = 0; cycle < kCycles; ++cycle) {
      MachineAds machines;
      for (NodeId n = 0; n < machine_count; ++n) {
        machines.emplace_back(n, random_machine(gen, n));
      }
      const auto salt =
          static_cast<std::uint64_t>(gen.uniform_int(0, 1 << 30));
      memo_evaluations += memo_cycle(memo.schedd(), machines, memo_rng,
                                     memo.dispatcher(salt));
      reference_cycle(reference.schedd(), machines, reference_rng,
                      reference.dispatcher(salt));
      ASSERT_EQ(memo.log(), reference.log()) << "cycle " << cycle;
      ASSERT_TRUE(memo_rng.engine() == reference_rng.engine())
          << "cycle " << cycle;

      // Between cycles: matched jobs run, then finish or are requeued
      // with a fresh ad; some pending jobs are qedited; more arrive.
      for (JobId id = 0; id < next; ++id) {
        const JobRecord& rec = memo.schedd().record(id);
        if (rec.state == JobState::kMatched) {
          memo.schedd().mark_running(memo.schedd().record(id));
          reference.schedd().mark_running(reference.schedd().record(id));
          if (gen.bernoulli(0.4)) {
            const classad::ClassAd ad = random_job(gen, id);
            memo.schedd().requeue(memo.schedd().record(id), ad);
            reference.schedd().requeue(reference.schedd().record(id), ad);
          } else {
            memo.schedd().mark_completed(memo.schedd().record(id));
            reference.schedd().mark_completed(reference.schedd().record(id));
          }
        } else if (rec.state == JobState::kPending && gen.bernoulli(0.3)) {
          const classad::ClassAd donor = random_job(gen, id);
          const char* attr = pick<const char*>(
              gen, {"Requirements", "NeedMem", "Owner", "Tier", "Rank"});
          classad::ExprPtr expr = donor.lookup(attr);
          if (expr == nullptr) expr = classad::parse("undefined");
          memo.schedd().qedit(id, attr, expr);
          reference.schedd().qedit(id, attr, expr);
        }
      }
      submit(static_cast<int>(gen.uniform_int(0, 8)));
    }
  }
  // The scenarios do share lists, so the memo is really exercised.
  EXPECT_LT(memo_evaluations, reference_evaluations);
}

// --- the name index --------------------------------------------------------

/// Names drawn from three nodes in several spellings, so literals differ
/// only in case and two machines often share a name.
std::string random_node_name(Rng& rng) {
  return pick<std::string>(rng, {"node", "NODE", "Node"}) +
         std::to_string(rng.uniform_int(0, 2));
}

/// random_machine with a Name from every form the index tells apart: a
/// string literal, none, an integer literal, and expressions that compute
/// a string, one of them from the job (TARGET.Alias).
classad::ClassAd random_named_machine(Rng& rng, NodeId node) {
  classad::ClassAd ad = random_machine(rng, node);
  const std::string n = std::to_string(rng.uniform_int(0, 2));
  switch (rng.uniform_int(0, 5)) {
    case 0:
    case 1:
      ad.insert_string(kAttrName, random_node_name(rng));
      break;
    case 2:
      ad.erase(kAttrName);
      break;
    case 3:
      ad.insert_integer(kAttrName, rng.uniform_int(0, 2));
      break;
    case 4:
      ad.insert_expr(kAttrName,
                     "MY.FreeSlots >= 0 ? \"node" + n + "\" : \"none\"");
      break;
    default:
      ad.insert_expr(kAttrName, "TARGET.Alias");
      break;
  }
  return ad;
}

/// random_job, mostly with Requirements that name a machine: forms the
/// index must use (the name operand first, last or nested in `&&`, on
/// either side of `==`) and forms it must leave to the full scan (under
/// `||`, `!` or a ternary; MY.Name or bare Name; `=?=`, `=!=`; an integer).
classad::ClassAd random_named_job(Rng& rng, JobId id) {
  classad::ClassAd ad = random_job(rng, id);
  if (rng.bernoulli(0.5)) ad.insert_string(kAttrName, random_node_name(rng));
  if (rng.bernoulli(0.5)) ad.insert_string("Alias", random_node_name(rng));
  if (rng.bernoulli(0.2)) return ad;
  const std::string name =
      classad::Value::string(random_node_name(rng)).to_string();
  const std::string number = std::to_string(rng.uniform_int(0, 2));
  ad.insert_expr(
      kAttrRequirements,
      pick<std::string>(
          rng,
          {"TARGET.Name == " + name,
           "TARGET.Name == " + name + " && TARGET.FreeSlots >= 1",
           "TARGET.FreeSlots >= 1 && " + name + " == TARGET.Name",
           "TARGET.Mem >= MY.NeedMem && (" + name +
               " == TARGET.Name && TARGET.FreeSlots > 0)",
           "(TARGET.FreeSlots >= 1 && target.name == " + name + ") && Want",
           "TARGET.Name == " + name + " || TARGET.FreeSlots >= 2",
           "!(TARGET.Name == " + name + ") && TARGET.FreeSlots >= 1",
           "TARGET.FreeSlots >= 1 ? TARGET.Name == " + name + " : false",
           "MY.Name == " + name + " && TARGET.FreeSlots >= 1",
           "Name == " + name + " && TARGET.FreeSlots >= 1",
           "TARGET.Name =?= " + name + " && TARGET.FreeSlots >= 1",
           "TARGET.Name =!= " + name + " && TARGET.FreeSlots >= 1",
           "TARGET.Name == " + number + " && TARGET.FreeSlots >= 1"}));
  return ad;
}

TEST(AutoclusterProperty, NameIndexChoosesExactlyWhatThePerJobScanChose) {
  constexpr int kScenarios = 40;
  constexpr int kCycles = 6;
  std::uint64_t memo_evaluations = 0;
  reference_evaluations = 0;
  for (int scenario = 0; scenario < kScenarios; ++scenario) {
    SCOPED_TRACE("scenario " + std::to_string(scenario));
    Rng gen = Rng(2718).child("named" + std::to_string(scenario));
    Replay memo;
    Replay reference;
    Rng memo_rng(static_cast<std::uint64_t>(scenario));
    Rng reference_rng(static_cast<std::uint64_t>(scenario));
    JobId next = 0;
    const auto submit = [&](int count) {
      for (int i = 0; i < count; ++i) {
        const classad::ClassAd ad = random_named_job(gen, next);
        memo.schedd().submit(next, ad);
        reference.schedd().submit(next, ad);
        ++next;
      }
    };
    submit(static_cast<int>(gen.uniform_int(15, 40)));
    const auto machine_count = static_cast<NodeId>(gen.uniform_int(3, 8));

    for (int cycle = 0; cycle < kCycles; ++cycle) {
      MachineAds machines;
      for (NodeId n = 0; n < machine_count; ++n) {
        machines.emplace_back(n, random_named_machine(gen, n));
      }
      const auto salt =
          static_cast<std::uint64_t>(gen.uniform_int(0, 1 << 30));
      memo_evaluations += memo_cycle(memo.schedd(), machines, memo_rng,
                                     memo.dispatcher(salt));
      reference_cycle(reference.schedd(), machines, reference_rng,
                      reference.dispatcher(salt));
      ASSERT_EQ(memo.log(), reference.log()) << "cycle " << cycle;
      ASSERT_TRUE(memo_rng.engine() == reference_rng.engine())
          << "cycle " << cycle;

      // Between cycles: matched jobs finish or are requeued with a
      // fresh ad, some pending jobs are re-pinned, more arrive.
      for (JobId id = 0; id < next; ++id) {
        const JobRecord& rec = memo.schedd().record(id);
        if (rec.state == JobState::kMatched) {
          memo.schedd().mark_running(memo.schedd().record(id));
          reference.schedd().mark_running(reference.schedd().record(id));
          if (gen.bernoulli(0.4)) {
            const classad::ClassAd ad = random_named_job(gen, id);
            memo.schedd().requeue(memo.schedd().record(id), ad);
            reference.schedd().requeue(reference.schedd().record(id), ad);
          } else {
            memo.schedd().mark_completed(memo.schedd().record(id));
            reference.schedd().mark_completed(reference.schedd().record(id));
          }
        } else if (rec.state == JobState::kPending && gen.bernoulli(0.3)) {
          const classad::ExprPtr expr =
              random_named_job(gen, id).lookup(kAttrRequirements);
          memo.schedd().qedit(id, kAttrRequirements, expr);
          reference.schedd().qedit(id, kAttrRequirements, expr);
        }
      }
      submit(static_cast<int>(gen.uniform_int(0, 8)));
    }
  }
  EXPECT_LT(memo_evaluations, reference_evaluations);
}

// --- the autocluster key --------------------------------------------------

/// (attribute name, expression source).
using Attr = std::pair<std::string, std::string>;

/// An ad holding `attrs`, each inserted with insert_expr.
classad::ClassAd ad_of(std::initializer_list<Attr> attrs) {
  classad::ClassAd ad;
  for (const auto& [name, source] : attrs) ad.insert_expr(name, source);
  return ad;
}

class AutoclusterTest : public ::testing::Test {
 protected:
  AutoclusterTest() : schedd_(sim_) {}

  void submit(JobId id, std::initializer_list<Attr> attrs) {
    schedd_.submit(id, ad_of(attrs));
  }
  AutoclusterId id_of(JobId id) {
    return schedd_.autocluster(schedd_.record(id));
  }

  Simulator sim_;
  Schedd schedd_;
};

TEST_F(AutoclusterTest, EqualSignificantAttributesShareAnId) {
  submit(1, {{"Requirements", "TARGET.Mem >= MY.NeedMem"},
             {"NeedMem", "4"},
             {"JobId", "1"}});
  submit(2, {{"Requirements", "TARGET.Mem >= MY.NeedMem"},
             {"NeedMem", "4"},
             {"JobId", "2"}});
  submit(3, {{"Requirements", "TARGET.Mem >= MY.NeedMem"},
             {"NeedMem", "8"},
             {"JobId", "3"}});
  // Spelling and case of names do not matter; literals' types do.
  submit(4, {{"requirements", "target.MEM >= my.needmem"}, {"needmem", "4"}});
  submit(5, {{"Requirements", "TARGET.Mem >= MY.NeedMem"}, {"NeedMem", "4.0"}});
  EXPECT_NE(id_of(1), 0u);
  EXPECT_EQ(id_of(1), id_of(2));  // JobId is not significant
  EXPECT_NE(id_of(1), id_of(3));
  EXPECT_EQ(id_of(1), id_of(4));
  EXPECT_NE(id_of(1), id_of(5));
  EXPECT_EQ(schedd_.autocluster_count(), 3u);
}

TEST_F(AutoclusterTest, ReferencesAreFollowedTransitively) {
  // Requirements -> Want (bare) -> Limit (bare): all three count, and so
  // does the absence of a name the job does not define.
  submit(1, {{"Requirements", "Want"},
             {"Want", "TARGET.Load < Limit"},
             {"Limit", "1"}});
  submit(2, {{"Requirements", "Want"},
             {"Want", "TARGET.Load < Limit"},
             {"Limit", "2"}});
  submit(3, {{"Requirements", "Want"}, {"Want", "TARGET.Load < Limit"}});
  submit(4, {{"Requirements", "Want"},
             {"Want", "TARGET.Load < Limit"},
             {"Limit", "1"},
             {"Other", "7"}});
  EXPECT_NE(id_of(1), id_of(2));
  EXPECT_NE(id_of(1), id_of(3));
  EXPECT_EQ(id_of(1), id_of(4));
  // TARGET.x names the machine's attribute, not the job's.
  submit(5, {{"Requirements", "TARGET.Limit > 0"}, {"Limit", "1"}});
  submit(6, {{"Requirements", "TARGET.Limit > 0"}, {"Limit", "2"}});
  EXPECT_EQ(id_of(5), id_of(6));
}

TEST_F(AutoclusterTest, RankIsAnOrdinaryAttribute) {
  // Nothing evaluates Rank, so jobs that differ only in it share an id...
  submit(1, {{"Requirements", "true"}, {"Rank", "TARGET.Mem"}});
  submit(2, {{"Requirements", "true"}, {"Rank", "-TARGET.Mem"}});
  submit(3, {{"Requirements", "true"}});
  EXPECT_EQ(id_of(1), id_of(2));
  EXPECT_EQ(id_of(1), id_of(3));
  // ...unless their Requirements reads it, like any other name.
  submit(4, {{"Requirements", "MY.Rank > 0"}, {"Rank", "1"}});
  submit(5, {{"Requirements", "MY.Rank > 0"}, {"Rank", "2"}});
  EXPECT_NE(id_of(4), id_of(5));
}

TEST_F(AutoclusterTest, MachineSideNamesJoinTheKey) {
  submit(1, {{"Requirements", "true"}, {"Owner", "\"alice\""}});
  submit(2, {{"Requirements", "true"}, {"Owner", "\"mallory\""}});
  EXPECT_EQ(id_of(1), id_of(2));  // nothing reads Owner yet

  // A machine ad that reads TARGET.Owner reclassifies every job.
  MachineAds machines;
  machines.emplace_back(
      0, ad_of({{"Requirements", "TARGET.Owner =!= \"mallory\""}}));
  CandidateMemo memo(schedd_, machines);
  EXPECT_EQ(schedd_.record(1).autocluster, 0u);
  EXPECT_NE(id_of(1), id_of(2));
  EXPECT_EQ(memo.candidates(schedd_.record(1)).size(), 1u);
  EXPECT_TRUE(memo.candidates(schedd_.record(2)).empty());
}

TEST_F(AutoclusterTest, QeditAndRequeueReclassify) {
  submit(1, {{"Requirements", "TARGET.Mem >= 4"}});
  submit(2, {{"Requirements", "TARGET.Mem >= 4"}});
  const AutoclusterId shared = id_of(1);
  EXPECT_EQ(id_of(2), shared);

  schedd_.qedit_expr(2, "Requirements", "TARGET.Mem >= 8");
  EXPECT_EQ(schedd_.record(2).autocluster, 0u);
  EXPECT_NE(id_of(2), shared);

  schedd_.mark_matched(schedd_.record(1), 0);
  schedd_.mark_running(schedd_.record(1));
  schedd_.requeue(schedd_.record(1),
                  ad_of({{"Requirements", "TARGET.Mem >= 8"}}));
  EXPECT_EQ(schedd_.record(1).autocluster, 0u);
  EXPECT_EQ(id_of(1), id_of(2));
}

TEST_F(AutoclusterTest, TableStaysProportionalToLiveJobs) {
  // A long stream of distinct signatures, each job finishing before the
  // next arrives: the table is compacted rather than grown with history.
  for (JobId id = 0; id < 500; ++id) {
    submit(id, {{"Requirements", "TARGET.Mem >= " + std::to_string(id)}});
    (void)id_of(id);
    schedd_.mark_matched(schedd_.record(id), 0);
    schedd_.mark_running(schedd_.record(id));
    schedd_.mark_completed(schedd_.record(id));
  }
  EXPECT_LE(schedd_.autocluster_count(), 16u);
}

TEST_F(AutoclusterTest, ClaimsInvalidateTheMemo) {
  MachineAds machines;
  machines.emplace_back(0, ad_of({{"FreeSlots", "1"}}));
  machines.emplace_back(1, ad_of({{"FreeSlots", "1"}}));
  submit(1, {{"Requirements", "TARGET.FreeSlots >= 1"}});
  submit(2, {{"Requirements", "TARGET.FreeSlots >= 1"}});
  CandidateMemo memo(schedd_, machines);
  EXPECT_EQ(memo.candidates(schedd_.record(1)).size(), 2u);
  EXPECT_EQ(memo.candidates(schedd_.record(2)).size(), 2u);
  EXPECT_EQ(memo.evaluations(), 2u);  // one scan for both jobs

  machines[0].second.insert_integer("FreeSlots", 0);
  memo.claimed();
  EXPECT_EQ(memo.candidates(schedd_.record(2)),
            (std::vector<std::size_t>{1}));
  EXPECT_EQ(memo.evaluations(), 4u);
}

}  // namespace
}  // namespace phisched::condor
