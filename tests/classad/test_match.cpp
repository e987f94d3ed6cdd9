#include <gtest/gtest.h>

#include <optional>
#include <string>

#include "classad/classad.hpp"

namespace phisched::classad {
namespace {

ClassAd machine_ad(std::int64_t free_mem, std::int64_t free_slots) {
  ClassAd ad;
  ad.insert_string("Name", "node0");
  ad.insert_integer("PhiFreeMemory", free_mem);
  ad.insert_integer("FreeSlots", free_slots);
  ad.insert_expr("Requirements", "MY.FreeSlots >= 1");
  return ad;
}

ClassAd job_ad(std::int64_t mem_request) {
  ClassAd ad;
  ad.insert_integer("RequestPhiMemory", mem_request);
  ad.insert_expr("Requirements",
                 "TARGET.PhiFreeMemory >= MY.RequestPhiMemory");
  return ad;
}

TEST(Match, SymmetricMatchSucceeds) {
  const ClassAd machine = machine_ad(4096, 4);
  const ClassAd job = job_ad(2048);
  EXPECT_TRUE(requirements_met(job, machine));
  EXPECT_TRUE(requirements_met(machine, job));
  EXPECT_TRUE(symmetric_match(job, machine));
}

TEST(Match, JobSideRejects) {
  const ClassAd machine = machine_ad(1024, 4);
  const ClassAd job = job_ad(2048);
  EXPECT_FALSE(requirements_met(job, machine));
  EXPECT_FALSE(symmetric_match(job, machine));
}

TEST(Match, MachineSideRejects) {
  const ClassAd machine = machine_ad(4096, 0);
  const ClassAd job = job_ad(1024);
  EXPECT_TRUE(requirements_met(job, machine));
  EXPECT_FALSE(requirements_met(machine, job));
  EXPECT_FALSE(symmetric_match(job, machine));
}

TEST(Match, MissingRequirementsAcceptsAnything) {
  ClassAd open_job;
  open_job.insert_integer("RequestPhiMemory", 1);
  const ClassAd machine = machine_ad(0, 1);
  EXPECT_TRUE(requirements_met(open_job, machine));
}

TEST(Match, UndefinedRequirementsDoNotMatch) {
  ClassAd job;
  job.insert_expr("Requirements", "TARGET.NoSuchAttribute >= 1");
  const ClassAd machine = machine_ad(4096, 4);
  EXPECT_FALSE(requirements_met(job, machine));
}

TEST(Match, ErrorRequirementsDoNotMatch) {
  ClassAd job;
  job.insert_expr("Requirements", "1 / 0");
  const ClassAd machine = machine_ad(4096, 4);
  EXPECT_FALSE(requirements_met(job, machine));
}

TEST(Match, FalseLiteralNeverMatches) {
  ClassAd job;
  job.insert_expr("Requirements", "false");
  EXPECT_FALSE(requirements_met(job, machine_ad(8000, 16)));
}

TEST(Match, PinnedNameRequirement) {
  ClassAd job;
  job.insert_expr("Requirements", "TARGET.Name == \"node0\"");
  EXPECT_TRUE(requirements_met(job, machine_ad(1, 1)));

  ClassAd other = machine_ad(1, 1);
  other.insert_string("Name", "node1");
  EXPECT_FALSE(requirements_met(job, other));
}

TEST(Match, PinnedNameIsCaseInsensitive) {
  ClassAd job;
  job.insert_expr("Requirements", "TARGET.Name == \"NODE0\"");
  EXPECT_TRUE(requirements_met(job, machine_ad(1, 1)));
}

std::optional<std::string> required_name_of(const std::string& requirements) {
  ClassAd job;
  job.insert_expr("Requirements", requirements);
  return required_name(job);
}

TEST(Match, RequiredNameReadsANameOperandOfAnAndTree) {
  EXPECT_EQ(required_name_of("TARGET.Name == \"node7\""), "node7");
  EXPECT_EQ(required_name_of("\"node7\" == TARGET.Name"), "node7");
  // First, last and nested operand; the literal keeps its case.
  EXPECT_EQ(required_name_of("TARGET.Name == \"NODE7\" && TARGET.FreeSlots "
                             ">= 1"),
            "NODE7");
  EXPECT_EQ(required_name_of("TARGET.FreeSlots >= 1 && \"node7\" == "
                             "TARGET.Name"),
            "node7");
  EXPECT_EQ(required_name_of("TARGET.Mem > 1 && (TARGET.FreeSlots >= 1 && "
                             "target.NAME == \"node7\") && MY.X"),
            "node7");
  // The leftmost of two operands: any true match satisfies both.
  EXPECT_EQ(required_name_of("TARGET.Name == \"a\" && TARGET.Name == \"b\""),
            "a");
  // The add-on's pin.
  EXPECT_EQ(required_name_of("TARGET.Name == \"node3\" && "
                             "TARGET.PhiFreeMemory >= MY.RequestPhiMemory && "
                             "TARGET.FreeSlots >= 1"),
            "node3");
}

TEST(Match, RequiredNameIgnoresEveryOtherShape) {
  ClassAd none;
  EXPECT_EQ(required_name(none), std::nullopt);
  for (const char* requirements :
       {"true", "\"node7\"", "TARGET.FreeSlots >= 1",
        "TARGET.Name == \"node7\" || TARGET.FreeSlots >= 1",
        "!(TARGET.Name == \"node7\")",
        "TARGET.FreeSlots >= 1 ? TARGET.Name == \"node7\" : false",
        "MY.Name == \"node7\"", "Name == \"node7\"",
        "TARGET.Name =?= \"node7\"", "TARGET.Name =!= \"node7\"",
        "TARGET.Name != \"node7\"", "TARGET.Name == 7",
        "TARGET.Name == strcat(\"node\", \"7\")",
        "TARGET.Name == TARGET.Alias", "TARGET.Host == \"node7\""}) {
    EXPECT_EQ(required_name_of(requirements), std::nullopt) << requirements;
  }
}

}  // namespace
}  // namespace phisched::classad
