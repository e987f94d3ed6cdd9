#include "classad/eval.hpp"

#include <gtest/gtest.h>

#include "classad/classad.hpp"
#include "classad/parser.hpp"

namespace phisched::classad {
namespace {

Value eval_src(std::string_view src, const ClassAd* my = nullptr,
               const ClassAd* target = nullptr) {
  return evaluate(parse(src), EvalContext{my, target});
}

TEST(Eval, ConstantFolding) {
  EXPECT_EQ(eval_src("1 + 2 * 3").as_integer(), 7);
  EXPECT_DOUBLE_EQ(eval_src("10 / 4.0").as_real(), 2.5);
  EXPECT_TRUE(eval_src("2 < 3 && 3 <= 3").as_boolean());
  EXPECT_FALSE(eval_src("!(1 == 1)").as_boolean());
  EXPECT_EQ(eval_src("true ? 1 : 2").as_integer(), 1);
  EXPECT_EQ(eval_src("false ? 1 : 2").as_integer(), 2);
}

TEST(Eval, UnresolvedAttributeIsUndefined) {
  EXPECT_TRUE(eval_src("NoSuchAttr").is_undefined());
  EXPECT_TRUE(eval_src("NoSuchAttr + 1").is_undefined());
}

TEST(Eval, BareAttributeResolvesMyFirst) {
  ClassAd my;
  my.insert_integer("x", 1);
  ClassAd target;
  target.insert_integer("x", 2);
  EXPECT_EQ(eval_src("x", &my, &target).as_integer(), 1);
}

TEST(Eval, BareAttributeFallsBackToTarget) {
  ClassAd my;
  ClassAd target;
  target.insert_integer("only_in_target", 9);
  EXPECT_EQ(eval_src("only_in_target", &my, &target).as_integer(), 9);
}

TEST(Eval, ScopedAttributes) {
  ClassAd my;
  my.insert_integer("x", 1);
  ClassAd target;
  target.insert_integer("x", 2);
  EXPECT_EQ(eval_src("MY.x", &my, &target).as_integer(), 1);
  EXPECT_EQ(eval_src("TARGET.x", &my, &target).as_integer(), 2);
  EXPECT_TRUE(eval_src("TARGET.x", &my, nullptr).is_undefined());
}

TEST(Eval, ReferencedExpressionEvaluatesInOwnersScope) {
  // machine.Threshold = MY.Base * 2 — when the job evaluates
  // TARGET.Threshold, MY inside must mean the machine.
  ClassAd machine;
  machine.insert_integer("Base", 10);
  machine.insert_expr("Threshold", "MY.Base * 2");
  ClassAd job;
  job.insert_integer("Base", 999);
  EXPECT_EQ(eval_src("TARGET.Threshold", &job, &machine).as_integer(), 20);
}

TEST(Eval, AttributeChains) {
  ClassAd ad;
  ad.insert_expr("a", "b + 1");
  ad.insert_expr("b", "c + 1");
  ad.insert_integer("c", 40);
  EXPECT_EQ(eval_src("a", &ad).as_integer(), 42);
}

TEST(Eval, ReferenceCycleIsError) {
  ClassAd ad;
  ad.insert_expr("a", "b");
  ad.insert_expr("b", "a");
  EXPECT_TRUE(eval_src("a", &ad).is_error());
}

TEST(Eval, SelfReferenceIsError) {
  ClassAd ad;
  ad.insert_expr("a", "a + 1");
  EXPECT_TRUE(eval_src("a", &ad).is_error());
}

TEST(Eval, CaseInsensitiveAttributeLookup) {
  ClassAd ad;
  ad.insert_integer("PhiFreeMemory", 4096);
  EXPECT_EQ(eval_src("phifreememory", &ad).as_integer(), 4096);
}

TEST(Eval, BuiltinPredicates) {
  EXPECT_TRUE(eval_src("isUndefined(nope)").as_boolean());
  EXPECT_FALSE(eval_src("isUndefined(1)").as_boolean());
  EXPECT_TRUE(eval_src("isError(1/0)").as_boolean());
  EXPECT_FALSE(eval_src("isError(1)").as_boolean());
}

TEST(Eval, BuiltinConversions) {
  EXPECT_EQ(eval_src("int(3.9)").as_integer(), 3);
  EXPECT_EQ(eval_src("int(true)").as_integer(), 1);
  EXPECT_DOUBLE_EQ(eval_src("real(3)").as_real(), 3.0);
  EXPECT_EQ(eval_src("string(42)").as_string(), "42");
  EXPECT_EQ(eval_src("floor(2.7)").as_integer(), 2);
  EXPECT_EQ(eval_src("ceiling(2.1)").as_integer(), 3);
  EXPECT_EQ(eval_src("round(2.5)").as_integer(), 3);
}

TEST(Eval, BuiltinMinMax) {
  EXPECT_EQ(eval_src("min(3, 1, 2)").as_integer(), 1);
  EXPECT_EQ(eval_src("max(3, 1, 2)").as_integer(), 3);
  EXPECT_DOUBLE_EQ(eval_src("max(1, 2.5)").as_real(), 2.5);
  EXPECT_TRUE(eval_src("min(1, nope)").is_undefined());
  EXPECT_TRUE(eval_src("min()").is_error());
}

TEST(Eval, BuiltinStrings) {
  EXPECT_EQ(eval_src("strcat(\"a\", \"b\", 3)").as_string(), "ab3");
  EXPECT_EQ(eval_src("toUpper(\"mic0\")").as_string(), "MIC0");
  EXPECT_EQ(eval_src("toLower(\"MIC0\")").as_string(), "mic0");
  EXPECT_EQ(eval_src("size(\"hello\")").as_integer(), 5);
}

TEST(Eval, BuiltinIfThenElse) {
  EXPECT_EQ(eval_src("ifThenElse(2 > 1, 10, 20)").as_integer(), 10);
  EXPECT_EQ(eval_src("ifThenElse(0, 10, 20)").as_integer(), 20);
}

TEST(Eval, BuiltinPow) {
  EXPECT_DOUBLE_EQ(eval_src("pow(2, 10)").as_real(), 1024.0);
}

TEST(Eval, UnknownFunctionIsError) {
  EXPECT_TRUE(eval_src("frobnicate(1)").is_error());
}

TEST(Eval, TernaryWithUndefinedCondition) {
  EXPECT_TRUE(eval_src("nope ? 1 : 2").is_undefined());
}

TEST(Eval, PaperValueFunctionExpression) {
  // Eq. 1 as a ClassAd expression: v = 1 - (t/240)^2 for t = 120.
  ClassAd job;
  job.insert_integer("RequestPhiThreads", 120);
  const Value v = eval_src(
      "1.0 - (RequestPhiThreads * RequestPhiThreads) / (240.0 * 240.0)", &job);
  EXPECT_DOUBLE_EQ(v.as_real(), 0.75);
}

TEST(Eval, BareAttributeInMyOnlyIsNotLookedUpInTarget) {
  ClassAd my;
  my.insert_expr("x", "undefined");
  ClassAd target;
  target.insert_integer("x", 2);
  // Present in MY: MY decides, even when its value is undefined.
  EXPECT_TRUE(eval_src("x", &my, &target).is_undefined());
  EXPECT_EQ(eval_src("x", nullptr, &target).as_integer(), 2);
}

/// `&&` and `||` over every pair of operand kinds, against a table
/// written out by hand. The right operand may be missing or a reference
/// cycle: skipping it when the left side decides must not change a result.
TEST(Eval, LogicTruthTable) {
  const char* const lefts[] = {"true", "false", "undefined", "error", "0", "1"};
  const char* const rights[] = {"true",    "false",   "undefined",
                                "error",   "Missing", "Cycle"};
  const char* const kAnd[6][6] = {
      {"true", "false", "undefined", "error", "undefined", "error"},
      {"false", "false", "false", "false", "false", "false"},
      {"undefined", "false", "undefined", "error", "undefined", "error"},
      {"error", "false", "error", "error", "error", "error"},
      {"false", "false", "false", "false", "false", "false"},
      {"true", "false", "undefined", "error", "undefined", "error"},
  };
  const char* const kOr[6][6] = {
      {"true", "true", "true", "true", "true", "true"},
      {"true", "false", "undefined", "error", "undefined", "error"},
      {"true", "undefined", "undefined", "error", "undefined", "error"},
      {"true", "error", "error", "error", "error", "error"},
      {"true", "false", "undefined", "error", "undefined", "error"},
      {"true", "true", "true", "true", "true", "true"},
  };
  ClassAd my;
  my.insert_expr("Cycle", "Cycle");
  for (std::size_t l = 0; l < 6; ++l) {
    for (std::size_t r = 0; r < 6; ++r) {
      const std::string lhs = lefts[l];
      const std::string rhs = rights[r];
      EXPECT_EQ(eval_src(lhs + " && " + rhs, &my).to_string(), kAnd[l][r])
          << lhs << " && " << rhs;
      EXPECT_EQ(eval_src(lhs + " || " + rhs, &my).to_string(), kOr[l][r])
          << lhs << " || " << rhs;
    }
  }
}

}  // namespace
}  // namespace phisched::classad
