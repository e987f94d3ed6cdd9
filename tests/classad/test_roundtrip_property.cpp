// Property test: for randomly generated expression trees,
// parse(to_string(e)) evaluates to exactly the same Value as e, in the
// same context — i.e. the unparser is faithful and the parser inverts it.
#include <gtest/gtest.h>

#include "classad/classad.hpp"
#include "classad/eval.hpp"
#include "classad/parser.hpp"
#include "common/rng.hpp"

namespace phisched::classad {
namespace {

ExprPtr random_expr(Rng& rng, int depth) {
  if (depth <= 0 || rng.bernoulli(0.3)) {
    // Leaf: literal or attribute reference.
    switch (rng.uniform_int(0, 5)) {
      case 0: return make_literal(Value::integer(rng.uniform_int(-50, 50)));
      case 1:
        return make_literal(
            Value::real(static_cast<double>(rng.uniform_int(-40, 40)) / 4.0));
      case 2: return make_literal(Value::boolean(rng.bernoulli(0.5)));
      case 3: {
        // Plain strings and ones the unparser must re-escape: a
        // backslash, a quote, a comment marker, a newline and a tab.
        static const char* const kStrings[] = {
            "s0", "s1", "s2", "s3", "tail\\", "say \"hi\"", "a#b",
            "two\nlines", "tab\there", "\\\"#"};
        return make_literal(
            Value::string(kStrings[rng.index(std::size(kStrings))]));
      }
      case 4: {
        static const char* const kMine[] = {"a0", "a1", "a2"};
        return make_attr(AttrScope::kMy, kMine[rng.index(std::size(kMine))]);
      }
      default: {
        static const char* const kTheirs[] = {"b0", "b1", "b2"};
        return make_attr(AttrScope::kTarget,
                         kTheirs[rng.index(std::size(kTheirs))]);
      }
    }
  }
  switch (rng.uniform_int(0, 7)) {
    case 0:
      return make_unary(rng.bernoulli(0.5) ? UnaryOp::kNeg : UnaryOp::kNot,
                        random_expr(rng, depth - 1));
    case 1:
      return make_ternary(random_expr(rng, depth - 1),
                          random_expr(rng, depth - 1),
                          random_expr(rng, depth - 1));
    default: {
      static constexpr BinaryOp kOps[] = {
          BinaryOp::kAdd, BinaryOp::kSub, BinaryOp::kMul, BinaryOp::kDiv,
          BinaryOp::kMod, BinaryOp::kEq,  BinaryOp::kNe,  BinaryOp::kLt,
          BinaryOp::kLe,  BinaryOp::kGt,  BinaryOp::kGe,  BinaryOp::kIs,
          BinaryOp::kIsnt, BinaryOp::kAnd, BinaryOp::kOr};
      return make_binary(kOps[rng.index(std::size(kOps))],
                         random_expr(rng, depth - 1),
                         random_expr(rng, depth - 1));
    }
  }
}

/// Exact Value equality, distinguishing types (unlike ==).
bool values_identical(const Value& a, const Value& b) {
  if (a.type() != b.type()) return false;
  return a.same_as(b) &&
         // same_as treats strings case-insensitively; be stricter here.
         (!a.is_string() || a.as_string() == b.as_string());
}

class RoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RoundTrip, UnparseReparsePreservesSemantics) {
  Rng rng(GetParam());
  ClassAd my;
  my.insert_integer("a0", 7);
  my.insert_real("a1", 2.5);
  my.insert_string("a2", "hello");
  ClassAd target;
  target.insert_integer("b0", -3);
  target.insert_expr("b1", "true");
  // b2 intentionally left undefined.
  const EvalContext ctx{&my, &target};

  for (int round = 0; round < 200; ++round) {
    const ExprPtr original = random_expr(rng, 4);
    const std::string text = to_string(original);
    ExprPtr reparsed;
    ASSERT_NO_THROW(reparsed = parse(text)) << text;
    const Value v1 = evaluate(original, ctx);
    const Value v2 = evaluate(reparsed, ctx);
    EXPECT_TRUE(values_identical(v1, v2))
        << text << "  =>  " << v1.to_string() << " vs " << v2.to_string();
    // Unparse is a fixed point after one reparse (the first round may
    // canonicalize, e.g. a literal -8 becomes the unary expression -(8)).
    const std::string text2 = to_string(reparsed);
    const ExprPtr reparsed2 = parse(text2);
    EXPECT_EQ(to_string(reparsed2), text2);
    EXPECT_TRUE(values_identical(v1, evaluate(reparsed2, ctx)));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RoundTrip,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace phisched::classad
