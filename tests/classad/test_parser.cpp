#include "classad/lexer.hpp"
#include "classad/parser.hpp"

#include <gtest/gtest.h>

#include <string>

namespace phisched::classad {
namespace {

std::string round_trip(std::string_view src) { return to_string(parse(src)); }

/// Asserts that `source` is refused with a ParseError naming the limit.
void expect_too_deep(const std::string& source) {
  try {
    (void)parse(source);
    ADD_FAILURE() << "accepted input nested past the parser's limit";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find(std::to_string(kMaxParseDepth)),
              std::string::npos)
        << e.what();
  }
}

TEST(Parser, Literals) {
  EXPECT_EQ(round_trip("42"), "42");
  EXPECT_EQ(round_trip("3.5"), "3.5");
  EXPECT_EQ(round_trip("\"hi\""), "\"hi\"");
  EXPECT_EQ(round_trip("true"), "true");
  EXPECT_EQ(round_trip("FALSE"), "false");
  EXPECT_EQ(round_trip("Undefined"), "undefined");
  EXPECT_EQ(round_trip("ERROR"), "error");
}

TEST(Parser, AttrRefs) {
  EXPECT_EQ(round_trip("Memory"), "Memory");
  EXPECT_EQ(round_trip("MY.Memory"), "MY.Memory");
  EXPECT_EQ(round_trip("TARGET.Name"), "TARGET.Name");
  EXPECT_EQ(round_trip("my.x"), "MY.x");
}

TEST(Parser, PrecedenceMulOverAdd) {
  EXPECT_EQ(round_trip("1 + 2 * 3"), "(1 + (2 * 3))");
  EXPECT_EQ(round_trip("(1 + 2) * 3"), "((1 + 2) * 3)");
}

TEST(Parser, PrecedenceComparisonOverLogic) {
  EXPECT_EQ(round_trip("a < b && c >= d"), "((a < b) && (c >= d))");
  EXPECT_EQ(round_trip("a == b || c != d"), "((a == b) || (c != d))");
}

TEST(Parser, PrecedenceAndOverOr) {
  EXPECT_EQ(round_trip("a || b && c"), "(a || (b && c))");
}

TEST(Parser, RelationalBindsTighterThanEquality) {
  EXPECT_EQ(round_trip("a < b == c < d"), "((a < b) == (c < d))");
}

TEST(Parser, LeftAssociativity) {
  EXPECT_EQ(round_trip("1 - 2 - 3"), "((1 - 2) - 3)");
  EXPECT_EQ(round_trip("8 / 4 / 2"), "((8 / 4) / 2)");
}

TEST(Parser, UnaryOperators) {
  EXPECT_EQ(round_trip("-x"), "-(x)");
  EXPECT_EQ(round_trip("!a && b"), "(!(a) && b)");
  EXPECT_EQ(round_trip("--3"), "-(-(3))");
}

TEST(Parser, Ternary) {
  EXPECT_EQ(round_trip("a ? b : c"), "(a ? b : c)");
  // Right-associative nesting.
  EXPECT_EQ(round_trip("a ? b : c ? d : e"), "(a ? b : (c ? d : e))");
}

TEST(Parser, IsOperators) {
  EXPECT_EQ(round_trip("x =?= undefined"), "(x =?= undefined)");
  EXPECT_EQ(round_trip("x =!= error"), "(x =!= error)");
}

TEST(Parser, FunctionCalls) {
  EXPECT_EQ(round_trip("min(1, 2, 3)"), "min(1, 2, 3)");
  EXPECT_EQ(round_trip("isUndefined(x)"), "isUndefined(x)");
  EXPECT_EQ(round_trip("f()"), "f()");
  EXPECT_EQ(round_trip("max(a + 1, b * 2)"), "max((a + 1), (b * 2))");
}

TEST(Parser, RealisticRequirements) {
  const char* req =
      "TARGET.PhiFreeMemory >= MY.RequestPhiMemory && TARGET.FreeSlots >= 1";
  EXPECT_EQ(round_trip(req),
            "((TARGET.PhiFreeMemory >= MY.RequestPhiMemory) && "
            "(TARGET.FreeSlots >= 1))");
}

TEST(Parser, PinnedRequirements) {
  EXPECT_EQ(round_trip("TARGET.Name == \"node3\""),
            "(TARGET.Name == \"node3\")");
}

TEST(Parser, TrailingGarbageThrows) {
  EXPECT_THROW(parse("1 + 2 extra"), ParseError);
  EXPECT_THROW(parse("(1 + 2"), ParseError);
  EXPECT_THROW(parse("1 +"), ParseError);
  EXPECT_THROW(parse(""), ParseError);
}

TEST(Parser, MissingTernaryColonThrows) {
  EXPECT_THROW(parse("a ? b"), ParseError);
}

TEST(Parser, ScopeWithoutAttributeIsPlainIdentifier) {
  // "MY" alone (no dot) is just an attribute named MY.
  EXPECT_EQ(round_trip("MY"), "MY");
}

TEST(Parser, DeeplyNestedParens) {
  EXPECT_EQ(round_trip("((((1))))"), "1");
}

// Parentheses nest the parser without growing the tree; 20,000 of them
// used to overflow the stack while parsing.
TEST(Parser, ParenthesesPastTheDepthLimitAreRefused) {
  const auto nested = [](std::size_t n) {
    return std::string(n, '(') + "1" + std::string(n, ')');
  };
  const std::size_t limit = kMaxParseDepth;
  EXPECT_EQ(round_trip(nested(limit - 1)), "1");
  expect_too_deep(nested(limit));
  expect_too_deep(nested(20'000));
}

// Each unary operator recurses once; 2,000,000 of them used to overflow
// the stack while parsing.
TEST(Parser, UnaryChainsPastTheDepthLimitAreRefused) {
  const std::size_t limit = kMaxParseDepth;
  EXPECT_NO_THROW((void)parse(std::string(limit - 1, '-') + "1"));
  expect_too_deep(std::string(limit, '!') + "x");
  expect_too_deep(std::string(2'000'000, '-') + "1");
}

// "1+1+...+1" parses iteratively, but its left-deep tree is as tall as the
// chain is long: destroying a 1,000,000-term tree used to overflow the
// stack.
TEST(Parser, OperatorChainsPastTheHeightLimitAreRefused) {
  const auto chain = [](std::size_t terms) {
    std::string s = "1";
    s.reserve(2 * terms);
    for (std::size_t i = 1; i < terms; ++i) s += "+1";
    return s;
  };
  const std::size_t limit = kMaxParseDepth;
  EXPECT_NO_THROW((void)parse(chain(limit)));
  expect_too_deep(chain(limit + 1));
  expect_too_deep(chain(1'000'000));
}

}  // namespace
}  // namespace phisched::classad
