// Whole-ClassAd text parsing (parse_classad), the inverse of to_string().
#include <gtest/gtest.h>

#include "classad/classad.hpp"
#include "classad/lexer.hpp"

namespace phisched::classad {
namespace {

TEST(ParseAd, BasicAttributes) {
  const ClassAd ad = parse_classad(
      "Name = \"node3\"\n"
      "FreeSlots = 12\n"
      "Load = 0.5\n"
      "Healthy = true\n");
  EXPECT_EQ(ad.size(), 4u);
  EXPECT_EQ(ad.eval_string("Name"), "node3");
  EXPECT_EQ(ad.eval_integer("FreeSlots"), 12);
  EXPECT_DOUBLE_EQ(*ad.eval_real("Load"), 0.5);
  EXPECT_EQ(ad.eval_boolean("Healthy"), true);
}

TEST(ParseAd, ExpressionsStayLazy) {
  const ClassAd ad = parse_classad(
      "Base = 10\n"
      "Derived = Base * 2 + 1\n");
  EXPECT_EQ(ad.eval_integer("Derived"), 21);
}

TEST(ParseAd, CommentsAndBlankLines) {
  const ClassAd ad = parse_classad(
      "# a full-line comment\n"
      "\n"
      "X = 1  # trailing comment\n"
      "   \n"
      "Y = 2\n");
  EXPECT_EQ(ad.size(), 2u);
  EXPECT_EQ(ad.eval_integer("X"), 1);
}

TEST(ParseAd, HashInsideStringIsNotAComment) {
  const ClassAd ad = parse_classad("Tag = \"a#b\"\n");
  EXPECT_EQ(ad.eval_string("Tag"), "a#b");
}

TEST(ParseAd, ComparisonOperatorsInExpressions) {
  // The '=' splitter must not fire on ==, >=, <=, !=, =?=, =!=.
  const ClassAd ad = parse_classad(
      "Requirements = TARGET.PhiFreeMemory >= MY.RequestPhiMemory && "
      "TARGET.Name == \"node1\" && X != 3 && Y =?= undefined\n");
  EXPECT_TRUE(ad.has("Requirements"));
}

TEST(ParseAd, RoundTripThroughToString) {
  ClassAd original;
  original.insert_integer("RequestPhiMemory", 3400);
  original.insert_string("Owner", "alice");
  original.insert_expr("Requirements",
                       "TARGET.PhiFreeMemory >= MY.RequestPhiMemory");
  const ClassAd reparsed = parse_classad(original.to_string());
  EXPECT_EQ(reparsed.to_string(), original.to_string());
}

TEST(ParseAd, TrailingBackslashInStringRoundTrips) {
  ClassAd original;
  original.insert_string("S", "tail\\");
  EXPECT_EQ(original.to_string(), "S = \"tail\\\\\"\n");
  const ClassAd reparsed = parse_classad(original.to_string());
  EXPECT_EQ(reparsed.eval_string("S"), "tail\\");
  EXPECT_EQ(reparsed.to_string(), original.to_string());
}

TEST(ParseAd, EscapedBackslashBeforeQuoteClosesTheString) {
  const ClassAd ad = parse_classad(R"(Path = "C:\\"  # note)" "\n");
  EXPECT_EQ(ad.size(), 1u);
  EXPECT_EQ(ad.eval_string("Path"), "C:\\");
}

TEST(ParseAd, HashAfterEscapedBackslashStaysInString) {
  const ClassAd ad = parse_classad(R"(X = strcat("a\\", "#b"))" "\n");
  EXPECT_EQ(ad.eval_string("X"), "a\\#b");
}

TEST(ParseAd, NoTrailingNewlineOk) {
  const ClassAd ad = parse_classad("X = 5");
  EXPECT_EQ(ad.eval_integer("X"), 5);
}

TEST(ParseAd, EmptyInputGivesEmptyAd) {
  EXPECT_EQ(parse_classad("").size(), 0u);
  EXPECT_EQ(parse_classad("# only a comment\n").size(), 0u);
}

TEST(ParseAd, MalformedLinesThrow) {
  EXPECT_THROW((void)parse_classad("just words\n"), ParseError);
  EXPECT_THROW((void)parse_classad("= 5\n"), ParseError);
  EXPECT_THROW((void)parse_classad("X = \n"), ParseError);
  EXPECT_THROW((void)parse_classad("X = 1 +\n"), ParseError);
}

TEST(ParseAd, ErrorMentionsLineNumber) {
  try {
    (void)parse_classad("A = 1\nB = 2\noops\n");
    FAIL() << "should have thrown";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos);
  }
}

}  // namespace
}  // namespace phisched::classad
