#include "classad/lexer.hpp"

#include <gtest/gtest.h>

namespace phisched::classad {
namespace {

std::vector<TokenKind> kinds(std::string_view src) {
  std::vector<TokenKind> out;
  for (const Token& t : lex(src)) out.push_back(t.kind);
  return out;
}

TEST(Lexer, EmptyInputYieldsEnd) {
  EXPECT_EQ(kinds(""), (std::vector<TokenKind>{TokenKind::kEnd}));
  EXPECT_EQ(kinds("   \t\n "), (std::vector<TokenKind>{TokenKind::kEnd}));
}

TEST(Lexer, Integers) {
  auto tokens = lex("42 0 123456789");
  ASSERT_EQ(tokens.size(), 4u);
  EXPECT_EQ(tokens[0].int_value, 42);
  EXPECT_EQ(tokens[1].int_value, 0);
  EXPECT_EQ(tokens[2].int_value, 123456789);
}

TEST(Lexer, Reals) {
  auto tokens = lex("3.5 .25 1e3 2.5E-2");
  ASSERT_EQ(tokens.size(), 5u);
  EXPECT_EQ(tokens[0].kind, TokenKind::kReal);
  EXPECT_DOUBLE_EQ(tokens[0].real_value, 3.5);
  EXPECT_DOUBLE_EQ(tokens[1].real_value, 0.25);
  EXPECT_DOUBLE_EQ(tokens[2].real_value, 1000.0);
  EXPECT_DOUBLE_EQ(tokens[3].real_value, 0.025);
}

TEST(Lexer, IntegerFollowedByDotIdentifierStaysInteger) {
  // "MY.Attr" style after a number should not merge: "1 .x" lexes as
  // real 1? Actually "1." with no digit: our grammar takes "1." as real.
  auto tokens = lex("1.x");
  EXPECT_EQ(tokens[0].kind, TokenKind::kReal);
  EXPECT_EQ(tokens[1].kind, TokenKind::kIdentifier);
}

TEST(Lexer, Strings) {
  auto tokens = lex(R"("hello world")");
  EXPECT_EQ(tokens[0].kind, TokenKind::kString);
  EXPECT_EQ(tokens[0].text, "hello world");
}

TEST(Lexer, StringEscapes) {
  auto tokens = lex(R"("a\"b\\c\nd\te")");
  EXPECT_EQ(tokens[0].text, "a\"b\\c\nd\te");
}

TEST(Lexer, UnterminatedStringThrows) {
  EXPECT_THROW(lex("\"oops"), ParseError);
}

TEST(Lexer, UnknownEscapeThrows) {
  EXPECT_THROW(lex(R"("bad \q escape")"), ParseError);
}

TEST(Lexer, Identifiers) {
  auto tokens = lex("PhiFreeMemory _x a1_b2");
  EXPECT_EQ(tokens[0].text, "PhiFreeMemory");
  EXPECT_EQ(tokens[1].text, "_x");
  EXPECT_EQ(tokens[2].text, "a1_b2");
}

TEST(Lexer, AllOperators) {
  EXPECT_EQ(kinds("+ - * / % < <= > >= == != =?= =!= && || ! ? : . ( )"),
            (std::vector<TokenKind>{
                TokenKind::kPlus, TokenKind::kMinus, TokenKind::kStar,
                TokenKind::kSlash, TokenKind::kPercent, TokenKind::kLt,
                TokenKind::kLe, TokenKind::kGt, TokenKind::kGe, TokenKind::kEq,
                TokenKind::kNe, TokenKind::kIs, TokenKind::kIsnt,
                TokenKind::kAnd, TokenKind::kOr, TokenKind::kNot,
                TokenKind::kQuestion, TokenKind::kColon, TokenKind::kDot,
                TokenKind::kLParen, TokenKind::kRParen, TokenKind::kEnd}));
}

TEST(Lexer, SingleEqualsThrows) {
  EXPECT_THROW(lex("a = b"), ParseError);
}

TEST(Lexer, SingleAmpersandThrows) {
  EXPECT_THROW(lex("a & b"), ParseError);
}

TEST(Lexer, UnexpectedCharacterThrows) {
  EXPECT_THROW(lex("a @ b"), ParseError);
}

TEST(Lexer, OffsetsPointIntoSource) {
  auto tokens = lex("ab + cd");
  EXPECT_EQ(tokens[0].offset, 0u);
  EXPECT_EQ(tokens[1].offset, 3u);
  EXPECT_EQ(tokens[2].offset, 5u);
}

TEST(Lexer, ParseErrorCarriesOffset) {
  try {
    (void)lex("abc $");
    FAIL() << "should have thrown";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.offset(), 4u);
  }
}

}  // namespace
}  // namespace phisched::classad
