#include "common/json.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

namespace phisched {
namespace {

TEST(JsonEscape, PassesPlainTextThrough) {
  EXPECT_EQ(json_escape("phi.node0.mic0"), "phi.node0.mic0");
}

TEST(JsonEscape, EscapesQuotesBackslashesAndControls) {
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("line\nbreak\ttab"), "line\\nbreak\\ttab");
  EXPECT_EQ(json_escape(std::string(1, '\x01')), "\\u0001");
}

TEST(JsonNumber, ShortestRoundTripForm) {
  EXPECT_EQ(json_number(0.0), "0");
  EXPECT_EQ(json_number(1.5), "1.5");
  EXPECT_EQ(json_number(0.1), "0.1");
  EXPECT_EQ(json_number(-3.25), "-3.25");
  EXPECT_EQ(json_number(std::uint64_t{18446744073709551615ull}),
            "18446744073709551615");
  EXPECT_EQ(json_number(std::int64_t{-42}), "-42");
}

TEST(JsonNumber, NonFiniteRendersNull) {
  EXPECT_EQ(json_number(std::numeric_limits<double>::quiet_NaN()), "null");
  EXPECT_EQ(json_number(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(json_number(-std::numeric_limits<double>::infinity()), "null");
}

TEST(JsonValid, AcceptsWellFormedDocuments) {
  for (const char* doc : {"{}", "[]", "null", "-1.5e-3",
                          R"({"a":[1,2,{"b":"c\n"}],"d":true})",
                          "  {\n \"k\" : [ 1 , 2 ]\n}\n"}) {
    EXPECT_TRUE(json_parse(doc).has_value()) << doc;
  }
}

TEST(JsonValid, RejectsMalformedDocuments) {
  for (const char* doc : {"", "{", "{'a':1}", "{\"a\":}", "[1,]", "01", "1 2",
                          "\"unterminated", "{\"a\":1}extra"}) {
    EXPECT_FALSE(json_parse(doc).has_value()) << doc;
  }
}

TEST(JsonParse, BuildsValues) {
  const auto doc = json_parse(
      R"({"s":"a\"\\\/\b\f\n\r\tA","n":-0.5e1,"i":42,"t":true,)"
      R"("f":false,"z":null,"a":[1,[]],"o":{}})");
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->kind, JsonValue::Kind::kObject);
  EXPECT_EQ(doc->find("s")->string, "a\"\\/\b\f\n\r\tA");
  EXPECT_EQ(doc->find("n")->number, -5.0);
  EXPECT_EQ(doc->find("i")->number, 42.0);
  EXPECT_TRUE(doc->find("t")->boolean);
  EXPECT_EQ(doc->find("f")->kind, JsonValue::Kind::kBool);
  EXPECT_FALSE(doc->find("f")->boolean);
  EXPECT_EQ(doc->find("z")->kind, JsonValue::Kind::kNull);
  ASSERT_EQ(doc->find("a")->array.size(), 2u);
  EXPECT_EQ(doc->find("a")->array[1].kind, JsonValue::Kind::kArray);
  EXPECT_TRUE(doc->find("o")->object.empty());
  EXPECT_EQ(doc->find("missing"), nullptr);
}

TEST(JsonParse, RepeatedKeyKeepsTheFirstValue) {
  const auto doc = json_parse(R"({"k":1,"k":2})");
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->find("k")->number, 1.0);
}

TEST(JsonParse, NumbersFollowRfc8259Only) {
  for (const char* n : {"0", "-0", "1", "-1", "10", "0.5", "1e3", "1E+3",
                        "1e-3", "-0.0e0", "123456789", "1e-400"}) {
    EXPECT_TRUE(json_parse(n).has_value()) << n;
  }
  // Each of these is a number to strtod but not to JSON; 1e400 is no
  // finite double.
  for (const char* n : {"+1", "01", "-01", ".5", "1.", "-", "1e", "1e+",
                        "0x10", "12..5", "1.5.5", "--1", "inf", "nan",
                        "Infinity", "1e400", "-1e400"}) {
    JsonError error;
    EXPECT_FALSE(json_parse(n, &error).has_value()) << n;
    EXPECT_FALSE(error.message.empty()) << n;
  }
}

TEST(JsonParse, DecodesUnicodeEscapesToUtf8) {
  const auto doc = json_parse(R"(["\u00e9", "\u20AC", "\ud83d\ude00"])");
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->array[0].string, "\xc3\xa9");
  EXPECT_EQ(doc->array[1].string, "\xe2\x82\xac");
  EXPECT_EQ(doc->array[2].string, "\xf0\x9f\x98\x80");
  for (const char* text : {R"("\ud83d")", R"("\ude00")", R"("\ud83dA")",
                           R"("\uZZZZ")", R"("\u12")", R"("\q")"}) {
    EXPECT_FALSE(json_parse(text).has_value()) << text;
  }
}

TEST(JsonParse, RefusesRawControlCharactersInStrings) {
  EXPECT_FALSE(json_parse("{\"a\tb\":1}").has_value());
  EXPECT_FALSE(json_parse("\"line\nbreak\"").has_value());
  EXPECT_TRUE(json_parse("\"caf\xc3\xa9\"").has_value());  // raw UTF-8
}

TEST(JsonParse, ReportsTheFirstErrorWithItsOffset) {
  JsonError error;
  EXPECT_FALSE(json_parse(R"({"a": [1, 2,]})", &error).has_value());
  EXPECT_EQ(error.offset, 12u);
  EXPECT_EQ(error.message, "unexpected character");

  EXPECT_FALSE(json_parse(R"({"m": 01})", &error).has_value());
  EXPECT_EQ(error.offset, 6u);
  EXPECT_EQ(error.message, "malformed number \"01\"");

  EXPECT_FALSE(json_parse("[1] [2]", &error).has_value());
  EXPECT_EQ(error.offset, 4u);
}

TEST(JsonParse, BoundsNestingDepth) {
  const auto nested = [](int depth) {
    return std::string(static_cast<std::size_t>(depth), '[') +
           std::string(static_cast<std::size_t>(depth), ']');
  };
  EXPECT_TRUE(json_parse(nested(kMaxJsonDepth)).has_value());
  JsonError error;
  EXPECT_FALSE(json_parse(nested(kMaxJsonDepth + 1), &error).has_value());
  EXPECT_EQ(error.offset, static_cast<std::size_t>(kMaxJsonDepth));
  EXPECT_NE(error.message.find("256"), std::string::npos) << error.message;
  // Deep enough to overflow the stack of an unbounded recursive reader.
  EXPECT_FALSE(json_parse(nested(200'000)).has_value());
  EXPECT_FALSE(json_parse(std::string(200'000, '{')).has_value());
}

TEST(JsonParse, ReadsBackWhatTheWriterWrites) {
  JsonWriter w(/*pretty=*/true);
  w.begin_object();
  w.member("we\"ird\x01", 0.1);
  w.member("big", std::uint64_t{1} << 53);
  w.end_object();
  const auto doc = json_parse(std::move(w).str());
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->find("we\"ird\x01")->number, 0.1);
  EXPECT_EQ(doc->find("big")->number, 9007199254740992.0);
}

TEST(JsonWriter, CompactObjectAndArray) {
  JsonWriter w;
  w.begin_object();
  w.member("name", "run");
  w.member("count", std::uint64_t{3});
  w.key("series");
  w.begin_array();
  w.value(1.5);
  w.value(2.5);
  w.end_array();
  w.key("none");
  w.null();
  w.end_object();
  const std::string doc = std::move(w).str();
  EXPECT_EQ(doc, R"({"name":"run","count":3,"series":[1.5,2.5],"none":null})");
  EXPECT_TRUE(json_parse(doc).has_value());
}

TEST(JsonWriter, PrettyOutputIsValidAndIndented) {
  JsonWriter w(/*pretty=*/true);
  w.begin_object();
  w.member("a", 1);
  w.key("b");
  w.begin_array();
  w.value(true);
  w.end_array();
  w.end_object();
  const std::string doc = std::move(w).str();
  EXPECT_EQ(doc, "{\n  \"a\": 1,\n  \"b\": [\n    true\n  ]\n}\n");
  EXPECT_TRUE(json_parse(doc).has_value());
}

TEST(JsonWriter, RawSplicesPreSerializedValues) {
  JsonWriter w;
  w.begin_object();
  w.key("inner");
  w.raw(R"({"x":1})");
  w.end_object();
  const std::string doc = std::move(w).str();
  EXPECT_EQ(doc, R"({"inner":{"x":1}})");
  EXPECT_TRUE(json_parse(doc).has_value());
}

TEST(JsonWriter, EmptyContainers) {
  JsonWriter w;
  w.begin_object();
  w.key("o");
  w.begin_object();
  w.end_object();
  w.key("a");
  w.begin_array();
  w.end_array();
  w.end_object();
  EXPECT_EQ(std::move(w).str(), R"({"o":{},"a":[]})");
}

TEST(JsonWriter, EscapesKeys) {
  JsonWriter w;
  w.begin_object();
  w.member("we\"ird", 1);
  w.end_object();
  const std::string doc = std::move(w).str();
  EXPECT_EQ(doc, R"({"we\"ird":1})");
  EXPECT_TRUE(json_parse(doc).has_value());
}

}  // namespace
}  // namespace phisched
