#include "classad/classad.hpp"

#include <gtest/gtest.h>

#include <cctype>
#include <map>

#include "classad/parser.hpp"
#include "common/rng.hpp"

namespace phisched::classad {
namespace {

TEST(ClassAd, InsertAndLookup) {
  ClassAd ad;
  ad.insert_integer("Mem", 2048);
  ad.insert_string("Name", "node1");
  ad.insert_boolean("Healthy", true);
  ad.insert_real("Load", 0.5);
  EXPECT_TRUE(ad.has("Mem"));
  EXPECT_TRUE(ad.has("mem"));  // case-insensitive
  EXPECT_FALSE(ad.has("Nope"));
  EXPECT_EQ(ad.size(), 4u);
}

TEST(ClassAd, TypedEvalAccessors) {
  ClassAd ad;
  ad.insert_integer("i", 3);
  ad.insert_real("r", 1.5);
  ad.insert_boolean("b", true);
  ad.insert_string("s", "text");
  EXPECT_EQ(ad.eval_integer("i"), 3);
  EXPECT_EQ(ad.eval_integer("r"), 1);  // truncation
  EXPECT_DOUBLE_EQ(*ad.eval_real("r"), 1.5);
  EXPECT_EQ(ad.eval_boolean("b"), true);
  EXPECT_EQ(ad.eval_string("s"), "text");
  EXPECT_EQ(ad.eval_integer("missing"), std::nullopt);
  EXPECT_EQ(ad.eval_string("i"), std::nullopt);
}

TEST(ClassAd, NumbersAreTruthyBooleans) {
  ClassAd ad;
  ad.insert_integer("n", 5);
  EXPECT_EQ(ad.eval_boolean("n"), true);
  ad.insert_integer("z", 0);
  EXPECT_EQ(ad.eval_boolean("z"), false);
}

TEST(ClassAd, InsertReplacesExisting) {
  ClassAd ad;
  ad.insert_integer("x", 1);
  ad.insert_integer("X", 2);  // same attribute, case-insensitively
  EXPECT_EQ(ad.size(), 1u);
  EXPECT_EQ(ad.eval_integer("x"), 2);
}

TEST(ClassAd, EraseRemoves) {
  ClassAd ad;
  ad.insert_integer("x", 1);
  EXPECT_TRUE(ad.erase("X"));
  EXPECT_FALSE(ad.erase("X"));
  EXPECT_FALSE(ad.has("x"));
}

TEST(ClassAd, InsertExprEvaluatesLazily) {
  ClassAd ad;
  ad.insert_expr("derived", "base * 2");
  EXPECT_TRUE(ad.eval("derived").is_undefined());
  ad.insert_integer("base", 21);
  EXPECT_EQ(ad.eval_integer("derived"), 42);
}

TEST(ClassAd, CopyIsIndependent) {
  ClassAd a;
  a.insert_integer("x", 1);
  ClassAd b = a;
  b.insert_integer("x", 2);
  EXPECT_EQ(a.eval_integer("x"), 1);
  EXPECT_EQ(b.eval_integer("x"), 2);
}

TEST(ClassAd, AttributeNamesSorted) {
  ClassAd ad;
  ad.insert_integer("zeta", 1);
  ad.insert_integer("Alpha", 2);
  ad.insert_integer("mid", 3);
  EXPECT_EQ(ad.attribute_names(),
            (std::vector<std::string>{"Alpha", "mid", "zeta"}));
}

TEST(ClassAd, ToStringRendersAllAttributes) {
  ClassAd ad;
  ad.insert_integer("Mem", 2048);
  ad.insert_expr("Requirements", "TARGET.FreeSlots >= 1");
  const std::string s = ad.to_string();
  EXPECT_NE(s.find("Mem = 2048"), std::string::npos);
  EXPECT_NE(s.find("Requirements = (TARGET.FreeSlots >= 1)"),
            std::string::npos);
}

TEST(ClassAd, RejectsBadInsert) {
  ClassAd ad;
  EXPECT_THROW(ad.insert("", make_literal(Value::integer(1))),
               std::invalid_argument);
  EXPECT_THROW(ad.insert("x", nullptr), std::invalid_argument);
}

TEST(ClassAd, EvalWithTarget) {
  ClassAd job;
  job.insert_expr("fits", "TARGET.Free >= MY.Need");
  job.insert_integer("Need", 100);
  ClassAd machine;
  machine.insert_integer("Free", 150);
  EXPECT_TRUE(job.eval("fits", &machine).as_boolean());
  machine.insert_integer("Free", 50);
  EXPECT_FALSE(job.eval("fits", &machine).as_boolean());
}

TEST(ClassAd, FindConfirmsTheName) {
  ClassAd ad;
  ad.insert_integer("Alpha", 1);
  ad.insert_integer("Beta", 2);
  ASSERT_NE(ad.find(name_hash("alpha"), "ALPHA"), nullptr);
  EXPECT_EQ(ad.find(name_hash("alpha"), "ALPHA"), ad.lookup("Alpha").get());
  // A key whose hash finds a slot but whose name differs is a miss, as a
  // hash collision would be.
  EXPECT_EQ(ad.find(name_hash("Alpha"), "Beta"), nullptr);
  EXPECT_EQ(ad.find(name_hash("Gamma"), "Gamma"), nullptr);
}

/// Storage model: a seeded random sequence of operations on names drawn
/// from a small pool in random letter case, checked after every step
/// against a reference std::map ordered by iless.
TEST(ClassAd, MatchesReferenceMapUnderRandomOperations) {
  struct ILessRef {
    bool operator()(const std::string& a, const std::string& b) const {
      return iless(a, b);
    }
  };
  const std::vector<std::string> pool = {
      "Requirements", "Rank",          "Name",           "FreeSlots",
      "PhiFreeMemory", "PhiFreeMemory0", "PhiFreeMemory1", "a",
      "B",             "ab",            "RequestPhiMemBandwidth"};
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(seed);
    ClassAd ad;
    std::map<std::string, ExprPtr, ILessRef> ref;
    const auto random_case = [&](std::string name) {
      for (char& c : name) {
        if (rng.bernoulli(0.5)) {
          c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
        } else {
          c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
        }
      }
      return name;
    };
    for (int step = 0; step < 400; ++step) {
      const std::string name = random_case(pool[rng.index(pool.size())]);
      const auto found = ref.find(name);
      switch (rng.uniform_int(0, 4)) {
        case 0:
        case 1: {
          const ExprPtr expr =
              make_literal(Value::integer(rng.uniform_int(-9, 9)));
          ad.insert(name, expr);
          if (found == ref.end()) {
            ref.emplace(name, expr);
          } else {
            found->second = expr;  // std::map keeps the first spelling
          }
          break;
        }
        case 2: {
          const bool erased = found != ref.end();
          if (erased) ref.erase(found);
          EXPECT_EQ(ad.erase(name), erased) << name;
          break;
        }
        case 3:
          EXPECT_EQ(ad.has(name), found != ref.end()) << name;
          break;
        default: {
          const Value v = ad.eval(name);
          if (found == ref.end()) {
            EXPECT_TRUE(v.is_undefined()) << name;
          } else {
            EXPECT_TRUE(v.same_as(found->second->literal)) << name;
          }
        }
      }
      // Presence, the stored expression and the first spelling.
      for (const std::string& candidate : pool) {
        const auto it = ref.find(candidate);
        const ExprPtr stored = ad.lookup(candidate);
        EXPECT_EQ(stored, it == ref.end() ? nullptr : it->second)
            << candidate;
        EXPECT_EQ(ad.find(name_hash(candidate), candidate), stored.get());
      }
      std::vector<std::string> names;
      std::string text;
      for (const auto& [n, e] : ref) {
        names.push_back(n);
        text += n + " = " + to_string(*e) + "\n";
      }
      ASSERT_EQ(ad.size(), ref.size());
      ASSERT_EQ(ad.attribute_names(), names);
      ASSERT_EQ(ad.to_string(), text);
    }
  }
}

}  // namespace
}  // namespace phisched::classad
