// Token stream for the ClassAd expression language.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace phisched::classad {

enum class TokenKind {
  kEnd,
  kInteger,     // 42
  kReal,        // 3.5, 1e3
  kString,      // "text"
  kIdentifier,  // attribute name, true/false/undefined/error
  kDot,         // . (scope separator: MY.Attr, TARGET.Attr)
  kLParen,
  kRParen,
  kPlus,
  kMinus,
  kStar,
  kSlash,
  kPercent,
  kLt,
  kLe,
  kGt,
  kGe,
  kEq,    // ==
  kNe,    // !=
  kIs,    // =?=
  kIsnt,  // =!=
  kAnd,   // &&
  kOr,    // ||
  kNot,   // !
  kQuestion,
  kColon,
};

struct Token {
  TokenKind kind = TokenKind::kEnd;
  std::string text;        // identifier/string payload
  std::int64_t int_value = 0;
  double real_value = 0.0;
  std::size_t offset = 0;  // byte offset in source, for error messages
};

[[nodiscard]] const char* token_kind_name(TokenKind kind);

}  // namespace phisched::classad
