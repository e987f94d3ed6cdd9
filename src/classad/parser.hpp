// Pratt parser for ClassAd expressions.
//
// Grammar (precedence low → high):
//   ternary     :=  or ( '?' expr ':' ternary )?
//   or          :=  and ( '||' and )*
//   and         :=  equality ( '&&' equality )*
//   equality    :=  relational ( ('=='|'!='|'=?='|'=!=') relational )*
//   relational  :=  additive ( ('<'|'<='|'>'|'>=') additive )*
//   additive    :=  multiplicative ( ('+'|'-') multiplicative )*
//   multiplicative := unary ( ('*'|'/'|'%') unary )*
//   unary       :=  ('!'|'-') unary | primary
//   primary     :=  literal | attrref | '(' expr ')'
//   attrref     :=  [ ('MY'|'TARGET') '.' ] identifier
//
// The identifiers true/false/undefined/error are literals (case-insensitive).
#pragma once

#include <string_view>

#include "classad/ast.hpp"

namespace phisched::classad {

/// Bound on both the parser's recursion depth and the height of the tree
/// it builds; deeper input is a ParseError. Without it, deep parentheses
/// or a long unary chain overflow the stack while parsing, and a long
/// left-deep operator chain overflows it when its tree is destroyed.
/// Anything this deep is already past the evaluator's depth limit of 64.
inline constexpr int kMaxParseDepth = 256;

/// Parses one expression; throws ParseError on malformed input, trailing
/// garbage, or nesting past kMaxParseDepth.
[[nodiscard]] ExprPtr parse(std::string_view source);

}  // namespace phisched::classad
