// Abstract syntax tree for ClassAd expressions.
//
// Nodes are immutable after construction and shared between ClassAd copies
// via shared_ptr<const Expr>, so copying an ad (as condor_qedit does) is
// cheap and safe.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "classad/value.hpp"

namespace phisched::classad {

struct Expr;
using ExprPtr = std::shared_ptr<const Expr>;

enum class AttrScope { kNone, kMy, kTarget };

enum class UnaryOp { kNeg, kNot };

enum class BinaryOp {
  kAdd, kSub, kMul, kDiv, kMod,
  kEq, kNe, kLt, kLe, kGt, kGe,
  kIs, kIsnt,
  kAnd, kOr,
};

struct Expr {
  enum class Kind { kLiteral, kAttrRef, kUnary, kBinary, kTernary, kCall };

  explicit Expr(Kind k) : kind(k) {}

  Kind kind;

  // kLiteral
  Value literal;

  // kAttrRef; attr_hash is name_hash(attr), computed once by make_attr.
  AttrScope scope = AttrScope::kNone;
  std::string attr;
  std::uint64_t attr_hash = 0;

  // kUnary
  UnaryOp unary_op = UnaryOp::kNeg;

  // kBinary
  BinaryOp binary_op = BinaryOp::kAdd;

  // kCall
  std::string function;

  // Children: unary → [operand]; binary → [lhs, rhs];
  // ternary → [cond, then, else]; call → arguments.
  std::vector<ExprPtr> children;
};

[[nodiscard]] ExprPtr make_literal(Value v);
[[nodiscard]] ExprPtr make_attr(AttrScope scope, std::string name);
[[nodiscard]] ExprPtr make_unary(UnaryOp op, ExprPtr operand);
[[nodiscard]] ExprPtr make_binary(BinaryOp op, ExprPtr lhs, ExprPtr rhs);
[[nodiscard]] ExprPtr make_ternary(ExprPtr cond, ExprPtr t, ExprPtr f);
[[nodiscard]] ExprPtr make_call(std::string function, std::vector<ExprPtr> args);

/// Unparses an expression to canonical ClassAd syntax.
[[nodiscard]] std::string to_string(const Expr& expr);
[[nodiscard]] inline std::string to_string(const ExprPtr& e) { return to_string(*e); }

/// Calls `visit(ref)` for every attribute-reference node of `expr`, left
/// to right. A match reads exactly the attributes these name, in the
/// scopes they name, plus whatever the referenced expressions reach.
template <typename Visit>
void for_each_reference(const Expr& expr, Visit&& visit) {
  if (expr.kind == Expr::Kind::kAttrRef) {
    visit(expr);
    return;
  }
  for (const ExprPtr& child : expr.children) for_each_reference(*child, visit);
}

/// Structural identity: the same tree of operators, scopes, reference
/// and function names (case-insensitively, as lookups see them) and
/// literals of the same type and value (reals by bit pattern, strings
/// byte for byte). Identical expressions evaluate alike in every context.
[[nodiscard]] bool same_expr(const Expr& a, const Expr& b);

/// A hash of `expr` consistent with same_expr.
[[nodiscard]] std::uint64_t expr_hash(const Expr& expr);

}  // namespace phisched::classad
