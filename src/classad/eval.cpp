#include "classad/eval.hpp"

#include <utility>

#include "classad/classad.hpp"

namespace phisched::classad {

namespace {

constexpr int kMaxDepth = 64;  // guards against attribute reference cycles

Value eval_node(const Expr& expr, const EvalContext& ctx, int depth);

Value eval_attr_ref(const Expr& expr, const EvalContext& ctx, int depth) {
  const auto find_in = [&](const ClassAd* ad) -> const Expr* {
    return ad != nullptr ? ad->find(expr.attr_hash, expr.attr) : nullptr;
  };
  // MY.x looks in MY, TARGET.x in TARGET, and a bare x in MY, then TARGET.
  const ClassAd* owner = ctx.my;
  const ClassAd* other = ctx.target;
  if (expr.scope == AttrScope::kTarget) std::swap(owner, other);
  const Expr* found = find_in(owner);
  if (found == nullptr && expr.scope == AttrScope::kNone) {
    std::swap(owner, other);
    found = find_in(owner);
  }
  if (found == nullptr) return Value::undefined();
  // The referenced expression evaluates in the scope of the ad that owns
  // it: MY becomes that ad, TARGET the other side.
  return eval_node(*found, EvalContext{owner, other}, depth + 1);
}

Value eval_node(const Expr& expr, const EvalContext& ctx, int depth) {
  if (depth > kMaxDepth) return Value::error();  // probable reference cycle

  switch (expr.kind) {
    case Expr::Kind::kLiteral:
      return expr.literal;
    case Expr::Kind::kAttrRef:
      return eval_attr_ref(expr, ctx, depth);
    case Expr::Kind::kUnary: {
      const Value v = eval_node(*expr.children[0], ctx, depth + 1);
      return expr.unary_op == UnaryOp::kNot ? op_not(v) : op_neg(v);
    }
    case Expr::Kind::kBinary: {
      const Value a = eval_node(*expr.children[0], ctx, depth + 1);
      // `false && x` is false and `true || x` is true for every x, error
      // and undefined included, and evaluation has no side effects: skip x.
      const BinaryOp op = expr.binary_op;
      if ((op == BinaryOp::kAnd || op == BinaryOp::kOr) && a.is_boolean() &&
          a.as_boolean() == (op == BinaryOp::kOr)) {
        return a;
      }
      const Value b = eval_node(*expr.children[1], ctx, depth + 1);
      switch (expr.binary_op) {
        case BinaryOp::kAdd: return op_add(a, b);
        case BinaryOp::kSub: return op_sub(a, b);
        case BinaryOp::kMul: return op_mul(a, b);
        case BinaryOp::kDiv: return op_div(a, b);
        case BinaryOp::kMod: return op_mod(a, b);
        case BinaryOp::kEq: return op_eq(a, b);
        case BinaryOp::kNe: return op_ne(a, b);
        case BinaryOp::kLt: return op_lt(a, b);
        case BinaryOp::kLe: return op_le(a, b);
        case BinaryOp::kGt: return op_gt(a, b);
        case BinaryOp::kGe: return op_ge(a, b);
        case BinaryOp::kIs: return op_is(a, b);
        case BinaryOp::kIsnt: return op_isnt(a, b);
        case BinaryOp::kAnd: return op_and(a, b);
        case BinaryOp::kOr: return op_or(a, b);
      }
      return Value::error();
    }
    case Expr::Kind::kTernary: {
      const Value cond = eval_node(*expr.children[0], ctx, depth + 1);
      if (cond.is_error()) return Value::error();
      if (cond.is_undefined()) return Value::undefined();
      bool truthy = false;
      if (cond.is_boolean()) truthy = cond.as_boolean();
      else if (cond.is_number()) truthy = cond.number() != 0.0;
      else return Value::error();
      return eval_node(*expr.children[truthy ? 1 : 2], ctx, depth + 1);
    }
  }
  return Value::error();
}

}  // namespace

Value evaluate(const Expr& expr, const EvalContext& ctx) {
  return eval_node(expr, ctx, 0);
}

}  // namespace phisched::classad
