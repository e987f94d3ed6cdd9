#include "classad/parser.hpp"

#include "classad/lexer.hpp"

#include <algorithm>
#include <bit>
#include <functional>
#include <string>
#include <utility>

namespace phisched::classad {

ExprPtr make_literal(Value v) {
  auto e = std::make_shared<Expr>(Expr::Kind::kLiteral);
  e->literal = std::move(v);
  return e;
}

ExprPtr make_attr(AttrScope scope, std::string name) {
  auto e = std::make_shared<Expr>(Expr::Kind::kAttrRef);
  e->scope = scope;
  e->attr_hash = name_hash(name);
  e->attr = std::move(name);
  return e;
}

ExprPtr make_unary(UnaryOp op, ExprPtr operand) {
  auto e = std::make_shared<Expr>(Expr::Kind::kUnary);
  e->unary_op = op;
  e->children.push_back(std::move(operand));
  return e;
}

ExprPtr make_binary(BinaryOp op, ExprPtr lhs, ExprPtr rhs) {
  auto e = std::make_shared<Expr>(Expr::Kind::kBinary);
  e->binary_op = op;
  e->children.push_back(std::move(lhs));
  e->children.push_back(std::move(rhs));
  return e;
}

ExprPtr make_ternary(ExprPtr cond, ExprPtr t, ExprPtr f) {
  auto e = std::make_shared<Expr>(Expr::Kind::kTernary);
  e->children.push_back(std::move(cond));
  e->children.push_back(std::move(t));
  e->children.push_back(std::move(f));
  return e;
}

ExprPtr make_call(std::string function, std::vector<ExprPtr> args) {
  auto e = std::make_shared<Expr>(Expr::Kind::kCall);
  e->function = std::move(function);
  e->children = std::move(args);
  return e;
}

namespace {

const char* binary_op_text(BinaryOp op) {
  switch (op) {
    case BinaryOp::kAdd: return "+";
    case BinaryOp::kSub: return "-";
    case BinaryOp::kMul: return "*";
    case BinaryOp::kDiv: return "/";
    case BinaryOp::kMod: return "%";
    case BinaryOp::kEq: return "==";
    case BinaryOp::kNe: return "!=";
    case BinaryOp::kLt: return "<";
    case BinaryOp::kLe: return "<=";
    case BinaryOp::kGt: return ">";
    case BinaryOp::kGe: return ">=";
    case BinaryOp::kIs: return "=?=";
    case BinaryOp::kIsnt: return "=!=";
    case BinaryOp::kAnd: return "&&";
    case BinaryOp::kOr: return "||";
  }
  return "?";
}

/// A parsed subexpression and the height of its tree (a leaf is 1).
struct Parsed {
  ExprPtr expr;
  int height = 1;
};

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  ExprPtr run() {
    Parsed e = ternary();
    expect(TokenKind::kEnd, "trailing input after expression");
    return std::move(e.expr);
  }

 private:
  /// Holds one level of recursion for the lifetime of a production.
  class Nested {
   public:
    explicit Nested(Parser& parser) : parser_(parser) {
      if (++parser_.depth_ > kMaxParseDepth) parser_.too_deep();
    }
    ~Nested() { --parser_.depth_; }
    Nested(const Nested&) = delete;
    Nested& operator=(const Nested&) = delete;

   private:
    Parser& parser_;
  };

  const Token& peek() const { return tokens_[pos_]; }
  Token take() { return tokens_[pos_++]; }
  bool accept(TokenKind kind) {
    if (peek().kind != kind) return false;
    ++pos_;
    return true;
  }
  void expect(TokenKind kind, const char* what) {
    if (!accept(kind)) {
      throw ParseError(std::string(what) + ", got '" +
                           token_kind_name(peek().kind) + "'",
                       peek().offset);
    }
  }
  [[noreturn]] void too_deep() const {
    throw ParseError("expression nests deeper than the parser's limit of " +
                         std::to_string(kMaxParseDepth) + " levels",
                     peek().offset);
  }

  /// A new interior node over children at most `child_height` tall.
  Parsed node(ExprPtr e, int child_height) const {
    if (child_height >= kMaxParseDepth) too_deep();
    return {std::move(e), child_height + 1};
  }
  Parsed binary(BinaryOp op, Parsed lhs, Parsed rhs) const {
    return node(make_binary(op, std::move(lhs.expr), std::move(rhs.expr)),
                std::max(lhs.height, rhs.height));
  }

  Parsed ternary() {
    const Nested nested(*this);
    Parsed cond = logical_or();
    if (!accept(TokenKind::kQuestion)) return cond;
    Parsed t = ternary();
    expect(TokenKind::kColon, "expected ':' in conditional");
    Parsed f = ternary();
    const int height = std::max({cond.height, t.height, f.height});
    return node(make_ternary(std::move(cond.expr), std::move(t.expr),
                             std::move(f.expr)),
                height);
  }

  Parsed logical_or() {
    Parsed lhs = logical_and();
    while (accept(TokenKind::kOr)) {
      lhs = binary(BinaryOp::kOr, std::move(lhs), logical_and());
    }
    return lhs;
  }

  Parsed logical_and() {
    Parsed lhs = equality();
    while (accept(TokenKind::kAnd)) {
      lhs = binary(BinaryOp::kAnd, std::move(lhs), equality());
    }
    return lhs;
  }

  Parsed equality() {
    Parsed lhs = relational();
    for (;;) {
      BinaryOp op;
      if (accept(TokenKind::kEq)) op = BinaryOp::kEq;
      else if (accept(TokenKind::kNe)) op = BinaryOp::kNe;
      else if (accept(TokenKind::kIs)) op = BinaryOp::kIs;
      else if (accept(TokenKind::kIsnt)) op = BinaryOp::kIsnt;
      else return lhs;
      lhs = binary(op, std::move(lhs), relational());
    }
  }

  Parsed relational() {
    Parsed lhs = additive();
    for (;;) {
      BinaryOp op;
      if (accept(TokenKind::kLt)) op = BinaryOp::kLt;
      else if (accept(TokenKind::kLe)) op = BinaryOp::kLe;
      else if (accept(TokenKind::kGt)) op = BinaryOp::kGt;
      else if (accept(TokenKind::kGe)) op = BinaryOp::kGe;
      else return lhs;
      lhs = binary(op, std::move(lhs), additive());
    }
  }

  Parsed additive() {
    Parsed lhs = multiplicative();
    for (;;) {
      BinaryOp op;
      if (accept(TokenKind::kPlus)) op = BinaryOp::kAdd;
      else if (accept(TokenKind::kMinus)) op = BinaryOp::kSub;
      else return lhs;
      lhs = binary(op, std::move(lhs), multiplicative());
    }
  }

  Parsed multiplicative() {
    Parsed lhs = unary();
    for (;;) {
      BinaryOp op;
      if (accept(TokenKind::kStar)) op = BinaryOp::kMul;
      else if (accept(TokenKind::kSlash)) op = BinaryOp::kDiv;
      else if (accept(TokenKind::kPercent)) op = BinaryOp::kMod;
      else return lhs;
      lhs = binary(op, std::move(lhs), unary());
    }
  }

  Parsed unary() {
    UnaryOp op;
    if (accept(TokenKind::kNot)) op = UnaryOp::kNot;
    else if (accept(TokenKind::kMinus)) op = UnaryOp::kNeg;
    else return primary();
    const Nested nested(*this);
    Parsed operand = unary();
    return node(make_unary(op, std::move(operand.expr)), operand.height);
  }

  Parsed primary() {
    const Token& t = peek();
    switch (t.kind) {
      case TokenKind::kInteger: {
        Token tok = take();
        return {make_literal(Value::integer(tok.int_value))};
      }
      case TokenKind::kReal: {
        Token tok = take();
        return {make_literal(Value::real(tok.real_value))};
      }
      case TokenKind::kString: {
        Token tok = take();
        return {make_literal(Value::string(std::move(tok.text)))};
      }
      case TokenKind::kLParen: {
        take();
        Parsed e = ternary();
        expect(TokenKind::kRParen, "expected ')'");
        return e;
      }
      case TokenKind::kIdentifier:
        return identifier();
      default:
        throw ParseError(std::string("expected expression, got '") +
                             token_kind_name(t.kind) + "'",
                         t.offset);
    }
  }

  Parsed identifier() {
    Token tok = take();
    const std::string& name = tok.text;
    if (iequals(name, "true")) return {make_literal(Value::boolean(true))};
    if (iequals(name, "false")) return {make_literal(Value::boolean(false))};
    if (iequals(name, "undefined")) return {make_literal(Value::undefined())};
    if (iequals(name, "error")) return {make_literal(Value::error())};

    if (iequals(name, "my") || iequals(name, "target")) {
      if (accept(TokenKind::kDot)) {
        Token attr = take();
        if (attr.kind != TokenKind::kIdentifier) {
          throw ParseError("expected attribute name after scope", attr.offset);
        }
        const AttrScope scope =
            iequals(name, "my") ? AttrScope::kMy : AttrScope::kTarget;
        return {make_attr(scope, std::move(attr.text))};
      }
    }
    if (accept(TokenKind::kLParen)) {
      std::vector<ExprPtr> args;
      int height = 0;
      const auto argument = [&] {
        Parsed arg = ternary();
        height = std::max(height, arg.height);
        args.push_back(std::move(arg.expr));
      };
      if (!accept(TokenKind::kRParen)) {
        argument();
        while (accept(TokenKind::kComma)) argument();
        expect(TokenKind::kRParen, "expected ')' after arguments");
      }
      return node(make_call(std::move(tok.text), std::move(args)), height);
    }
    return {make_attr(AttrScope::kNone, std::move(tok.text))};
  }

  std::vector<Token> tokens_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

ExprPtr parse(std::string_view source) {
  return Parser(lex(source)).run();
}

std::string to_string(const Expr& expr) {
  switch (expr.kind) {
    case Expr::Kind::kLiteral:
      return expr.literal.to_string();
    case Expr::Kind::kAttrRef:
      switch (expr.scope) {
        case AttrScope::kMy: return "MY." + expr.attr;
        case AttrScope::kTarget: return "TARGET." + expr.attr;
        case AttrScope::kNone: return expr.attr;
      }
      return expr.attr;
    case Expr::Kind::kUnary:
      return std::string(expr.unary_op == UnaryOp::kNot ? "!" : "-") + "(" +
             to_string(*expr.children[0]) + ")";
    // std::string("(") + ... (not "(" + ...): the const char* + string&&
    // overload trips GCC 12's bogus -Wrestrict on the insert path (PR
    // 105651), which -Werror builds would reject.
    case Expr::Kind::kBinary:
      return std::string("(") + to_string(*expr.children[0]) + " " +
             binary_op_text(expr.binary_op) + " " +
             to_string(*expr.children[1]) + ")";
    case Expr::Kind::kTernary:
      return std::string("(") + to_string(*expr.children[0]) + " ? " +
             to_string(*expr.children[1]) + " : " +
             to_string(*expr.children[2]) + ")";
    case Expr::Kind::kCall: {
      std::string out = expr.function + "(";
      for (std::size_t i = 0; i < expr.children.size(); ++i) {
        if (i != 0) out += ", ";
        out += to_string(*expr.children[i]);
      }
      return out + ")";
    }
  }
  return "error";
}

namespace {

bool same_literal(const Value& a, const Value& b) {
  if (a.type() != b.type()) return false;
  switch (a.type()) {
    case ValueType::kUndefined:
    case ValueType::kError: return true;
    case ValueType::kBoolean: return a.as_boolean() == b.as_boolean();
    case ValueType::kInteger: return a.as_integer() == b.as_integer();
    case ValueType::kReal:
      return std::bit_cast<std::uint64_t>(a.as_real()) ==
             std::bit_cast<std::uint64_t>(b.as_real());
    case ValueType::kString: return a.as_string() == b.as_string();
  }
  return false;
}

/// Folds `x` into `h` (splitmix64 finalizer on the sum).
std::uint64_t mix(std::uint64_t h, std::uint64_t x) {
  x += h + 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t literal_hash(const Value& v) {
  const auto type = static_cast<std::uint64_t>(v.type());
  switch (v.type()) {
    case ValueType::kUndefined:
    case ValueType::kError: return type;
    case ValueType::kBoolean: return mix(type, v.as_boolean() ? 1 : 0);
    case ValueType::kInteger:
      return mix(type, static_cast<std::uint64_t>(v.as_integer()));
    case ValueType::kReal:
      return mix(type, std::bit_cast<std::uint64_t>(v.as_real()));
    case ValueType::kString:
      return mix(type, std::hash<std::string>{}(v.as_string()));
  }
  return type;
}

}  // namespace

bool same_expr(const Expr& a, const Expr& b) {
  if (&a == &b) return true;
  if (a.kind != b.kind || a.children.size() != b.children.size()) {
    return false;
  }
  switch (a.kind) {
    case Expr::Kind::kLiteral:
      return same_literal(a.literal, b.literal);
    case Expr::Kind::kAttrRef:
      return a.scope == b.scope && a.attr_hash == b.attr_hash &&
             iequals(a.attr, b.attr);
    case Expr::Kind::kUnary:
      if (a.unary_op != b.unary_op) return false;
      break;
    case Expr::Kind::kBinary:
      if (a.binary_op != b.binary_op) return false;
      break;
    case Expr::Kind::kTernary:
      break;
    case Expr::Kind::kCall:
      if (!iequals(a.function, b.function)) return false;
      break;
  }
  for (std::size_t i = 0; i < a.children.size(); ++i) {
    if (!same_expr(*a.children[i], *b.children[i])) return false;
  }
  return true;
}

std::uint64_t expr_hash(const Expr& expr) {
  std::uint64_t h = static_cast<std::uint64_t>(expr.kind);
  switch (expr.kind) {
    case Expr::Kind::kLiteral:
      return mix(h, literal_hash(expr.literal));
    case Expr::Kind::kAttrRef:
      return mix(mix(h, static_cast<std::uint64_t>(expr.scope)),
                 expr.attr_hash);
    case Expr::Kind::kUnary:
      h = mix(h, static_cast<std::uint64_t>(expr.unary_op));
      break;
    case Expr::Kind::kBinary:
      h = mix(h, static_cast<std::uint64_t>(expr.binary_op));
      break;
    case Expr::Kind::kTernary:
      break;
    case Expr::Kind::kCall:
      h = mix(h, name_hash(expr.function));
      break;
  }
  for (const ExprPtr& child : expr.children) h = mix(h, expr_hash(*child));
  return h;
}

}  // namespace phisched::classad
