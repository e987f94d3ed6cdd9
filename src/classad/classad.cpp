#include "classad/classad.hpp"

#include <algorithm>
#include <sstream>

#include "classad/eval.hpp"
#include "classad/parser.hpp"
#include "common/check.hpp"

namespace phisched::classad {

namespace {
constexpr std::string_view kRequirements = "Requirements";
constexpr std::uint64_t kRequirementsHash = name_hash(kRequirements);
constexpr std::string_view kName = "Name";
constexpr std::uint64_t kNameHash = name_hash(kName);

/// `s` when `expr` is `TARGET.Name == "s"` or `"s" == TARGET.Name`.
const std::string* name_operand(const Expr& expr) {
  if (expr.kind != Expr::Kind::kBinary || expr.binary_op != BinaryOp::kEq) {
    return nullptr;
  }
  const auto target_name = [](const Expr& e) {
    return e.kind == Expr::Kind::kAttrRef && e.scope == AttrScope::kTarget &&
           e.attr_hash == kNameHash && iequals(e.attr, kName);
  };
  const auto string_literal = [](const Expr& e) {
    return e.kind == Expr::Kind::kLiteral && e.literal.is_string();
  };
  const Expr& lhs = *expr.children[0];
  const Expr& rhs = *expr.children[1];
  if (target_name(lhs) && string_literal(rhs)) return &rhs.literal.as_string();
  if (string_literal(lhs) && target_name(rhs)) return &lhs.literal.as_string();
  return nullptr;
}

/// The leftmost name operand among the `&&` operands of `expr`.
const std::string* and_name_operand(const Expr& expr) {
  if (expr.kind == Expr::Kind::kBinary && expr.binary_op == BinaryOp::kAnd) {
    const std::string* found = and_name_operand(*expr.children[0]);
    return found != nullptr ? found : and_name_operand(*expr.children[1]);
  }
  return name_operand(expr);
}
}  // namespace

std::vector<ClassAd::Slot>::const_iterator ClassAd::first_slot(
    std::uint64_t hash) const {
  return std::lower_bound(
      slots_.begin(), slots_.end(), hash,
      [](const Slot& slot, std::uint64_t h) { return slot.hash < h; });
}

std::vector<ClassAd::Slot>::const_iterator ClassAd::find_slot(
    std::uint64_t hash, std::string_view name) const {
  for (auto it = first_slot(hash); it != slots_.end() && it->hash == hash;
       ++it) {
    if (iequals(it->name, name)) return it;
  }
  return slots_.end();
}

void ClassAd::insert(std::string name, ExprPtr expr) {
  PHISCHED_REQUIRE(!name.empty(), "ClassAd: empty attribute name");
  PHISCHED_REQUIRE(expr != nullptr, "ClassAd: null expression");
  const std::uint64_t hash = name_hash(name);
  auto it = first_slot(hash);
  for (; it != slots_.end() && it->hash == hash; ++it) {
    if (iequals(it->name, name)) {
      // Re-insertion keeps the first spelling of the name.
      slots_[static_cast<std::size_t>(it - slots_.begin())].expr =
          std::move(expr);
      return;
    }
  }
  slots_.insert(it, Slot{hash, std::move(name), std::move(expr)});
}

void ClassAd::insert_integer(std::string name, std::int64_t v) {
  insert(std::move(name), make_literal(Value::integer(v)));
}

void ClassAd::insert_real(std::string name, double v) {
  insert(std::move(name), make_literal(Value::real(v)));
}

void ClassAd::insert_string(std::string name, std::string v) {
  insert(std::move(name), make_literal(Value::string(std::move(v))));
}

void ClassAd::insert_expr(std::string name, std::string_view expr_source) {
  insert(std::move(name), parse(expr_source));
}

bool ClassAd::erase(std::string_view name) {
  const auto it = find_slot(name_hash(name), name);
  if (it == slots_.end()) return false;
  slots_.erase(it);
  return true;
}

bool ClassAd::has(std::string_view name) const {
  return find_slot(name_hash(name), name) != slots_.end();
}

ExprPtr ClassAd::lookup(std::string_view name) const {
  const auto it = find_slot(name_hash(name), name);
  return it == slots_.end() ? nullptr : it->expr;
}

const Expr* ClassAd::find(std::uint64_t hash, std::string_view name) const {
  const auto it = find_slot(hash, name);
  return it == slots_.end() ? nullptr : it->expr.get();
}

Value ClassAd::eval(std::string_view name, const ClassAd* target) const {
  const Expr* e = find(name_hash(name), name);
  if (e == nullptr) return Value::undefined();
  return evaluate(*e, EvalContext{this, target});
}

std::optional<std::int64_t> ClassAd::eval_integer(std::string_view name,
                                                  const ClassAd* target) const {
  const Value v = eval(name, target);
  if (v.is_integer()) return v.as_integer();
  if (v.is_real()) return static_cast<std::int64_t>(v.as_real());
  return std::nullopt;
}

std::optional<double> ClassAd::eval_real(std::string_view name,
                                         const ClassAd* target) const {
  const Value v = eval(name, target);
  if (v.is_number()) return v.number();
  return std::nullopt;
}

std::string ClassAd::to_string() const {
  std::vector<const Slot*> sorted;
  sorted.reserve(slots_.size());
  for (const Slot& slot : slots_) sorted.push_back(&slot);
  std::sort(sorted.begin(), sorted.end(), [](const Slot* a, const Slot* b) {
    return iless(a->name, b->name);
  });
  std::ostringstream os;
  for (const Slot* slot : sorted) {
    os << slot->name << " = " << classad::to_string(*slot->expr) << "\n";
  }
  return os.str();
}

bool requirements_never_met(const ClassAd& ad) {
  const Expr* req = ad.find(kRequirementsHash, kRequirements);
  return req != nullptr && req->kind == Expr::Kind::kLiteral &&
         !(req->literal.is_boolean() && req->literal.as_boolean());
}

std::optional<std::string> required_name(const ClassAd& ad) {
  const Expr* req = ad.find(kRequirementsHash, kRequirements);
  const std::string* name = req != nullptr ? and_name_operand(*req) : nullptr;
  if (name == nullptr) return std::nullopt;
  return *name;
}

bool requirements_met(const ClassAd& ad, const ClassAd& target) {
  const Expr* req = ad.find(kRequirementsHash, kRequirements);
  if (req == nullptr) return true;
  const Value v = evaluate(*req, EvalContext{&ad, &target});
  return v.is_boolean() && v.as_boolean();
}

bool symmetric_match(const ClassAd& a, const ClassAd& b) {
  return requirements_met(a, b) && requirements_met(b, a);
}

}  // namespace phisched::classad
