// The ClassAd container: a case-insensitive attribute → expression map,
// plus the two-way matchmaking primitive Condor's negotiator uses.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "classad/ast.hpp"

namespace phisched::classad {

class ClassAd {
 public:
  // --- attribute insertion -------------------------------------------------
  void insert(std::string name, ExprPtr expr);
  void insert_integer(std::string name, std::int64_t v);
  void insert_real(std::string name, double v);
  void insert_string(std::string name, std::string v);
  /// Parses `expr_source` and inserts it; throws ParseError on bad syntax.
  void insert_expr(std::string name, std::string_view expr_source);

  bool erase(std::string_view name);
  [[nodiscard]] bool has(std::string_view name) const;
  [[nodiscard]] std::size_t size() const { return slots_.size(); }

  /// Raw (unevaluated) expression, or nullptr if absent.
  [[nodiscard]] ExprPtr lookup(std::string_view name) const;

  /// The evaluator's lookup: `hash` must be name_hash(name). Returns the
  /// raw expression, or nullptr if absent; valid until the attribute is
  /// replaced or erased.
  [[nodiscard]] const Expr* find(std::uint64_t hash,
                                 std::string_view name) const;

  // --- evaluation -----------------------------------------------------------
  /// Evaluates attribute `name` with this ad as MY and `target` as TARGET
  /// (target may be null). Absent attributes evaluate to undefined.
  [[nodiscard]] Value eval(std::string_view name,
                           const ClassAd* target = nullptr) const;

  /// Typed convenience accessors; nullopt when absent / wrong type.
  [[nodiscard]] std::optional<std::int64_t> eval_integer(
      std::string_view name, const ClassAd* target = nullptr) const;
  [[nodiscard]] std::optional<double> eval_real(
      std::string_view name, const ClassAd* target = nullptr) const;

  /// Calls `visit(expr)` for every attribute's expression, in slot order.
  template <typename Visit>
  void for_each_expr(Visit&& visit) const {
    for (const Slot& slot : slots_) visit(*slot.expr);
  }

  /// Multi-line `Name = expr` rendering, one line per attribute in
  /// insertion-independent order (iless), each name in the spelling it
  /// was first inserted with.
  [[nodiscard]] std::string to_string() const;

 private:
  struct Slot {
    std::uint64_t hash;
    std::string name;
    ExprPtr expr;
  };

  /// First slot whose hash is not below `hash`.
  [[nodiscard]] std::vector<Slot>::const_iterator first_slot(
      std::uint64_t hash) const;
  /// The slot holding `name`, or slots_.end().
  [[nodiscard]] std::vector<Slot>::const_iterator find_slot(
      std::uint64_t hash, std::string_view name) const;

  /// Sorted by hash; names that collide on a hash sit side by side.
  std::vector<Slot> slots_;
};

/// True when `ad.Requirements` is a literal other than `true`: it then
/// accepts no target, whatever the target holds.
[[nodiscard]] bool requirements_never_met(const ClassAd& ad);

/// The string `s` when `ad.Requirements` is a tree of `&&` with an
/// operand `TARGET.Name == s` (either side, `s` a string literal); the
/// leftmost such operand wins. The ad then accepts only a target whose
/// Name evaluates to a string equal to `s` case-insensitively: an absent
/// Name is undefined and a non-string one an error, and neither lets the
/// `&&` tree be true. nullopt for any other shape.
[[nodiscard]] std::optional<std::string> required_name(const ClassAd& ad);

/// Evaluates `ad.Requirements` against `target`. A match requires the
/// Requirements expression to evaluate to exactly true (undefined and
/// error do NOT match, as in Condor).
[[nodiscard]] bool requirements_met(const ClassAd& ad, const ClassAd& target);

/// Condor-style symmetric match: both ads' Requirements must accept the
/// other side. An ad without a Requirements attribute accepts anything.
[[nodiscard]] bool symmetric_match(const ClassAd& a, const ClassAd& b);

}  // namespace phisched::classad
