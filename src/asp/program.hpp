// Non-ground ASP programs: the rule AST the grounder consumes.
//
// The supported fragment covers everything Spack's concretizer encoding (and
// our reproduction of it) needs:
//
//   fact.                                  % ground fact
//   head :- body.                          % normal rule
//   :- body.                               % integrity constraint
//   lo { a : cond ; b : cond } hi :- body. % bounded choice rule
//   #minimize { w@p,t1,..,tn : body }.     % weak constraint (weight@priority)
//
// Bodies are conjunctions of positive/negative atoms plus comparison
// builtins (=, !=, <, <=, >, >=) over terms.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/asp/term.hpp"

namespace splice::asp {

/// 1-based source position of a statement within the text it was parsed
/// from.  Statements built programmatically (Term API) have line == 0 and
/// compare as "unknown"; diagnostics fall back to the rule's printed form.
/// Text embedded in a source file (parse_into with an origin) carries that
/// file's basename and counts lines from where the text starts in it.
struct SourceLoc {
  std::uint32_t line = 0;
  std::uint32_t col = 0;
  const char* file = nullptr;  ///< static storage; null for free-standing text

  bool known() const { return line > 0; }
  /// "line:col" ("file:line:col" with a file), or "?" when unknown.
  std::string str() const;
};

/// A (possibly negated) atom occurrence in a rule body.
struct Literal {
  Term atom;
  bool positive = true;
};

enum class CmpOp : std::uint8_t { Eq, Ne, Lt, Le, Gt, Ge };

std::string_view cmp_op_str(CmpOp op);

/// A comparison builtin between two terms.  Integers compare numerically;
/// everything else by the total term order.  Both sides must be ground by
/// the time the grounder evaluates it (guaranteed by safety checking).
struct Comparison {
  CmpOp op;
  Term lhs;
  Term rhs;
};

/// Evaluate a ground comparison.
bool eval_comparison(const Comparison& c);

/// One `atom : cond1, ..., condk` element of a choice head.
struct ChoiceElement {
  Term atom;
  std::vector<Literal> condition;
};

struct Head {
  enum class Kind : std::uint8_t {
    None,    ///< integrity constraint
    Atom,    ///< normal rule
    Choice,  ///< bounded choice
  };
  Kind kind = Kind::None;
  Term atom;                            // Kind::Atom
  std::vector<ChoiceElement> elements;  // Kind::Choice
  std::optional<std::int64_t> lower;    // Kind::Choice bounds
  std::optional<std::int64_t> upper;
};

struct Rule {
  Head head;
  std::vector<Literal> body;
  std::vector<Comparison> comparisons;
  SourceLoc loc;
  /// Optional human-readable origin (e.g. "request visit: version must
  /// satisfy =3.3.3").  Compilers that synthesize rules from higher-level
  /// directives set this so explanations can speak the user's language;
  /// empty for rules written directly in ASP text.
  std::string note;

  std::string str() const;
};

/// One element of a #minimize statement: add `weight` at `priority` to the
/// objective for each distinct ground `tuple` whose condition holds.
/// `weight` is a term so it can be a variable bound by the condition
/// (e.g. `#minimize { W@1, N : version_weight(N, W) }`); it must ground to a
/// non-negative integer.
struct MinimizeElement {
  Term weight = Term::integer(1);
  std::int64_t priority = 0;
  std::vector<Term> tuple;
  std::vector<Literal> condition;
  SourceLoc loc;
};

/// A non-ground program: rules plus weak constraints.
class Program {
 public:
  void add_rule(Rule rule);
  void add_fact(Term atom);
  void add_constraint(std::vector<Literal> body, std::vector<Comparison> cmps = {});
  void add_minimize(MinimizeElement elem);

  /// Append every rule and minimize element of `other`.
  void extend(const Program& other);

  const std::vector<Rule>& rules() const { return rules_; }
  const std::vector<MinimizeElement>& minimizes() const { return minimizes_; }

  std::size_t size() const { return rules_.size(); }
  std::string str() const;

 private:
  /// Throws AspError when the rule violates the safety condition: every
  /// variable must occur in a positive body literal (head/negative/comparison
  /// variables included; choice-element locals may be bound by the element's
  /// positive condition).
  void check_safety(const Rule& rule) const;

  std::vector<Rule> rules_;
  std::vector<MinimizeElement> minimizes_;
};

}  // namespace splice::asp
