// Grounding: instantiate a non-ground Program into a propositional
// GroundProgram.
//
// The grounder runs bottom-up, semi-naive evaluation over the positive part
// of the program: it maintains an over-approximation of the derivable atoms
// ("possible"), instantiates rule bodies against it with indexed joins, and
// iterates to a fixpoint.  Negative literals are kept symbolic during the
// fixpoint and resolved afterwards against the final possible set:
//
//   * `not a` where `a` is not possible  -> literal is true, dropped;
//   * `not a` where `a` is certain       -> rule instance is dropped;
//   * otherwise the literal survives into the ground program.
//
// Atoms derivable by facts (and by negation-free rules from facts) are
// tracked as "certain" and emitted as unit facts, which keeps the SAT
// translation small: the bulk of a concretizer instance is fact data
// (pkg_fact / hash_attr) that never reaches the solver as clauses.
// Certainty is computed as a deterministic closure over the final instance
// set, so the optimized and reference paths (see GroundOptions) produce
// identical ground programs.
//
// Hot-path machinery (each independently gated by GroundOptions so the
// differential suite can cross-check it against the naive path):
//   * per-predicate atom stores keyed by interned signature ids, with
//     persistent per-argument hash indexes (built once, maintained
//     incrementally — no rebuilds, no candidate copying);
//   * a join planner that orders body literals by bound-variable overlap
//     and predicate extension size (selectivity);
//   * exact semi-naive delta evaluation instead of naive full
//     re-instantiation.  Atoms carry their insertion sequence number, so a
//     round's delta and its "older" / "no newer" windows are sequence
//     bounds, and each candidate list is scanned as one [lo, hi) slice.
//     Every body combination is completed once: in the round after its
//     newest atom appeared, or in round one, which each rule records as a
//     store-size watermark (`first_seen`) that later rounds must reach
//     above.  Only a rule that matched its own round-one output completes a
//     combination twice.
//   * dedup only where uniqueness is not proven.  A ground instance is a
//     function of the atoms its join matched, so under exact semi-naive
//     evaluation a rule that reads no signature it derives produces each
//     instance once.  Such a rule skips the content dedup set unless another
//     rule of its shape could produce the same instance (a conservative
//     check with variables renamed apart; choice bodies and elements are
//     keyed by their rule, so only normal rules and constraints need it).
//     Instances that still pass the set are compared in full on a key hit,
//     never dropped on the hash alone.  The naive reference path keeps the
//     set for every instance.
//
// Ground bodies are assembled from the store atoms the join matched, and
// the emission order is a pure function of the program: rules are emitted
// in instantiation order, atoms in first-emission order.  The SAT variable
// order, and with it which of several equally good answers the solver
// returns, follows from that order.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/asp/program.hpp"
#include "src/asp/term.hpp"
#include "src/support/json.hpp"

namespace splice::asp {

using AtomId = std::uint32_t;

/// Ground literal: atom id + sign.
struct GLit {
  AtomId atom;
  bool positive;
};

/// Ground normal rule or integrity constraint (has_head == false).
struct GRule {
  bool has_head = false;
  AtomId head = 0;
  std::vector<GLit> body;
};

struct GChoiceElem {
  AtomId atom;
  std::vector<GLit> condition;  // ground residual condition (rarely nonempty)
};

/// Ground bounded choice rule.
struct GChoice {
  std::optional<std::int64_t> lower;
  std::optional<std::int64_t> upper;
  std::vector<GChoiceElem> elements;
  std::vector<GLit> body;
};

/// Ground objective term: contributes `weight` at `priority` when any of its
/// condition conjunctions is satisfied.  Conditions are grouped per distinct
/// (weight, priority, tuple) as ASP weak-constraint semantics require.
struct GMinTerm {
  std::int64_t weight;
  std::int64_t priority;
  std::vector<std::vector<GLit>> conditions;
  std::string tuple_repr;  // for diagnostics
};

struct GroundStats {
  std::size_t possible_atoms = 0;
  std::size_t certain_atoms = 0;
  std::size_t rules = 0;
  std::size_t choices = 0;
  std::size_t iterations = 0;
  std::size_t provenance_bytes = 0;  ///< 0 unless record_provenance was set
  double seconds = 0;

  /// Flat object, one field per counter (stats-JSON schema leaf).
  json::Value to_json() const;
};

/// Derivation provenance, recorded only when GroundOptions::record_provenance
/// is set (the hot path pays nothing otherwise).  Maps each emitted ground
/// rule/choice — and each derived atom — back to the source rule and the
/// variable substitution of the instantiation that (first) produced it, which
/// is what lets the explanation engine (src/asp/explain.hpp) attach source
/// locations and request notes to unsat-core members.
struct Provenance {
  static constexpr std::uint32_t kNoRule = 0xffffffffu;

  struct Origin {
    std::uint32_t rule_index = kNoRule;  ///< index into Program::rules()
    /// (variable, value) bindings of the deriving instantiation, in join
    /// order (the order depends on the join plan, not the rule text).
    std::vector<std::pair<Term, Term>> bindings;
  };

  std::vector<Origin> rule_origin;    ///< aligned with GroundProgram::rules
  std::vector<Origin> choice_origin;  ///< aligned with GroundProgram::choices
  /// First derivation of each possible atom, keyed by interned term id.
  std::unordered_map<std::uint32_t, Origin> atom_origin;

  /// Approximate heap footprint, reported as the `ground.provenance_bytes`
  /// metric and GroundStats::provenance_bytes.
  std::size_t approx_bytes() const;
};

/// Per-source-rule grounding cost, recorded only when GroundOptions::profile
/// is set.  Counter placement keeps conservation exact against GroundStats:
/// sum(per_rule[*].emitted_rules) == GroundStats::rules and
/// sum(per_rule[*].emitted_choices) == GroundStats::choices.
struct GroundProfile {
  struct RuleCost {
    std::uint64_t instantiations = 0;    ///< body matches that survived dedup
    std::uint64_t join_candidates = 0;   ///< candidate atoms scanned in joins
    std::uint64_t emitted_rules = 0;     ///< ground rules emitted from here
    std::uint64_t emitted_choices = 0;   ///< ground choices emitted from here
    double seconds = 0;                  ///< wall time instantiating this rule
    /// Instances still pass the content dedup set: the grounder could not
    /// prove them unique (see the header comment).
    bool dedup = false;
  };
  std::vector<RuleCost> per_rule;  ///< indexed by Program::rules() position
  std::uint64_t minimize_join_candidates = 0;  ///< #minimize condition joins
  double minimize_seconds = 0;
};

/// The propositional program handed to the translation/solving layer.
class GroundProgram {
 public:
  AtomId intern_atom(Term t);
  Term atom_term(AtomId id) const { return atoms_[id]; }
  std::size_t num_atoms() const { return atoms_.size(); }
  /// Lookup an existing atom id; nullopt if the term never appeared.
  std::optional<AtomId> find_atom(Term t) const;

  std::vector<AtomId> facts;  // unconditionally true
  std::vector<GRule> rules;
  std::vector<GChoice> choices;
  std::vector<GMinTerm> minimize;
  GroundStats stats;
  /// Null unless GroundOptions::record_provenance was set.
  std::shared_ptr<const Provenance> provenance;
  /// Null unless GroundOptions::profile was set.
  std::shared_ptr<const GroundProfile> profile;

 private:
  static constexpr AtomId kNoAtom = 0xffffffffu;
  std::vector<Term> atoms_;
  // Dense map from global term id to atom id (terms are interned integers,
  // so a flat vector beats hashing on this hot path).
  std::vector<AtomId> id_by_term_;
};

/// Feature gates for the grounder's optimized machinery.  Defaults enable
/// everything; `reference()` disables it all, yielding the naive
/// re-instantiation path the differential suite cross-checks against.
struct GroundOptions {
  bool semi_naive = true;   ///< delta-driven rounds vs full re-instantiation
  bool use_indexes = true;  ///< per-argument hash indexes vs full scans
  bool order_joins = true;  ///< selectivity join planner vs textual order
  /// Record derivation provenance (GroundProgram::provenance).  Off by
  /// default: the explanation path opts in; the solve hot path never pays.
  bool record_provenance = false;
  /// Accumulate per-source-rule cost counters (GroundProgram::profile).
  /// Off by default for the same reason.
  bool profile = false;

  static GroundOptions reference() {
    return {false, false, false, false, false};
  }
};

/// Ground `program`.  Throws AspError on programs outside the supported
/// fragment (unsafe rules are rejected earlier, at Program construction).
GroundProgram ground(const Program& program, const GroundOptions& opts = {});

/// The retained naive reference path: full re-instantiation, no indexes, no
/// join planning.  Produces the same ground program as `ground` modulo
/// rule/atom order; kept as the oracle for the differential test suite.
GroundProgram ground_reference(const Program& program);

}  // namespace splice::asp
