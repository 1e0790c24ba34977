// Internal: the SAT translation of a ground program (Clark completion +
// native PB constraints) and the stable-model search driver on top of it.
// Shared by the solving/optimization driver (src/asp/solve.cpp) and the
// explanation engine (src/asp/explain.cpp); not part of the public engine
// API — include src/asp/solve.hpp or src/asp/explain.hpp instead.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "src/asp/ground.hpp"
#include "src/asp/profile.hpp"
#include "src/asp/sat.hpp"
#include "src/asp/solve.hpp"

namespace splice::asp {

/// What one guard literal activates, in guarded/explanation mode: an
/// integrity constraint, or one bound of a choice rule.  Indexes refer to
/// GroundProgram::rules / GroundProgram::choices respectively.
struct GuardTarget {
  enum class Kind : std::uint8_t { Constraint, ChoiceLower, ChoiceUpper };
  Kind kind;
  std::size_t index;
};

/// One SAT translation of a ground program.  Built once per solve: the
/// optimization driver keeps the same solver (and its learned clauses,
/// activities and saved phases) across all priority levels by expressing
/// tentative objective bounds as guard-activated PB constraints that are
/// enabled via solve-under-assumptions and retired with a unit clause —
/// nothing is ever rebuilt or relaxed.
///
/// Guarded mode (`guard_constraints`): every integrity constraint and choice
/// bound is made conditional on a fresh guard literal, so the program's
/// hard constraints are enforced only while their guards are assumed true.
/// Solving under the full guard set then reproduces the original program,
/// and when the result is Unsat the solver's failed-assumption core names
/// the violated constraints — the raw material of explain_unsat().  Normal
/// rules, completion clauses and minimize indicators are never guarded:
/// they define atoms rather than reject models, so guarded and unguarded
/// translations agree on stability.
class Translation {
 public:
  /// `profile` tags every emitted clause with a ClauseOriginMap origin and
  /// switches the solver's per-origin accounting on (see src/asp/profile.hpp).
  explicit Translation(const GroundProgram& gp, bool guard_constraints = false,
                       bool profile = false);

  sat::Solver& solver() { return *solver_; }

  sat::Lit atom_lit(AtomId a, bool positive) const {
    return sat::mk_lit(atom_var_[a], positive);
  }

  sat::Lit glit(const GLit& l) const { return atom_lit(l.atom, l.positive); }

  bool model_atom(AtomId a) const { return solver_->model_value(atom_var_[a]); }

  bool model_body(const std::vector<GLit>& body) const {
    for (const GLit& l : body) {
      if (model_atom(l.atom) != l.positive) return false;
    }
    return true;
  }

  /// Guard literals created in guarded mode (empty otherwise), aligned with
  /// guard_targets().  Pass the full set as assumptions to enforce every
  /// constraint; subsets enforce subsets.
  const std::vector<sat::Lit>& guards() const { return guards_; }
  const std::vector<GuardTarget>& guard_targets() const {
    return guard_targets_;
  }

  /// Objective literals+weights for one priority level, over the minimize
  /// indicator variables.
  std::vector<std::pair<sat::Lit, std::int64_t>> objective_terms(
      std::int64_t priority) const;

  /// Evaluate the cost of the current model at one priority level directly
  /// from atom values (independent of the indicator variables).
  std::int64_t eval_cost(std::int64_t priority) const;

  /// Find an unfounded set among the true atoms of the current model.
  /// Returns the corresponding loop nogoods (empty when the model is stable).
  std::vector<std::vector<sat::Lit>> unfounded_nogoods() const;

  /// The clause-origin table, or nullptr when not profiling.
  const ClauseOriginMap* origins() const { return origins_.get(); }

  /// Shared origins for clauses added after build(): loop nogoods from
  /// stable-model checks, and optimization bound constraints/retirements.
  /// kNoOrigin when not profiling.
  sat::Origin loop_nogood_origin() const { return loop_origin_; }
  sat::Origin opt_bound_origin() const { return opt_origin_; }

 private:
  bool lit_true(sat::Lit l) const {
    return solver_->model_value(sat::var_of(l)) == sat::is_pos(l);
  }

  void define_and(sat::Var v, std::span<const sat::Lit> lits);
  void build();
  sat::Lit make_body(const std::vector<GLit>& body);
  sat::Lit new_guard(GuardTarget target);
  void compute_sccs();

  /// Mint an origin id for the construct currently being translated (build()
  /// sets cur_origin_ to it); kNoOrigin when not profiling.
  sat::Origin tag(ClauseOriginMap::Kind kind, std::uint32_t index = 0) {
    return origins_ ? origins_->add(kind, index) : sat::kNoOrigin;
  }

  const GroundProgram& gp_;
  bool guard_constraints_ = false;
  std::unique_ptr<sat::Solver> solver_;
  sat::Var true_var_ = 0;
  std::vector<sat::Var> atom_var_;

  // Profiling: null/kNoOrigin when off.  cur_origin_ rides along build()'s
  // clause emission so define_and/make_body inherit the enclosing
  // construct's origin.
  std::unique_ptr<ClauseOriginMap> origins_;
  sat::Origin cur_origin_ = sat::kNoOrigin;
  sat::Origin loop_origin_ = sat::kNoOrigin;
  sat::Origin opt_origin_ = sat::kNoOrigin;

  /// Choice-rule support for an atom: the eligibility literal plus the
  /// positive atoms it depends on (choice body and element condition).  The
  /// dependencies matter for unfounded-set reasoning — an eligible choice
  /// only justifies its atom when that eligibility is itself externally
  /// supported.
  struct ChoiceSupport {
    sat::Lit elig;
    std::vector<AtomId> pos_deps;
  };

  std::vector<sat::Lit> body_lit_;               // per rule index
  std::vector<std::vector<sat::Lit>> supports_;  // per atom
  std::vector<std::vector<ChoiceSupport>> choice_supports_;  // per atom
  std::vector<std::vector<std::size_t>> rules_by_head_;
  std::vector<sat::Var> min_var_;
  std::vector<sat::Lit> guards_;
  std::vector<GuardTarget> guard_targets_;
  std::vector<bool> scc_nontrivial_;
  bool tight_ = true;

  // build() scratch, reused for every clause so that adding one allocates
  // nothing: clause_ holds the clause being added, conj_ a conjunction
  // define_and() is about to define (define_and itself fills clause_).
  std::vector<sat::Lit> clause_;
  std::vector<sat::Lit> conj_;
};

using SolveEventFn = std::function<void(SolveEvent)>;

/// Run the SAT search until a *stable* model is found (or UNSAT), learning
/// loop nogoods along the way.  Nogoods go straight into the (persistent)
/// solver; `assumptions` scope the search, so Unsat may mean "under these
/// assumptions only" — check tr.solver().in_conflict() / final_core().
/// `emit` (optional) streams ModelFound / LoopNogood milestones.
sat::Solver::Result solve_stable(Translation& tr,
                                 const std::vector<sat::Lit>& assumptions,
                                 SolveStats& stats,
                                 const SolveEventFn& emit = {});

}  // namespace splice::asp
