#include "src/asp/ground.hpp"

#include <algorithm>
#include <chrono>
#include <map>
#include <unordered_set>

#include "src/support/error.hpp"
#include "src/support/hash.hpp"
#include "src/support/flight.hpp"
#include "src/support/trace.hpp"

namespace splice::asp {

AtomId GroundProgram::intern_atom(Term t) {
  if (t.id() >= id_by_term_.size()) id_by_term_.resize(t.id() + 1, kNoAtom);
  AtomId& slot = id_by_term_[t.id()];
  if (slot == kNoAtom) {
    slot = static_cast<AtomId>(atoms_.size());
    atoms_.push_back(t);
  }
  return slot;
}

std::optional<AtomId> GroundProgram::find_atom(Term t) const {
  if (t.id() >= id_by_term_.size() || id_by_term_[t.id()] == kNoAtom) {
    return std::nullopt;
  }
  return id_by_term_[t.id()];
}

namespace {

/// Membership bitset over global interned-term ids: terms are dense small
/// integers, so flat byte flags beat hash sets on the grounder's hottest
/// reads (store/possible/certain membership).
class TermFlags {
 public:
  bool test(Term t) const {
    return t.id() < flags_.size() && flags_[t.id()] != 0;
  }
  /// Returns true if the flag was newly set.
  bool set(Term t) {
    if (t.id() >= flags_.size()) flags_.resize(t.id() + 1, 0);
    if (flags_[t.id()]) return false;
    flags_[t.id()] = 1;
    return true;
  }

 private:
  std::vector<std::uint8_t> flags_;
};

/// Per-signature store of ground atoms with persistent, incrementally
/// maintained argument indexes.  Everything keys on interned SigIds; an
/// index is built once on first use and then only appended to, so candidate
/// lists handed to the join loop are never invalidated (callers iterate a
/// frozen prefix by index instead of copying).  Every atom carries its
/// insertion sequence number, so each list is sorted by sequence and the
/// atoms of any store-size window are one contiguous slice of it.
class AtomStore {
 public:
  explicit AtomStore(bool use_indexes) : use_indexes_(use_indexes) {}

  /// Register a ground atom, stamping it with its insertion sequence number
  /// (the store size before the insert); returns true if new.
  bool add(Term atom) {
    if (!present_.set(atom)) return false;
    if (atom.id() >= seq_.size()) seq_.resize(atom.id() + 1, 0);
    seq_[atom.id()] = static_cast<std::uint32_t>(size_++);
    Pred& pred = pred_for(atom);
    pred.atoms.push_back(atom);
    for (std::size_t pos = 0; pos < pred.by_pos.size(); ++pos) {
      ArgIndex& index = pred.by_pos[pos];
      if (index.built) index.map[atom.args()[pos].id()].push_back(atom);
    }
    return true;
  }

  bool contains(Term atom) const { return present_.test(atom); }

  /// Insertion sequence number of a stored atom (only meaningful when
  /// contains()).
  std::uint32_t seq(Term atom) const { return seq_[atom.id()]; }
  std::size_t size() const { return size_; }

  /// Index bounds [first, last) of the atoms of `list` -- an all() or
  /// lookup() result, hence in sequence order -- whose sequence numbers lie
  /// in [lo, hi).  `hi` at or past the current size keeps the whole list.
  std::pair<std::size_t, std::size_t> slice(const std::vector<Term>& list,
                                            std::uint32_t lo,
                                            std::uint32_t hi) const {
    return {below(list, lo), below(list, hi)};
  }

  /// Number of stored atoms with the given signature.
  std::size_t count(SigId sig) const {
    auto it = preds_.find(sig);
    return it == preds_.end() ? 0 : it->second.atoms.size();
  }

  /// All atoms with the given signature.  The returned vector may grow while
  /// the caller iterates (self-recursive predicates); iterate a frozen
  /// prefix by index.
  const std::vector<Term>& all(SigId sig) const {
    auto it = preds_.find(sig);
    return it == preds_.end() ? kEmpty : it->second.atoms;
  }

  /// Atoms with the given signature whose argument `argpos` equals `value`.
  /// Only valid for Fun atoms.  The index is built on first use per
  /// (sig, argpos) and kept up to date by add() from then on — never
  /// rebuilt, so returned buckets are append-only.
  const std::vector<Term>& lookup(SigId sig, std::size_t argpos, Term value) {
    auto it = preds_.find(sig);
    if (it == preds_.end()) return kEmpty;
    Pred& pred = it->second;
    ArgIndex& index = pred.by_pos[argpos];
    if (!index.built) {
      for (Term a : pred.atoms) index.map[a.args()[argpos].id()].push_back(a);
      index.built = true;
    }
    auto vit = index.map.find(value.id());
    return vit == index.map.end() ? kEmpty : vit->second;
  }

  bool use_indexes() const { return use_indexes_; }

  template <typename F>
  void for_each_pred(F&& f) const {
    for (const auto& [sig, pred] : preds_) f(sig, pred.atoms);
  }

 private:
  struct ArgIndex {
    std::unordered_map<std::uint32_t, std::vector<Term>> map;
    bool built = false;
  };
  struct Pred {
    std::vector<Term> atoms;
    std::vector<ArgIndex> by_pos;  // sized to the predicate arity
  };

  /// Number of leading atoms of `list` with sequence numbers below `bound`.
  /// The two ends are checked first: most lists lie wholly inside a window.
  std::size_t below(const std::vector<Term>& list, std::uint32_t bound) const {
    if (list.empty() || seq(list.back()) < bound) return list.size();
    if (seq(list.front()) >= bound) return 0;
    return static_cast<std::size_t>(
        std::partition_point(list.begin(), list.end(),
                             [&](Term t) { return seq(t) < bound; }) -
        list.begin());
  }

  Pred& pred_for(Term atom) {
    auto [it, inserted] = preds_.try_emplace(atom.sig());
    if (inserted) {
      std::size_t arity =
          atom.kind() == TermKind::Fun ? atom.args().size() : 0;
      it->second.by_pos.resize(arity);
    }
    return it->second;
  }

  static const std::vector<Term> kEmpty;

  bool use_indexes_;
  TermFlags present_;
  std::vector<std::uint32_t> seq_;  // term id -> insertion sequence number
  std::size_t size_ = 0;
  // node-based: Pred references stay valid while the map grows.
  std::unordered_map<SigId, Pred> preds_;
};

const std::vector<Term> AtomStore::kEmpty;

void hash_body(Hasher& h, const std::vector<Literal>& body) {
  for (const Literal& l : body) {
    h.field_u64(l.atom.id());
    h.field_u64(l.positive ? 1 : 0);
  }
}

bool same_lits(const std::vector<Literal>& a, const std::vector<Literal>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const Literal& x, const Literal& y) {
                      return x.atom == y.atom && x.positive == y.positive;
                    });
}

/// Whether some substitution could make instances of patterns `a` and `b`
/// equal, with the variables of the two renamed apart: only differing
/// constants or functors at one position rule it out.  Substitution is
/// purely structural (no arithmetic), so this is sound.
bool may_unify(Term a, Term b) {
  if (a == b) return true;
  if (a.kind() == TermKind::Var || b.kind() == TermKind::Var) return true;
  if (a.is_ground() && b.is_ground()) return false;  // interned: distinct
  if (a.kind() != TermKind::Fun || b.kind() != TermKind::Fun ||
      a.sig() != b.sig()) {
    return false;
  }
  std::span<const Term> aa = a.args();
  std::span<const Term> ba = b.args();
  for (std::size_t i = 0; i < aa.size(); ++i) {
    if (!may_unify(aa[i], ba[i])) return false;
  }
  return true;
}

/// A fully instantiated (ground) normal rule or constraint awaiting
/// negation resolution.
struct Instance {
  const Rule* rule;
  Term head;                  // ground head atom (Atom rules)
  std::vector<Literal> body;  // ground literals, pos and neg
};

/// A ground choice-rule body (elements are grounded separately, see
/// ElemInstance, and attached at emission by matching ground bodies).
struct ChoiceInstance {
  const Rule* rule;
  std::size_t rule_index;
  std::vector<Literal> body;  // in rule-literal order (grouping key)
};

/// One ground choice element, produced by its own pseudo-rule
/// `elem_atom :- rule_body, elem_condition` so that element conditions
/// participate fully in the (semi-naive) fixpoint — enumeration is complete
/// over the final possible set regardless of when the choice body first
/// fired, which also makes the optimized and reference paths agree.
struct ElemInstance {
  std::size_t rule_index;
  int elem;  // element position in the choice head
  Term atom;
  std::vector<Literal> body;  // the owning rule's body, rule-literal order
  std::vector<Literal> condition;
};

class Grounder {
 public:
  Grounder(const Program& program, const GroundOptions& opts)
      : program_(program), opts_(opts), store_(opts.use_indexes) {
    if (opts.record_provenance) prov_ = std::make_shared<Provenance>();
    if (opts.profile) {
      gprof_ = std::make_shared<GroundProfile>();
      gprof_->per_rule.resize(program.rules().size());
    }
  }

  GroundProgram run() {
    flight::Span span("ground", "asp");
    auto t0 = std::chrono::steady_clock::now();
    seed_facts();
    prepare_rules();
    fixpoint();
    certain_closure();
    GroundProgram out;
    emit(out);
    auto t1 = std::chrono::steady_clock::now();
    out.stats.possible_atoms = store_.size();
    out.stats.certain_atoms = certain_list_.size();
    out.stats.rules = out.rules.size();
    out.stats.choices = out.choices.size();
    out.stats.iterations = iterations_;
    out.stats.seconds = std::chrono::duration<double>(t1 - t0).count();
    if (prov_) {
      out.stats.provenance_bytes = prov_->approx_bytes();
      out.provenance = std::move(prov_);
    }
    if (gprof_) out.profile = std::move(gprof_);
    flight::Recorder& rec = flight::Recorder::global();
    rec.emit(flight::EventKind::GroundDone,
             static_cast<std::int64_t>(out.stats.possible_atoms),
             static_cast<std::int64_t>(out.stats.rules), {},
             flight::Phase::Ground);
    if (rec.enabled()) record_metrics(out.stats);
    return out;
  }

  /// Grounding totals the GroundDone event does not carry, and per-predicate
  /// possible-atom counts, into the global metrics registry.  Costs a walk
  /// of the per-predicate stores, so only runs while recording.
  void record_metrics(const GroundStats& stats) const {
    trace::MetricsRegistry& m = trace::Tracer::global().metrics();
    m.add("ground.certain_atoms",
          static_cast<std::int64_t>(stats.certain_atoms));
    m.add("ground.choices", static_cast<std::int64_t>(stats.choices));
    m.add("ground.iterations", static_cast<std::int64_t>(stats.iterations));
    m.add("ground.dedup_probes", static_cast<std::int64_t>(dedup_probes_));
    if (stats.provenance_bytes > 0) {
      m.add("ground.provenance_bytes",
            static_cast<std::int64_t>(stats.provenance_bytes));
    }
    store_.for_each_pred([&](SigId sig, const std::vector<Term>& atoms) {
      m.add("ground.atoms/" + Term::sig_str(sig),
            static_cast<std::int64_t>(atoms.size()));
    });
  }

 private:
  // -- preparation ---------------------------------------------------------

  struct PreparedRule {
    const Rule* rule;
    std::size_t rule_index;  // position in program_.rules()
    // For choice rules, each element gets its own pseudo-rule
    // `elem_atom :- rule_body, elem_condition` (elem >= 0) so element
    // conditions take part in the fixpoint like any other join.
    int elem = -1;
    // Positive body literals in join order; during semi-naive rounds each is
    // tried as the delta pivot.
    std::vector<const Literal*> pos;
    std::vector<const Literal*> neg;
    std::vector<SigId> pos_sigs;  // aligned with pos
    // Join position of each positive literal of the rule body (and, for an
    // element pseudo-rule, of its element condition), in literal order, so
    // ground bodies are read off the matched atoms (kNoSlot: negative).
    std::vector<std::uint32_t> body_slot;
    std::vector<std::uint32_t> cond_slot;
    // Store size when round one instantiated the rule: round one completed
    // every join over atoms below it, so later rounds only complete joins
    // holding an atom at or above it.
    std::uint32_t first_seen = 0;
    // Whether instances pass the content dedup set; false once
    // prove_unique() shows the join cannot produce one twice.
    bool dedup = true;
  };

  static constexpr std::uint32_t kNoSlot = 0xffffffffu;

  /// Join position (index into `pos`) of each positive literal of `lits`.
  static std::vector<std::uint32_t> slots_of(
      const std::vector<Literal>& lits,
      const std::vector<const Literal*>& pos) {
    std::vector<std::uint32_t> slots;
    slots.reserve(lits.size());
    for (const Literal& l : lits) {
      auto it = std::find(pos.begin(), pos.end(), &l);
      slots.push_back(l.positive ? static_cast<std::uint32_t>(it - pos.begin())
                                 : kNoSlot);
    }
    return slots;
  }

  /// Ground facts (empty body, ground atom head) seed the store and the
  /// certain set directly; everything else goes through the joiner.
  void seed_facts() {
    for (std::size_t ri = 0; ri < program_.rules().size(); ++ri) {
      const Rule& r = program_.rules()[ri];
      if (!r.body.empty()) continue;
      if (r.head.kind == Head::Kind::Atom && r.head.atom.is_ground() &&
          r.comparisons.empty()) {
        if (store_.add(r.head.atom)) {
          record_atom_origin(r.head.atom, static_cast<std::uint32_t>(ri),
                             nullptr);
        }
        if (certain_.set(r.head.atom)) certain_list_.push_back(r.head.atom);
        consumed_.insert(&r);
      }
    }
  }

  void prepare_rules() {
    // Signatures with a deriving rule: their extension is unknown at
    // planning time (only facts are in the store), so the planner treats
    // them as large.
    std::unordered_set<SigId> derived;
    for (const Rule& r : program_.rules()) {
      if (r.head.kind == Head::Kind::Atom) derived.insert(r.head.atom.sig());
      for (const ChoiceElement& e : r.head.elements) derived.insert(e.atom.sig());
    }
    auto estimate = [&](const Literal* l) -> std::size_t {
      SigId sig = l->atom.sig();
      if (derived.count(sig) > 0) return kDerivedEstimate;
      return store_.count(sig);
    };
    std::size_t rule_index = 0;
    for (const Rule& r : program_.rules()) {
      std::size_t index = rule_index++;
      if (consumed_.count(&r) > 0) continue;
      PreparedRule pr;
      pr.rule = &r;
      pr.rule_index = index;
      for (const Literal& l : r.body) {
        (l.positive ? pr.pos : pr.neg).push_back(&l);
      }
      if (opts_.order_joins) order_join(pr.pos, estimate);
      for (const Literal* l : pr.pos) pr.pos_sigs.push_back(l->atom.sig());
      pr.body_slot = slots_of(r.body, pr.pos);
      matched_.resize(std::max(matched_.size(), pr.pos.size()));
      prepared_.push_back(std::move(pr));
      if (r.head.kind != Head::Kind::Choice) continue;
      for (std::size_t ei = 0; ei < r.head.elements.size(); ++ei) {
        PreparedRule pe;
        pe.rule = &r;
        pe.rule_index = index;
        pe.elem = static_cast<int>(ei);
        for (const Literal& l : r.body) {
          if (l.positive) pe.pos.push_back(&l);
        }
        for (const Literal& l : r.head.elements[ei].condition) {
          if (l.positive) pe.pos.push_back(&l);
        }
        if (opts_.order_joins) order_join(pe.pos, estimate);
        for (const Literal* l : pe.pos) pe.pos_sigs.push_back(l->atom.sig());
        pe.body_slot = slots_of(r.body, pe.pos);
        pe.cond_slot = slots_of(r.head.elements[ei].condition, pe.pos);
        matched_.resize(std::max(matched_.size(), pe.pos.size()));
        prepared_.push_back(std::move(pe));
      }
    }
    prove_unique();
  }

  /// Clear PreparedRule::dedup where exact semi-naive evaluation already
  /// proves each instance is produced once.  A ground instance is a
  /// function of the atoms its join matched (its positive body *is* those
  /// atoms), and the join completes each atom combination once, except
  /// when a rule matches atoms it derived itself during its own round-one
  /// pass: round two completes those combinations again.  So a rule skips
  /// the set when
  ///   * evaluation is semi-naive (the naive path re-instantiates every
  ///     round and keeps the set for every instance),
  ///   * it does not read a signature it derives (its head, or the element
  ///     atom of an element pseudo-rule), and
  ///   * for normal rules and constraints, whose keys carry no rule index,
  ///     no other rule can produce the same instance (shared_shape_rules).
  void prove_unique() {
    std::vector<bool> shared;
    if (opts_.semi_naive) shared = shared_shape_rules();
    for (PreparedRule& pr : prepared_) {
      const Rule& r = *pr.rule;
      std::optional<SigId> derived;
      if (pr.elem >= 0) {
        derived = r.head.elements[static_cast<std::size_t>(pr.elem)].atom.sig();
      } else if (r.head.kind == Head::Kind::Atom) {
        derived = r.head.atom.sig();
      }
      bool self_feeding =
          derived && std::find(pr.pos_sigs.begin(), pr.pos_sigs.end(),
                               *derived) != pr.pos_sigs.end();
      pr.dedup = !opts_.semi_naive || self_feeding ||
                 (pr.elem < 0 && r.head.kind != Head::Kind::Choice &&
                  shared[pr.rule_index]);
      if (gprof_ && pr.dedup) gprof_->per_rule[pr.rule_index].dedup = true;
    }
  }

  /// Source rules (by index) whose instances another normal rule or
  /// constraint might duplicate.  Two rules can only produce the same
  /// instance if they have one shape -- the same head signature (or both
  /// headless), body length, and sign and signature at each body position
  /// -- and no position where their patterns hold different constants or
  /// functors (may_unify, variables renamed apart).  Conservative.  Fully
  /// ground rules, most of what a package compiles to, collide only when
  /// equal, so within a shape they are sorted, not compared pairwise.
  std::vector<bool> shared_shape_rules() const {
    const std::vector<Rule>& rules = program_.rules();
    struct Shape {
      std::vector<std::size_t> ground;
      std::vector<std::size_t> open;  // rules with a variable
    };
    std::map<std::vector<std::uint32_t>, Shape> by_shape;
    for (const PreparedRule& pr : prepared_) {
      const Rule& r = *pr.rule;
      if (pr.elem >= 0 || r.head.kind == Head::Kind::Choice) continue;
      std::vector<std::uint32_t> shape;
      shape.reserve(1 + 2 * r.body.size());
      bool ground = r.head.kind == Head::Kind::None || r.head.atom.is_ground();
      shape.push_back(r.head.kind == Head::Kind::Atom ? r.head.atom.sig() + 1
                                                      : 0);
      for (const Literal& l : r.body) {
        shape.push_back(l.atom.sig());
        shape.push_back(l.positive ? 1 : 0);
        ground = ground && l.atom.is_ground();
      }
      Shape& group = by_shape[std::move(shape)];
      (ground ? group.ground : group.open).push_back(pr.rule_index);
    }
    // Atoms in head-then-body order; None heads are the invalid Term.
    auto atom_at = [&](std::size_t ri, std::size_t k) {
      const Rule& r = rules[ri];
      return k == 0 ? r.head.atom : r.body[k - 1].atom;
    };
    std::vector<bool> shared(rules.size(), false);
    for (auto& [shape, group] : by_shape) {
      const std::size_t natoms = 1 + (shape.size() - 1) / 2;
      auto may_collide = [&](std::size_t a, std::size_t b) {
        for (std::size_t k = 0; k < natoms; ++k) {
          if (!may_unify(atom_at(a, k), atom_at(b, k))) return false;
        }
        return true;
      };
      for (std::size_t i = 0; i < group.open.size(); ++i) {
        std::size_t a = group.open[i];
        for (std::size_t j = i + 1; j < group.open.size(); ++j) {
          std::size_t b = group.open[j];
          if (may_collide(a, b)) shared[a] = shared[b] = true;
        }
        for (std::size_t b : group.ground) {
          if (may_collide(a, b)) shared[a] = shared[b] = true;
        }
      }
      auto less = [&](std::size_t a, std::size_t b) {
        for (std::size_t k = 0; k < natoms; ++k) {
          if (atom_at(a, k) != atom_at(b, k)) {
            return atom_at(a, k).id() < atom_at(b, k).id();
          }
        }
        return false;
      };
      std::sort(group.ground.begin(), group.ground.end(), less);
      for (std::size_t i = 1; i < group.ground.size(); ++i) {
        std::size_t a = group.ground[i - 1];
        std::size_t b = group.ground[i];
        if (!less(a, b)) shared[a] = shared[b] = true;
      }
    }
    return shared;
  }

  static constexpr std::size_t kDerivedEstimate = std::size_t{1} << 30;

  /// Greedy join planner: seed with the most selective literal (smallest
  /// estimated extension, then fewest variables), then repeatedly take the
  /// literal sharing the most already-bound variables (ties: smaller
  /// extension, then fewer unbound variables).
  template <typename Est>
  static void order_join(std::vector<const Literal*>& lits, Est&& estimate) {
    if (lits.size() < 2) return;
    std::vector<const Literal*> ordered;
    std::vector<Term> bound;
    std::vector<bool> used(lits.size(), false);
    for (std::size_t step = 0; step < lits.size(); ++step) {
      std::size_t best = SIZE_MAX;
      long best_shared = 0;
      std::size_t best_est = 0;
      std::size_t best_unbound = 0;
      for (std::size_t i = 0; i < lits.size(); ++i) {
        if (used[i]) continue;
        std::vector<Term> vs;
        collect_vars(lits[i]->atom, vs);
        long shared = 0;
        std::size_t unbound = 0;
        for (Term v : vs) {
          if (std::find(bound.begin(), bound.end(), v) != bound.end()) {
            ++shared;
          } else {
            ++unbound;
          }
        }
        std::size_t est = estimate(lits[i]);
        if (step == 0) shared = 0;  // seed purely on selectivity
        if (best == SIZE_MAX || shared > best_shared ||
            (shared == best_shared &&
             (est < best_est ||
              (est == best_est && unbound < best_unbound)))) {
          best = i;
          best_shared = shared;
          best_est = est;
          best_unbound = unbound;
        }
      }
      used[best] = true;
      ordered.push_back(lits[best]);
      collect_vars(lits[best]->atom, bound);
    }
    lits = std::move(ordered);
  }

  // -- fixpoint ------------------------------------------------------------

  /// Point join_slot_ at a rule's candidate counter and start its clock.
  /// Cheap no-op (one branch) when profiling is off.
  std::chrono::steady_clock::time_point profile_begin(std::size_t rule_index) {
    if (!gprof_) return {};
    join_slot_ = &gprof_->per_rule[rule_index].join_candidates;
    return std::chrono::steady_clock::now();
  }

  void profile_end(std::size_t rule_index,
                   std::chrono::steady_clock::time_point t0) {
    if (!gprof_) return;
    join_slot_ = nullptr;
    gprof_->per_rule[rule_index].seconds +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
  }

  static constexpr std::uint32_t kNoCap = 0xffffffffu;

  /// Sequence bounds of one join.  Positive literals before the pivot join
  /// atoms in [0, old_end), literals after it atoms in [0, end); while the
  /// partial match still owes an atom at or above `mark`, the last literal
  /// joins [mark, end) only.  The default window is a full join over every
  /// atom present when each literal is reached.
  struct Window {
    std::size_t pivot = SIZE_MAX;
    std::uint32_t old_end = kNoCap;
    std::uint32_t end = kNoCap;
    std::uint32_t mark = 0;
  };

  void fixpoint() {
    std::uint32_t delta_begin = 0;  // first atom derived by the last round
    bool first_round = true;
    while (true) {
      ++iterations_;
      const auto round_begin = static_cast<std::uint32_t>(store_.size());
      if (first_round || !opts_.semi_naive) {
        // Full instantiation of every rule against the current store (the
        // only mode of the naive reference path; round one of semi-naive).
        for (PreparedRule& pr : prepared_) {
          if (pr.pos.empty() && !first_round) continue;
          if (first_round) {
            pr.first_seen = static_cast<std::uint32_t>(store_.size());
          }
          Bindings b;
          auto t0 = profile_begin(pr.rule_index);
          instantiate_at(pr, b, 0, Window{}, false);
          profile_end(pr.rule_index, t0);
        }
      } else {
        // Semi-naive: the delta is the atoms of the last round, sequence
        // numbers [delta_begin, round_begin); a rule re-fires only through a
        // pivot literal matching a delta atom.  Literals before the pivot
        // join atoms older than the delta and literals after it atoms no
        // newer than the delta, so a combination whose newest atom came from
        // round m fires exactly once -- in round m+1, with the pivot on its
        // first position holding a round-m atom.  Round one instantiated
        // each rule against every atom below its first_seen mark, so a
        // combination fires only if it holds an atom at or above that mark
        // (this only bites in round two: later deltas lie above every
        // mark).  A rule that matched its own round-one output re-derives
        // those combinations here; the content dedup drops them.
        for (PreparedRule& pr : prepared_) {
          const std::size_t n = pr.pos.size();
          if (n == 0) continue;
          Window w{0, delta_begin, round_begin, pr.first_seen};
          for (std::size_t pivot = 0; pivot < n; ++pivot) {
            const std::vector<Term>& atoms = store_.all(pr.pos_sigs[pivot]);
            // With no literal after the pivot, a delta atom below the mark
            // can only complete combinations round one already saw.
            std::uint32_t lo = pivot + 1 == n
                                   ? std::max(delta_begin, pr.first_seen)
                                   : delta_begin;
            auto [first, last] = store_.slice(atoms, lo, round_begin);
            if (first == last) continue;
            w.pivot = pivot;
            auto t0 = profile_begin(pr.rule_index);
            for (std::size_t di = first; di < last; ++di) {
              Term d = atoms[di];
              Bindings b;
              if (!match(pr.pos[pivot]->atom, d, b)) continue;
              matched_[pivot] = d;
              instantiate_at(pr, b, 0, w, store_.seq(d) < w.mark);
            }
            profile_end(pr.rule_index, t0);
          }
        }
      }
      if (store_.size() == round_begin) break;
      delta_begin = round_begin;
      first_round = false;
    }
  }

  /// Backtracking join over pr.pos from position `i` under window `w`;
  /// `owed` is set while the partial match holds no atom at or above
  /// w.mark.  Each matched atom is kept in matched_ at its join position.
  void instantiate_at(PreparedRule& pr, Bindings& b, std::size_t i,
                      const Window& w, bool owed) {
    if (i == w.pivot) ++i;
    if (i == pr.pos.size()) {
      finish_instance(pr, b);
      return;
    }
    // A pivot in last place never starts owing (see fixpoint), so the
    // literal in last place is the one that must pay a debt.
    std::uint32_t lo = owed && i + 1 == pr.pos.size() ? w.mark : 0;
    std::uint32_t hi = i < w.pivot ? w.old_end : w.end;
    match_literal(pr.pos[i]->atom, b, lo, hi, [&](Bindings& nb, Term atom) {
      matched_[i] = atom;
      instantiate_at(pr, nb, i + 1, w, owed && store_.seq(atom) < w.mark);
    });
  }

  /// Enumerate ground atoms matching `pattern` under `b` whose sequence
  /// numbers lie in [lo, hi), invoking `k` with the extended bindings and
  /// the matched atom for each.  The candidate list may grow while the
  /// continuation runs (self-recursive predicates); only the prefix present
  /// at entry is visited, matching one semi-naive round.
  template <typename K>
  void match_literal(Term pattern, Bindings& b, std::uint32_t lo,
                     std::uint32_t hi, K&& k) {
    Term inst = substitute(pattern, b);
    if (inst.is_ground()) {
      if (join_slot_) ++*join_slot_;
      if (store_.contains(inst) && store_.seq(inst) >= lo &&
          store_.seq(inst) < hi) {
        k(b, inst);
      }
      return;
    }
    SigId sig = inst.sig();
    const std::vector<Term>* candidates = nullptr;
    if (store_.use_indexes() && inst.kind() == TermKind::Fun) {
      // Probe every ground argument position and scan the smallest bucket —
      // selectivity varies wildly between positions (e.g. a package name vs
      // a near-constant flag) and each extra probe is one hash lookup.
      std::span<const Term> args = inst.args();
      for (std::size_t p = 0; p < args.size(); ++p) {
        if (!args[p].is_ground()) continue;
        const std::vector<Term>& bucket = store_.lookup(sig, p, args[p]);
        if (candidates == nullptr || bucket.size() < candidates->size()) {
          candidates = &bucket;
          if (candidates->empty()) break;
        }
      }
    }
    if (candidates == nullptr) candidates = &store_.all(sig);
    auto [first, last] = store_.slice(*candidates, lo, hi);
    if (join_slot_) *join_slot_ += last - first;
    std::size_t mark = b.size();
    for (std::size_t i = first; i < last; ++i) {
      Term cand = (*candidates)[i];
      if (match(inst, cand, b)) k(b, cand);
      b.truncate(mark);
    }
  }

  /// Ground a negative literal under complete bindings.
  static Term ground_negative(const Literal& l, const Bindings& b) {
    Term g = substitute(l.atom, b);
    if (!g.is_ground()) {
      throw AspError("negative literal not ground after join: " +
                     g.str_repr());
    }
    return g;
  }

  /// Ground literals in literal order: positive ones are the atoms the join
  /// matched (slots index matched_), negative ones are substituted.  Rule
  /// order (not join order) keeps the emitted bodies — and the
  /// choice-grouping keys below — independent of the join planner.
  std::vector<Literal> ground_lits(const std::vector<Literal>& lits,
                                   const std::vector<std::uint32_t>& slots,
                                   const Bindings& b) const {
    std::vector<Literal> out;
    out.reserve(lits.size());
    for (std::size_t j = 0; j < lits.size(); ++j) {
      const Literal& l = lits[j];
      Term atom = l.positive ? matched_[slots[j]] : ground_negative(l, b);
      out.push_back({atom, l.positive});
    }
    return out;
  }

  void finish_instance(PreparedRule& pr, Bindings& b) {
    const Rule& r = *pr.rule;
    // Evaluate comparisons.
    for (const Comparison& c : r.comparisons) {
      Comparison g{c.op, substitute(c.lhs, b), substitute(c.rhs, b)};
      if (!eval_comparison(g)) return;
    }
    if (pr.elem >= 0) {
      finish_element(pr, b);
      return;
    }
    std::vector<Literal> body = ground_lits(r.body, pr.body_slot, b);

    switch (r.head.kind) {
      case Head::Kind::Atom: {
        Term head = substitute(r.head.atom, b);
        if (pr.dedup && !first_rule_instance(head, body)) return;
        if (gprof_) ++gprof_->per_rule[pr.rule_index].instantiations;
        if (store_.add(head)) {
          record_atom_origin(head, static_cast<std::uint32_t>(pr.rule_index),
                             &b);
        }
        instances_.push_back(Instance{&r, head, std::move(body)});
        record_instance_origin(inst_origin_, pr.rule_index, b);
        break;
      }
      case Head::Kind::None: {
        if (pr.dedup && !first_rule_instance(Term(), body)) return;
        if (gprof_) ++gprof_->per_rule[pr.rule_index].instantiations;
        instances_.push_back(Instance{&r, Term(), std::move(body)});
        record_instance_origin(inst_origin_, pr.rule_index, b);
        break;
      }
      case Head::Kind::Choice: {
        if (pr.dedup && !first_choice_instance(pr.rule_index, body)) return;
        if (gprof_) ++gprof_->per_rule[pr.rule_index].instantiations;
        choice_instances_.push_back(
            ChoiceInstance{&r, pr.rule_index, std::move(body)});
        record_instance_origin(choice_inst_origin_, pr.rule_index, b);
        break;
      }
    }
  }

  // -- content dedup (rules without a uniqueness proof) ---------------------

  /// Whether no equal normal-rule or constraint instance was recorded yet;
  /// records this one, which the caller must then append to instances_.
  bool first_rule_instance(Term head, const std::vector<Literal>& body) {
    ++dedup_probes_;
    Hasher h;
    h.field_u64(head.valid() ? head.id() : 0xffffffffu);
    hash_body(h, body);
    return seen_rules_.insert(
        h.lo() ^ h.hi(), static_cast<std::uint32_t>(instances_.size()),
        [&](std::uint32_t j) {
          const Instance& other = instances_[j];
          return other.head == head && same_lits(other.body, body);
        });
  }

  bool first_choice_instance(std::size_t rule_index,
                             const std::vector<Literal>& body) {
    ++dedup_probes_;
    Hasher h;
    h.field_u64(rule_index);
    hash_body(h, body);
    return seen_choices_.insert(
        h.lo() ^ h.hi(), static_cast<std::uint32_t>(choice_instances_.size()),
        [&](std::uint32_t j) {
          const ChoiceInstance& other = choice_instances_[j];
          return other.rule_index == rule_index &&
                 same_lits(other.body, body);
        });
  }

  bool first_elem_instance(const ElemInstance& e) {
    ++dedup_probes_;
    Hasher h;
    h.field_u64(e.rule_index);
    h.field_u64(static_cast<std::uint64_t>(e.elem));
    h.field_u64(e.atom.id());
    hash_body(h, e.body);
    h.field_u64(0x7c);  // body | condition separator
    hash_body(h, e.condition);
    return seen_elems_.insert(
        h.lo() ^ h.hi(), static_cast<std::uint32_t>(elem_instances_.size()),
        [&](std::uint32_t j) {
          const ElemInstance& other = elem_instances_[j];
          return other.rule_index == e.rule_index && other.elem == e.elem &&
                 other.atom == e.atom && same_lits(other.body, e.body) &&
                 same_lits(other.condition, e.condition);
        });
  }

  // -- provenance recording (no-ops unless record_provenance) ---------------

  void record_atom_origin(Term atom, std::uint32_t rule_index,
                          const Bindings* b) {
    if (!prov_) return;
    Provenance::Origin o;
    o.rule_index = rule_index;
    if (b != nullptr) o.bindings = b->entries();
    prov_->atom_origin.emplace(atom.id(), std::move(o));
  }

  void record_instance_origin(std::vector<Provenance::Origin>& dest,
                              std::size_t rule_index, const Bindings& b) {
    if (!prov_) return;
    Provenance::Origin o;
    o.rule_index = static_cast<std::uint32_t>(rule_index);
    o.bindings = b.entries();
    dest.push_back(std::move(o));
  }

  /// Complete match of a choice-element pseudo-rule: record the ground
  /// element keyed by its owning rule instance's ground body.
  void finish_element(PreparedRule& pr, Bindings& b) {
    const Rule& r = *pr.rule;
    const ChoiceElement& e = r.head.elements[static_cast<std::size_t>(pr.elem)];
    Term atom = substitute(e.atom, b);
    if (!atom.is_ground()) {
      throw AspError("choice element atom not ground: " + atom.str_repr());
    }
    ElemInstance inst{pr.rule_index, pr.elem, atom,
                      ground_lits(r.body, pr.body_slot, b),
                      ground_lits(e.condition, pr.cond_slot, b)};
    if (pr.dedup && !first_elem_instance(inst)) return;
    if (gprof_) ++gprof_->per_rule[pr.rule_index].instantiations;
    if (store_.add(atom)) {
      record_atom_origin(atom, static_cast<std::uint32_t>(pr.rule_index), &b);
    }
    elem_instances_.push_back(std::move(inst));
  }

  template <typename K>
  void enumerate_condition(const std::vector<const Literal*>& pos,
                           std::size_t i, Bindings& b, K&& k) {
    if (i == pos.size()) {
      k();
      return;
    }
    match_literal(pos[i]->atom, b, 0, kNoCap, [&](Bindings&, Term) {
      enumerate_condition(pos, i + 1, b, k);
    });
  }

  // -- certainty -----------------------------------------------------------

  /// Deterministic least-fixpoint closure of the certain set over the final
  /// instance list: a head is certain when every body literal is certainly
  /// true (positive & certain, or negative & impossible).  Running this as a
  /// post-pass — instead of tracking certainty incrementally during the
  /// fixpoint — makes the result independent of instantiation order, so the
  /// optimized and reference grounders emit identical programs.
  void certain_closure() {
    bool changed = true;
    while (changed) {
      changed = false;
      for (const Instance& inst : instances_) {
        if (inst.rule->head.kind != Head::Kind::Atom) continue;
        if (certain_.test(inst.head)) continue;
        bool all_true = true;
        for (const Literal& l : inst.body) {
          bool lit_true = l.positive ? certain_.test(l.atom)
                                     : !store_.contains(l.atom);
          if (!lit_true) {
            all_true = false;
            break;
          }
        }
        if (all_true) {
          certain_.set(inst.head);
          certain_list_.push_back(inst.head);
          changed = true;
        }
      }
    }
  }

  // -- emission ------------------------------------------------------------

  /// Resolve a symbolic ground literal against the final possible/certain
  /// sets.  Returns: 1 literal true (drop it), -1 literal false (drop rule),
  /// 0 keep.
  int resolve(const Literal& l) const {
    bool poss = store_.contains(l.atom);
    bool cert = certain_.test(l.atom);
    if (l.positive) {
      if (cert) return 1;
      if (!poss) return -1;
      return 0;
    }
    if (cert) return -1;
    if (!poss) return 1;
    return 0;
  }

  /// Resolve a full body; returns false when the body is unsatisfiable.
  bool resolve_body(const std::vector<Literal>& in, GroundProgram& out,
                    std::vector<GLit>& lits) const {
    for (const Literal& l : in) {
      int r = resolve(l);
      if (r == -1) return false;
      if (r == 1) continue;
      lits.push_back({out.intern_atom(l.atom), l.positive});
    }
    return true;
  }

  void emit(GroundProgram& out) {
    for (Term t : certain_list_) out.facts.push_back(out.intern_atom(t));

    // Instance/choice origins are recorded in lockstep with instances_ /
    // choice_instances_, so the emission loops below re-align them with the
    // *emitted* rule/choice indexes (instances skipped here drop out).
    for (std::size_t ii = 0; ii < instances_.size(); ++ii) {
      const Instance& inst = instances_[ii];
      const Rule& r = *inst.rule;
      if (r.head.kind == Head::Kind::Atom && certain_.test(inst.head)) {
        continue;  // already a fact
      }
      std::vector<GLit> body;
      if (!resolve_body(inst.body, out, body)) continue;
      GRule gr;
      gr.has_head = r.head.kind == Head::Kind::Atom;
      if (gr.has_head) gr.head = out.intern_atom(inst.head);
      gr.body = std::move(body);
      out.rules.push_back(std::move(gr));
      if (prov_) prov_->rule_origin.push_back(inst_origin_[ii]);
      if (gprof_) {
        // Instances point into program_.rules(), so the source index is
        // recoverable without provenance.
        ++gprof_->per_rule[static_cast<std::size_t>(
                               inst.rule - program_.rules().data())]
              .emitted_rules;
      }
    }

    // Attach ground elements to their owning choice instance by matching
    // (rule, ground body).  Element instances were produced by per-element
    // pseudo-rules, so each carries its rule body grounding as the join key.
    auto body_sig = [](std::size_t rule_index,
                       const std::vector<Literal>& body) {
      std::string k = std::to_string(rule_index);
      for (const Literal& l : body) {
        k += l.positive ? '+' : '-';
        k += std::to_string(l.atom.id());
      }
      return k;
    };
    std::unordered_map<std::string, std::vector<const ElemInstance*>>
        elems_by_body;
    for (const ElemInstance& ei : elem_instances_) {
      elems_by_body[body_sig(ei.rule_index, ei.body)].push_back(&ei);
    }
    for (std::size_t ci_i = 0; ci_i < choice_instances_.size(); ++ci_i) {
      const ChoiceInstance& ci = choice_instances_[ci_i];
      const Rule& r = *ci.rule;
      std::vector<GLit> body;
      if (!resolve_body(ci.body, out, body)) continue;
      if (prov_) prov_->choice_origin.push_back(choice_inst_origin_[ci_i]);
      GChoice gc;
      gc.lower = r.head.lower;
      gc.upper = r.head.upper;
      gc.body = std::move(body);
      auto it = elems_by_body.find(body_sig(ci.rule_index, ci.body));
      if (it != elems_by_body.end()) {
        for (const ElemInstance* ei : it->second) {
          std::vector<GLit> cond;
          if (!resolve_body(ei->condition, out, cond)) continue;
          GChoiceElem ge;
          ge.atom = out.intern_atom(ei->atom);
          ge.condition = std::move(cond);
          gc.elements.push_back(std::move(ge));
        }
      }
      out.choices.push_back(std::move(gc));
      if (gprof_) ++gprof_->per_rule[ci.rule_index].emitted_choices;
    }

    emit_minimize(out);
  }

  void emit_minimize(GroundProgram& out) {
    auto t0 = std::chrono::steady_clock::now();
    if (gprof_) join_slot_ = &gprof_->minimize_join_candidates;
    // Ground each minimize element's condition, then group by
    // (weight, priority, tuple) so duplicate tuples contribute once.
    std::map<std::tuple<std::int64_t, std::int64_t, std::string>,
             std::vector<std::vector<GLit>>>
        groups;
    for (const MinimizeElement& m : program_.minimizes()) {
      std::vector<const Literal*> pos;
      std::vector<const Literal*> neg;
      for (const Literal& l : m.condition) (l.positive ? pos : neg).push_back(&l);
      Bindings b;
      enumerate_condition(pos, 0, b, [&]() {
        std::vector<Literal> cond;
        for (const Literal* l : pos) cond.push_back({substitute(l->atom, b), true});
        for (const Literal* l : neg) cond.push_back({substitute(l->atom, b), false});
        std::vector<GLit> lits;
        if (!resolve_body(cond, out, lits)) return;
        Term wt = substitute(m.weight, b);
        if (wt.kind() != TermKind::Int || wt.int_value() < 0) {
          throw AspError("minimize weight must ground to a non-negative integer, got " +
                         wt.str_repr());
        }
        std::string tuple;
        for (Term t : m.tuple) tuple += substitute(t, b).str_repr() + ",";
        groups[{wt.int_value(), m.priority, tuple}].push_back(std::move(lits));
      });
    }
    for (auto& [key, conds] : groups) {
      GMinTerm term;
      term.weight = std::get<0>(key);
      term.priority = std::get<1>(key);
      term.tuple_repr = std::get<2>(key);
      // A tuple with any empty (trivially true) condition is a constant cost;
      // it still participates so that reported costs match ASP semantics.
      term.conditions = std::move(conds);
      out.minimize.push_back(std::move(term));
    }
    if (gprof_) {
      join_slot_ = nullptr;
      gprof_->minimize_seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count();
    }
  }

  const Program& program_;
  GroundOptions opts_;
  std::vector<PreparedRule> prepared_;
  std::unordered_set<const Rule*> consumed_;  // facts turned into seeds
  AtomStore store_;                           // membership == "possible"
  TermFlags certain_;
  std::vector<Term> certain_list_;
  // Content dedup, one set per instance vector (see first_rule_instance).
  KeyedIndexSet seen_rules_;
  KeyedIndexSet seen_choices_;
  KeyedIndexSet seen_elems_;
  std::uint64_t dedup_probes_ = 0;
  std::vector<Instance> instances_;
  std::vector<ChoiceInstance> choice_instances_;
  std::vector<ElemInstance> elem_instances_;
  std::shared_ptr<Provenance> prov_;  // null unless record_provenance
  std::shared_ptr<GroundProfile> gprof_;  // null unless profile
  // While non-null, match_literal adds its candidate-scan work here; the
  // fixpoint points it at the active rule's counter (profile_begin/_end).
  std::uint64_t* join_slot_ = nullptr;
  std::vector<Provenance::Origin> inst_origin_;         // || instances_
  std::vector<Provenance::Origin> choice_inst_origin_;  // || choice_instances_
  // The atom each join position matched, for the join in progress
  // (sized to the longest positive body in prepare_rules).
  std::vector<Term> matched_;
  std::size_t iterations_ = 0;
};

}  // namespace

GroundProgram ground(const Program& program, const GroundOptions& opts) {
  return Grounder(program, opts).run();
}

GroundProgram ground_reference(const Program& program) {
  return Grounder(program, GroundOptions::reference()).run();
}

json::Value GroundStats::to_json() const {
  json::Object o;
  o["possible_atoms"] = static_cast<std::int64_t>(possible_atoms);
  o["certain_atoms"] = static_cast<std::int64_t>(certain_atoms);
  o["rules"] = static_cast<std::int64_t>(rules);
  o["choices"] = static_cast<std::int64_t>(choices);
  o["iterations"] = static_cast<std::int64_t>(iterations);
  o["provenance_bytes"] = static_cast<std::int64_t>(provenance_bytes);
  o["seconds"] = seconds;
  return json::Value(std::move(o));
}

std::size_t Provenance::approx_bytes() const {
  auto origin_bytes = [](const Origin& o) {
    return sizeof(Origin) + o.bindings.capacity() * sizeof(o.bindings[0]);
  };
  std::size_t total = 0;
  for (const Origin& o : rule_origin) total += origin_bytes(o);
  for (const Origin& o : choice_origin) total += origin_bytes(o);
  for (const auto& [id, o] : atom_origin) {
    // ~3 words of unordered_map node overhead per entry beyond the payload.
    total += sizeof(id) + origin_bytes(o) + 3 * sizeof(void*);
  }
  return total;
}

}  // namespace splice::asp
