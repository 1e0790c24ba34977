#include "src/asp/explain.hpp"

#include <algorithm>
#include <chrono>
#include <set>
#include <unordered_map>

#include "src/asp/translate.hpp"
#include "src/support/flight.hpp"
#include "src/support/trace.hpp"

namespace splice::asp {

namespace {

using sat::Lit;

std::string render_glit(const GroundProgram& gp, const GLit& l) {
  std::string s = l.positive ? "" : "not ";
  return s + gp.atom_term(l.atom).str_repr();
}

std::string render_body(const GroundProgram& gp, const std::vector<GLit>& body) {
  std::string out;
  for (std::size_t i = 0; i < body.size(); ++i) {
    if (i > 0) out += ", ";
    out += render_glit(gp, body[i]);
  }
  return out;
}

std::string render_constraint(const GroundProgram& gp, const GRule& r) {
  return ":- " + render_body(gp, r.body) + ".";
}

/// Render a choice rule compactly, eliding long element lists: the core
/// reader cares about the bounds and a few representative elements, not the
/// full candidate enumeration.
std::string render_choice(const GroundProgram& gp, const GChoice& c) {
  constexpr std::size_t kMaxElems = 4;
  std::string out;
  if (c.lower) out += std::to_string(*c.lower) + " ";
  out += "{ ";
  for (std::size_t i = 0; i < c.elements.size() && i < kMaxElems; ++i) {
    if (i > 0) out += "; ";
    out += gp.atom_term(c.elements[i].atom).str_repr();
  }
  if (c.elements.size() > kMaxElems) {
    out += "; ... " + std::to_string(c.elements.size() - kMaxElems) + " more";
  }
  out += " }";
  if (c.upper) out += " " + std::to_string(*c.upper);
  if (!c.body.empty()) out += " :- " + render_body(gp, c.body);
  out += ".";
  return out;
}

/// Package names mentioned by a term: node("p") wrappers anywhere in the
/// term, plus the first argument of the predicates that key on a package
/// name directly in the concretizer encoding.
void collect_packages(Term t, std::set<std::string>& out) {
  if (t.kind() != TermKind::Fun) return;
  std::string_view name = t.name();
  std::span<const Term> args = t.args();
  if (name == "node" && args.size() == 1 &&
      (args[0].kind() == TermKind::Str || args[0].kind() == TermKind::Sym)) {
    out.insert(std::string(args[0].name()));
    return;
  }
  if ((name == "pkg_fact" || name == "build" || name == "provides_now") &&
      !args.empty() &&
      (args[0].kind() == TermKind::Str || args[0].kind() == TermKind::Sym)) {
    out.insert(std::string(args[0].name()));
  }
  for (Term a : args) collect_packages(a, out);
}

void collect_body_packages(const GroundProgram& gp,
                           const std::vector<GLit>& body,
                           std::set<std::string>& out) {
  for (const GLit& l : body) collect_packages(gp.atom_term(l.atom), out);
}

/// Attach source identity to a core entry from the grounder's provenance.
void attach_source(CoreConstraint& cc, const Provenance::Origin& origin,
                   const Program& source) {
  if (origin.rule_index == Provenance::kNoRule ||
      origin.rule_index >= source.rules().size()) {
    return;
  }
  const Rule& r = source.rules()[origin.rule_index];
  cc.has_source = true;
  cc.rule_index = origin.rule_index;
  cc.source_text = r.str();
  cc.note = r.note;
  cc.loc = r.loc;
  for (const auto& [var, value] : origin.bindings) {
    cc.bindings.emplace_back(std::string(var.name()), value.str_repr());
  }
  std::sort(cc.bindings.begin(), cc.bindings.end());
}

}  // namespace

std::string_view core_kind_name(CoreConstraint::Kind k) {
  switch (k) {
    case CoreConstraint::Kind::Constraint: return "constraint";
    case CoreConstraint::Kind::ChoiceLower: return "choice_lower";
    case CoreConstraint::Kind::ChoiceUpper: return "choice_upper";
  }
  return "unknown";
}

std::string CoreConstraint::str() const {
  std::string out = note.empty() ? (has_source ? source_text : ground_text)
                                 : note;
  if (loc.known()) out += "  [at " + loc.str() + "]";
  if (!packages.empty()) {
    out += "  [packages: ";
    for (std::size_t i = 0; i < packages.size(); ++i) {
      if (i > 0) out += ", ";
      out += packages[i];
    }
    out += "]";
  }
  return out;
}

json::Value CoreConstraint::to_json() const {
  json::Object o;
  o["kind"] = std::string(core_kind_name(kind));
  o["ground_index"] = static_cast<std::int64_t>(ground_index);
  o["constraint"] = ground_text;
  json::Array pkgs;
  for (const std::string& p : packages) pkgs.emplace_back(p);
  o["packages"] = std::move(pkgs);
  json::Object src;
  src["known"] = has_source;
  if (has_source) {
    src["rule_index"] = static_cast<std::int64_t>(rule_index);
    src["rule"] = source_text;
    if (!note.empty()) src["note"] = note;
    src["line"] = static_cast<std::int64_t>(loc.line);
    src["col"] = static_cast<std::int64_t>(loc.col);
    json::Object b;
    for (const auto& [var, value] : bindings) b[var] = value;
    src["bindings"] = std::move(b);
  }
  o["source"] = std::move(src);
  return json::Value(std::move(o));
}

json::Value ExplainStats::to_json() const {
  json::Object o;
  o["guarded_constraints"] = static_cast<std::int64_t>(guarded_constraints);
  o["core_initial"] = static_cast<std::int64_t>(core_initial);
  o["core_minimized"] = static_cast<std::int64_t>(core_minimized);
  o["minimize_solves"] = static_cast<std::int64_t>(minimize_solves);
  o["core_seconds"] = core_seconds;
  o["minimize_seconds"] = minimize_seconds;
  return json::Value(std::move(o));
}

std::string UnsatExplanation::text() const {
  if (sat) {
    return "satisfiable: nothing to explain (all constraints can be met "
           "simultaneously)\n";
  }
  if (unconditional) {
    return "unsatisfiable independent of any integrity constraint or choice "
           "bound: the program's rules and completion conflict outright\n";
  }
  std::string out = "unsat core (" + std::to_string(core.size()) +
                    " constraint" + (core.size() == 1 ? "" : "s");
  if (stats.core_initial > core.size()) {
    out += ", minimized from " + std::to_string(stats.core_initial);
  }
  out += "):\n";
  for (std::size_t i = 0; i < core.size(); ++i) {
    const CoreConstraint& cc = core[i];
    out += "  " + std::to_string(i + 1) + ". " + cc.str() + "\n";
    // When the headline used the note, keep the formal forms on detail lines.
    if (!cc.note.empty() && cc.has_source) {
      out += "     rule: " + cc.source_text + "\n";
    }
    if (cc.str().find(cc.ground_text) == std::string::npos) {
      out += "     ground: " + cc.ground_text + "\n";
    }
  }
  return out;
}

json::Value UnsatExplanation::to_json() const {
  json::Object o;
  o["sat"] = sat;
  o["unconditional"] = unconditional;
  json::Array entries;
  for (const CoreConstraint& cc : core) entries.push_back(cc.to_json());
  o["core"] = std::move(entries);
  o["stats"] = stats.to_json();
  return json::Value(std::move(o));
}

UnsatExplanation explain_unsat_ground(const GroundProgram& gp,
                                      const Program* source,
                                      const ExplainOptions& opts) {
  UnsatExplanation out;
  const bool recording = flight::Recorder::global().enabled();

  Translation tr(gp, /*guard_constraints=*/true);
  out.stats.guarded_constraints = tr.guards().size();

  SolveStats scratch;
  std::vector<Lit> core;
  {
    flight::Span span("core", "explain");
    auto t0 = std::chrono::steady_clock::now();
    auto res = solve_stable(tr, tr.guards(), scratch);
    out.stats.core_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    if (res == sat::Solver::Result::Sat) {
      out.sat = true;
      return out;
    }
    if (tr.solver().in_conflict()) {
      out.unconditional = true;
      return out;
    }
    core = tr.solver().final_core();
    out.stats.core_initial = core.size();
  }
  if (recording) {
    trace::Tracer::global().metrics().add(
        "explain.core_before", static_cast<std::int64_t>(core.size()));
  }

  if (opts.minimize) {
    // Deletion-based minimization at the *stable-model* level: each probe
    // must go through solve_stable (not the raw SAT solver) so loop nogoods
    // keep the semantics exact for non-tight programs.  Same shape as
    // sat::minimize_core, with clause-set refinement via final_core().
    flight::Span span("minimize", "explain");
    auto t0 = std::chrono::steady_clock::now();
    std::size_t i = 0;
    std::uint64_t solves = 0;
    while (i < core.size()) {
      if (opts.max_minimize_solves != 0 &&
          solves >= opts.max_minimize_solves) {
        break;
      }
      std::vector<Lit> test = core;
      test.erase(test.begin() + static_cast<std::ptrdiff_t>(i));
      ++solves;
      if (solve_stable(tr, test, scratch) == sat::Solver::Result::Unsat) {
        if (tr.solver().in_conflict()) {
          out.unconditional = true;
          out.stats.minimize_solves = solves;
          return out;
        }
        core = tr.solver().final_core();
        i = 0;
      } else {
        ++i;
      }
    }
    out.stats.minimize_solves = solves;
    out.stats.minimize_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
  }
  out.stats.core_minimized = core.size();
  if (recording) {
    trace::Tracer::global().metrics().add(
        "explain.core_after", static_cast<std::int64_t>(core.size()));
  }

  // Map surviving guard literals back to constraints and, when available,
  // through the grounder's provenance to source rules.
  flight::Span span("provenance", "explain");
  std::unordered_map<Lit, std::size_t> guard_index;
  for (std::size_t gi = 0; gi < tr.guards().size(); ++gi) {
    guard_index.emplace(tr.guards()[gi], gi);
  }
  const Provenance* prov = gp.provenance.get();
  for (Lit l : core) {
    auto it = guard_index.find(l);
    if (it == guard_index.end()) continue;
    const GuardTarget& target = tr.guard_targets()[it->second];
    CoreConstraint cc;
    cc.ground_index = target.index;
    std::set<std::string> pkgs;
    const Provenance::Origin* origin = nullptr;
    if (target.kind == GuardTarget::Kind::Constraint) {
      cc.kind = CoreConstraint::Kind::Constraint;
      const GRule& r = gp.rules[target.index];
      cc.ground_text = render_constraint(gp, r);
      collect_body_packages(gp, r.body, pkgs);
      if (prov != nullptr && target.index < prov->rule_origin.size()) {
        origin = &prov->rule_origin[target.index];
      }
    } else {
      cc.kind = target.kind == GuardTarget::Kind::ChoiceLower
                    ? CoreConstraint::Kind::ChoiceLower
                    : CoreConstraint::Kind::ChoiceUpper;
      const GChoice& c = gp.choices[target.index];
      cc.ground_text = render_choice(gp, c);
      collect_body_packages(gp, c.body, pkgs);
      for (const GChoiceElem& e : c.elements) {
        collect_packages(gp.atom_term(e.atom), pkgs);
      }
      if (prov != nullptr && target.index < prov->choice_origin.size()) {
        origin = &prov->choice_origin[target.index];
      }
    }
    cc.packages.assign(pkgs.begin(), pkgs.end());
    if (origin != nullptr && source != nullptr) {
      attach_source(cc, *origin, *source);
    }
    out.core.push_back(std::move(cc));
  }
  // Deterministic report order regardless of trail/core order.
  std::sort(out.core.begin(), out.core.end(),
            [](const CoreConstraint& a, const CoreConstraint& b) {
              if (a.kind != b.kind) return a.kind < b.kind;
              return a.ground_index < b.ground_index;
            });
  return out;
}

UnsatExplanation explain_unsat(const Program& program,
                               const ExplainOptions& opts) {
  GroundOptions gopts;
  gopts.record_provenance = true;
  GroundProgram gp = ground(program, gopts);
  return explain_unsat_ground(gp, &program, opts);
}

}  // namespace splice::asp
