#include "src/asp/program.hpp"

#include <algorithm>

#include "src/support/error.hpp"

namespace splice::asp {

std::string SourceLoc::str() const {
  if (!known()) return "?";
  std::string out = file != nullptr ? std::string(file) + ":" : "";
  return out + std::to_string(line) + ":" + std::to_string(col);
}

std::string_view cmp_op_str(CmpOp op) {
  switch (op) {
    case CmpOp::Eq: return "=";
    case CmpOp::Ne: return "!=";
    case CmpOp::Lt: return "<";
    case CmpOp::Le: return "<=";
    case CmpOp::Gt: return ">";
    case CmpOp::Ge: return ">=";
  }
  return "?";
}

bool eval_comparison(const Comparison& c) {
  if (!c.lhs.is_ground() || !c.rhs.is_ground()) {
    throw AspError("comparison evaluated with unbound variables: " +
                   c.lhs.str_repr() + std::string(cmp_op_str(c.op)) +
                   c.rhs.str_repr());
  }
  int cmp = Term::compare(c.lhs, c.rhs);
  switch (c.op) {
    case CmpOp::Eq: return cmp == 0;
    case CmpOp::Ne: return cmp != 0;
    case CmpOp::Lt: return cmp < 0;
    case CmpOp::Le: return cmp <= 0;
    case CmpOp::Gt: return cmp > 0;
    case CmpOp::Ge: return cmp >= 0;
  }
  return false;
}

namespace {
std::string literal_str(const Literal& lit) {
  return lit.positive ? lit.atom.str_repr() : "not " + lit.atom.str_repr();
}

std::string body_str(const std::vector<Literal>& body,
                     const std::vector<Comparison>& cmps) {
  std::string out;
  bool first = true;
  for (const Literal& l : body) {
    if (!first) out += ", ";
    first = false;
    out += literal_str(l);
  }
  for (const Comparison& c : cmps) {
    if (!first) out += ", ";
    first = false;
    out += c.lhs.str_repr() + std::string(cmp_op_str(c.op)) + c.rhs.str_repr();
  }
  return out;
}
}  // namespace

std::string Rule::str() const {
  std::string out;
  switch (head.kind) {
    case Head::Kind::None: break;
    case Head::Kind::Atom: out += head.atom.str_repr(); break;
    case Head::Kind::Choice: {
      if (head.lower) out += std::to_string(*head.lower) + " ";
      out += "{ ";
      bool first = true;
      for (const ChoiceElement& e : head.elements) {
        if (!first) out += "; ";
        first = false;
        out += e.atom.str_repr();
        if (!e.condition.empty()) {
          out += " : ";
          out += body_str(e.condition, {});
        }
      }
      out += " }";
      if (head.upper) out += " " + std::to_string(*head.upper);
      break;
    }
  }
  if (!body.empty() || !comparisons.empty()) {
    out += " :- ";
    out += body_str(body, comparisons);
  }
  out += ".";
  return out;
}

void Program::add_rule(Rule rule) {
  check_safety(rule);
  rules_.push_back(std::move(rule));
}

void Program::add_fact(Term atom) {
  if (!atom.is_ground()) {
    throw AspError("fact must be ground: " + atom.str_repr());
  }
  Rule r;
  r.head.kind = Head::Kind::Atom;
  r.head.atom = atom;
  rules_.push_back(std::move(r));
}

void Program::add_constraint(std::vector<Literal> body, std::vector<Comparison> cmps) {
  Rule r;
  r.head.kind = Head::Kind::None;
  r.body = std::move(body);
  r.comparisons = std::move(cmps);
  add_rule(std::move(r));
}

void Program::add_minimize(MinimizeElement elem) {
  // Safety: tuple and condition variables must be bound by positive condition
  // literals.
  std::vector<Term> bound;
  for (const Literal& l : elem.condition) {
    if (l.positive) collect_vars(l.atom, bound);
  }
  auto is_bound = [&](Term v) {
    return std::find(bound.begin(), bound.end(), v) != bound.end();
  };
  std::vector<Term> used;
  collect_vars(elem.weight, used);
  for (Term t : elem.tuple) collect_vars(t, used);
  for (const Literal& l : elem.condition) {
    if (!l.positive) collect_vars(l.atom, used);
  }
  for (Term v : used) {
    if (!is_bound(v)) {
      throw AspError("unsafe variable " + std::string(v.name()) +
                         " in #minimize element",
                     elem.loc.line, elem.loc.col);
    }
  }
  minimizes_.push_back(std::move(elem));
}

void Program::extend(const Program& other) {
  rules_.insert(rules_.end(), other.rules_.begin(), other.rules_.end());
  minimizes_.insert(minimizes_.end(), other.minimizes_.begin(),
                    other.minimizes_.end());
}

void Program::check_safety(const Rule& rule) const {
  std::vector<Term> bound;
  for (const Literal& l : rule.body) {
    if (l.positive) collect_vars(l.atom, bound);
  }
  auto is_bound = [&](Term v) {
    return std::find(bound.begin(), bound.end(), v) != bound.end();
  };

  std::vector<Term> used;
  for (const Literal& l : rule.body) {
    if (!l.positive) collect_vars(l.atom, used);
  }
  for (const Comparison& c : rule.comparisons) {
    collect_vars(c.lhs, used);
    collect_vars(c.rhs, used);
  }
  switch (rule.head.kind) {
    case Head::Kind::None: break;
    case Head::Kind::Atom: collect_vars(rule.head.atom, used); break;
    case Head::Kind::Choice:
      for (const ChoiceElement& e : rule.head.elements) {
        // Element-local variables may be bound by the element's own positive
        // condition literals.
        std::vector<Term> local_bound = bound;
        for (const Literal& l : e.condition) {
          if (l.positive) collect_vars(l.atom, local_bound);
        }
        std::vector<Term> local_used;
        collect_vars(e.atom, local_used);
        for (const Literal& l : e.condition) {
          if (!l.positive) collect_vars(l.atom, local_used);
        }
        for (Term v : local_used) {
          if (std::find(local_bound.begin(), local_bound.end(), v) ==
              local_bound.end()) {
            throw AspError("unsafe variable " + std::string(v.name()) +
                               " in choice element of rule: " + rule.str(),
                           rule.loc.line, rule.loc.col);
          }
        }
      }
      break;
  }
  for (Term v : used) {
    if (!is_bound(v)) {
      throw AspError("unsafe variable " + std::string(v.name()) +
                         " in rule: " + rule.str(),
                     rule.loc.line, rule.loc.col);
    }
  }
}

std::string Program::str() const {
  std::string out;
  for (const Rule& r : rules_) {
    out += r.str();
    out += "\n";
  }
  for (const MinimizeElement& m : minimizes_) {
    out += "#minimize { " + m.weight.str_repr() + "@" +
           std::to_string(m.priority);
    for (Term t : m.tuple) out += "," + t.str_repr();
    if (!m.condition.empty()) {
      out += " : ";
      bool first = true;
      for (const Literal& l : m.condition) {
        if (!first) out += ", ";
        first = false;
        out += l.positive ? l.atom.str_repr() : "not " + l.atom.str_repr();
      }
    }
    out += " }.\n";
  }
  return out;
}

}  // namespace splice::asp
