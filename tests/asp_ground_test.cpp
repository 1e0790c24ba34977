// Unit tests for the grounder: instantiation, negation resolution, choice
// grounding, and minimize grouping.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/asp/ground.hpp"
#include "src/asp/parser.hpp"
#include "src/support/flight.hpp"
#include "src/support/trace.hpp"

namespace splice::asp {
namespace {

bool has_fact(const GroundProgram& gp, const std::string& text) {
  Term t = parse_term_text(text);
  auto id = gp.find_atom(t);
  if (!id) return false;
  return std::find(gp.facts.begin(), gp.facts.end(), *id) != gp.facts.end();
}

TEST(Ground, FactsAreCertain) {
  GroundProgram gp = ground(parse_program("a. b. c :- a, b."));
  EXPECT_TRUE(has_fact(gp, "a"));
  EXPECT_TRUE(has_fact(gp, "b"));
  // c is derived from certain facts by a negation-free rule: also certain.
  EXPECT_TRUE(has_fact(gp, "c"));
  EXPECT_EQ(gp.rules.size(), 0u);  // everything simplified away
}

TEST(Ground, JoinProducesAllInstances) {
  GroundProgram gp = ground(parse_program(R"(
    edge(a, b). edge(b, c). edge(c, d).
    path(X, Y) :- edge(X, Y).
    path(X, Z) :- path(X, Y), edge(Y, Z).
  )"));
  // path closure: ab bc cd ac bd ad = 6 atoms, all certain.
  int count = 0;
  for (AtomId f : gp.facts) {
    if (gp.atom_term(f).signature() == "path/2") ++count;
  }
  EXPECT_EQ(count, 6);
}

TEST(Ground, NegationAgainstImpossibleAtomIsTrue) {
  GroundProgram gp = ground(parse_program(R"(
    a.
    b :- a, not c.
  )"));
  // c is impossible, so `not c` resolves true, the body fully simplifies,
  // and b is promoted to a fact (no solver-level rule remains).
  EXPECT_EQ(gp.rules.size(), 0u);
  EXPECT_TRUE(has_fact(gp, "b"));
}

TEST(Ground, NegationAgainstCertainAtomDropsRule) {
  GroundProgram gp = ground(parse_program(R"(
    a.
    b :- not a.
  )"));
  EXPECT_EQ(gp.rules.size(), 0u);
  EXPECT_FALSE(has_fact(gp, "b"));
  EXPECT_FALSE(gp.find_atom(Term::sym("b")).has_value());
}

TEST(Ground, NegationAgainstPossibleAtomSurvives) {
  GroundProgram gp = ground(parse_program(R"(
    { a }.
    b :- not a.
  )"));
  ASSERT_EQ(gp.rules.size(), 1u);
  ASSERT_EQ(gp.rules[0].body.size(), 1u);
  EXPECT_FALSE(gp.rules[0].body[0].positive);
}

TEST(Ground, ComparisonFiltersInstances) {
  GroundProgram gp = ground(parse_program(R"(
    v(1). v(2). v(3).
    small(X) :- v(X), X < 3.
  )"));
  EXPECT_TRUE(has_fact(gp, "small(1)"));
  EXPECT_TRUE(has_fact(gp, "small(2)"));
  EXPECT_FALSE(gp.find_atom(parse_term_text("small(3)")).has_value());
}

TEST(Ground, StringComparisonUsesTermOrder) {
  GroundProgram gp = ground(parse_program(R"(
    h("abc"). h("abd").
    distinct(X, Y) :- h(X), h(Y), X != Y.
  )"));
  EXPECT_TRUE(has_fact(gp, R"(distinct("abc", "abd"))"));
  EXPECT_FALSE(gp.find_atom(parse_term_text(R"(distinct("abc", "abc"))")).has_value());
}

TEST(Ground, ChoiceElementsGroundedPerCondition) {
  GroundProgram gp = ground(parse_program(R"(
    node(n1). node(n2).
    opt(n1, a). opt(n1, b). opt(n2, c).
    1 { pick(N, O) : opt(N, O) } 1 :- node(N).
  )"));
  ASSERT_EQ(gp.choices.size(), 2u);
  std::size_t total_elems = gp.choices[0].elements.size() +
                            gp.choices[1].elements.size();
  EXPECT_EQ(total_elems, 3u);
  for (const GChoice& c : gp.choices) {
    EXPECT_EQ(c.lower, 1);
    EXPECT_EQ(c.upper, 1);
  }
}

TEST(Ground, RecursionThroughDerivedAtoms) {
  GroundProgram gp = ground(parse_program(R"(
    start(a).
    link(a, b). link(b, c). link(c, d). link(d, e).
    on(X) :- start(X).
    on(Y) :- on(X), link(X, Y).
  )"));
  for (const char* n : {"a", "b", "c", "d", "e"}) {
    EXPECT_TRUE(has_fact(gp, std::string("on(") + n + ")")) << n;
  }
  EXPECT_GE(gp.stats.iterations, 3u);  // took multiple semi-naive rounds
}

TEST(Ground, MinimizeGroupsByTuple) {
  GroundProgram gp = ground(parse_program(R"(
    { b1 ; b2 }.
    cost(x) :- b1.
    cost(x) :- b2.
    cost(y) :- b2.
    #minimize { 5@1, T : cost(T) }.
  )"));
  // Two distinct tuples (x and y), each with a single condition atom; how
  // cost(x) gets derived (via b1 or b2) is rule-level, not objective-level.
  ASSERT_EQ(gp.minimize.size(), 2u);
  std::size_t conds = gp.minimize[0].conditions.size() +
                      gp.minimize[1].conditions.size();
  EXPECT_EQ(conds, 2u);
  for (const GMinTerm& m : gp.minimize) {
    EXPECT_EQ(m.weight, 5);
    EXPECT_EQ(m.priority, 1);
  }
}

TEST(Ground, RuleWithOnlyNegativeBody) {
  GroundProgram gp = ground(parse_program(R"(
    { blocker }.
    go :- not blocker.
  )"));
  ASSERT_EQ(gp.rules.size(), 1u);
  EXPECT_EQ(gp.atom_term(gp.rules[0].head), Term::sym("go"));
}

TEST(Ground, ConstraintInstancesEmitted) {
  GroundProgram gp = ground(parse_program(R"(
    { p(a) ; p(b) }.
    :- p(a), p(b).
  )"));
  ASSERT_EQ(gp.rules.size(), 1u);
  EXPECT_FALSE(gp.rules[0].has_head);
  EXPECT_EQ(gp.rules[0].body.size(), 2u);
}

TEST(Ground, DuplicateRuleInstancesDeduplicated) {
  GroundProgram gp = ground(parse_program(R"(
    a(x). b(x).
    { c }.
    d :- a(X), not c.
    d :- b(X), not c.
  )"));
  // Both rules instantiate to `d :- not c` modulo the positive certain atom;
  // after simplification they collapse into at most 2 distinct rules with
  // head d and identical bodies -- the grounder dedups identical instances.
  int d_rules = 0;
  for (const GRule& r : gp.rules) {
    if (r.has_head && gp.atom_term(r.head) == Term::sym("d")) ++d_rules;
  }
  EXPECT_EQ(d_rules, 2);  // distinct before simplification (a(x) vs b(x) both certain)
}

TEST(Ground, LargeFactBaseScales) {
  // ~20k facts joined pairwise through an indexed join should ground fast;
  // this is a smoke guard against accidental quadratic scans.
  std::string text;
  for (int i = 0; i < 2000; ++i) {
    text += "owner(p" + std::to_string(i) + ", h" + std::to_string(i % 50) + ").\n";
  }
  text += "same_host(X, Y) :- owner(X, H), owner(Y, H), X != Y.\n";
  Program p = parse_program(text);
  GroundProgram gp = ground(p);
  // 50 hosts x 40 packages each => 40*39 ordered pairs per host.
  int count = 0;
  for (AtomId f : gp.facts) {
    if (gp.atom_term(f).signature() == "same_host/2") ++count;
  }
  EXPECT_EQ(count, 50 * 40 * 39);
}

// ---- exact semi-naive evaluation ------------------------------------------

/// Ground rules as sorted "head :- body" strings (bodies sorted too), so
/// two programs compare equal modulo atom and rule order and duplicates
/// stay visible.
std::vector<std::string> rule_texts(const GroundProgram& gp) {
  std::vector<std::string> out;
  for (const GRule& r : gp.rules) {
    std::vector<std::string> body;
    for (const GLit& l : r.body) {
      body.push_back((l.positive ? "" : "not ") +
                     gp.atom_term(l.atom).str_repr());
    }
    std::sort(body.begin(), body.end());
    std::string text = r.has_head ? gp.atom_term(r.head).str_repr() : "";
    text += " :-";
    for (const std::string& b : body) text += " " + b;
    out.push_back(std::move(text));
  }
  std::sort(out.begin(), out.end());
  return out;
}

GroundProgram ground_profiled(const Program& p) {
  GroundOptions opts;
  opts.profile = true;
  return ground(p, opts);
}

TEST(Ground, PairwiseConstraintOverMidRoundOneAtomsScansEachPairOnce) {
  // The pick/1 atoms are choice elements derived in round one, before the
  // constraint is instantiated, so round one already completes every pair.
  // Round two must not pass over those pairs again: the constraint scans
  // n candidates for its outer literal and n for each inner one, nothing
  // more (a round-stamped semi-naive pass scans ~3n^2).
  constexpr std::uint64_t n = 40;
  std::string text;
  for (std::uint64_t i = 1; i <= n; ++i) {
    text += "item(" + std::to_string(i) + ").\n";
  }
  text += "{ pick(X) : item(X) }.\n";
  text += ":- pick(X), pick(Y), X < Y.\n";
  Program p = parse_program(text);
  const std::size_t constraint = p.rules().size() - 1;
  ASSERT_EQ(p.rules()[constraint].head.kind, Head::Kind::None);

  GroundProgram gp = ground_profiled(p);
  ASSERT_NE(gp.profile, nullptr);
  const GroundProfile::RuleCost& cost = gp.profile->per_rule[constraint];
  EXPECT_EQ(cost.join_candidates, n * n + n);
  EXPECT_EQ(cost.instantiations, n * (n - 1) / 2);
  EXPECT_EQ(cost.emitted_rules, n * (n - 1) / 2);
  EXPECT_EQ(rule_texts(gp), rule_texts(ground_reference(p)));
}

TEST(Ground, SelfFeedingRecursionMatchesReferenceWithoutDuplicates) {
  // The recursive rule joins edge/2 first, then path/2 through the index
  // on its first argument.  Edges come out in the order cd, bc, ab, so in
  // round one the rule derives path(b,d) from edge(b,c) and then already
  // matches it for edge(a,b): it sees its own round-one output, and round
  // two re-derives that join.  The instance must still be emitted once.
  Program p = parse_program(R"(
    { edge(c, d); edge(b, c); edge(a, b) }.
    path(X, Y) :- edge(X, Y).
    path(X, Z) :- edge(X, Y), path(Y, Z).
  )");
  GroundProgram gp = ground_profiled(p);
  std::vector<std::string> rules = rule_texts(gp);
  EXPECT_EQ(std::adjacent_find(rules.begin(), rules.end()), rules.end())
      << "duplicate ground rule";
  EXPECT_EQ(rules, rule_texts(ground_reference(p)));
  // Three edges, three direct paths, and bd, ac, ad through recursion.
  EXPECT_EQ(rules.size(), 6u);
  ASSERT_NE(gp.profile, nullptr);
  EXPECT_EQ(gp.profile->per_rule[2].instantiations, 3u);
  EXPECT_EQ(gp.stats.iterations, 2u);
  // Only the rule that reads what it derives keeps the dedup set.
  EXPECT_FALSE(gp.profile->per_rule[1].dedup);
  EXPECT_TRUE(gp.profile->per_rule[2].dedup);
}

// ---- uniqueness proof: which instances skip the dedup set -----------------

/// The ground.dedup_probes count one grounding of `p` records: the
/// instances that went through the content dedup set.
std::int64_t dedup_probes(const Program& p, const GroundOptions& opts) {
  flight::Recorder::global().set_enabled(true);
  trace::MetricsRegistry& m = trace::Tracer::global().metrics();
  const std::int64_t before = m.counter("ground.dedup_probes");
  ground(p, opts);
  return m.counter("ground.dedup_probes") - before;
}

TEST(Ground, SameShapeRulesEmitASharedInstanceOnce) {
  // Each pair is one rule written twice, with its variables renamed or,
  // for the ground pair, verbatim: every instance of one is an instance of
  // the other, and only the dedup set can tell.  All six rules must keep
  // it; the last rule shares the ground pair's shape but not its
  // constants, so it cannot collide with them.
  Program p = parse_program(R"(
    { p(a) ; p(b) ; r(a) }.
    q(X) :- p(X), not r(X).
    q(Y) :- p(Y), not r(Y).
    :- q(X), p(X).
    :- q(Z), p(Z).
    s(a) :- p(a).
    s(a) :- p(a).
    s(b) :- p(b).
  )");
  GroundProgram gp = ground_profiled(p);
  std::vector<std::string> rules = rule_texts(gp);
  EXPECT_EQ(std::adjacent_find(rules.begin(), rules.end()), rules.end())
      << "duplicate ground rule";
  EXPECT_EQ(rules, rule_texts(ground_reference(p)));
  // q(a), q(b), one constraint for each, s(a) and s(b).
  EXPECT_EQ(rules.size(), 6u);
  ASSERT_NE(gp.profile, nullptr);
  for (std::size_t ri = 1; ri <= 6; ++ri) {
    EXPECT_TRUE(gp.profile->per_rule[ri].dedup) << "rule " << ri;
  }
  EXPECT_FALSE(gp.profile->per_rule[7].dedup);
  // Two instances for each renamed rule, one for each ground twin.
  EXPECT_EQ(dedup_probes(p, {}), 4 * 2 + 2);
}

TEST(Ground, UniqueShapedConstraintSkipsTheDedupSet) {
  // The concretizer's uniqueness constraints: one shape, told apart by the
  // constant in the first argument, so neither can produce an instance of
  // the other, and neither reads what it derives.
  std::string text;
  for (int n = 0; n < 4; ++n) {
    for (int h = 0; h < 5; ++h) {
      text += "cand(n" + std::to_string(n) + ", h" + std::to_string(h) +
              ").\n";
      text += "ver(n" + std::to_string(n) + ", v" + std::to_string(h) +
              ").\n";
    }
    text += "node(n" + std::to_string(n) + ").\n";
  }
  text += R"(
    { attr(hash, N, H) : cand(N, H) } :- node(N).
    { attr(version, N, V) : ver(N, V) } :- node(N).
    :- attr(hash, N, H1), attr(hash, N, H2), H1 < H2.
    :- attr(version, N, V1), attr(version, N, V2), V1 < V2.
  )";
  Program p = parse_program(text);
  const std::size_t first_constraint = p.rules().size() - 2;
  GroundProgram gp = ground_profiled(p);
  EXPECT_EQ(rule_texts(gp), rule_texts(ground_reference(p)));
  ASSERT_NE(gp.profile, nullptr);
  for (std::size_t ri = 0; ri < p.rules().size(); ++ri) {
    EXPECT_FALSE(gp.profile->per_rule[ri].dedup) << "rule " << ri;
  }
  // 4 nodes x C(5, 2) pairs, for each constraint.
  EXPECT_EQ(gp.profile->per_rule[first_constraint].instantiations, 40u);
  EXPECT_EQ(gp.profile->per_rule[first_constraint + 1].instantiations, 40u);
  EXPECT_EQ(dedup_probes(p, {}), 0);

  // The naive path re-instantiates every round, so it proves nothing and
  // sends every instance through the set: 80 constraint instances, 8
  // choice bodies and 40 choice elements, in each of its two rounds (the
  // second derives nothing new).
  GroundOptions naive;
  naive.semi_naive = false;
  ASSERT_EQ(ground(p, naive).stats.iterations, 2u);
  EXPECT_EQ(dedup_probes(p, naive), 2 * (80 + 8 + 40));
}

}  // namespace
}  // namespace splice::asp
