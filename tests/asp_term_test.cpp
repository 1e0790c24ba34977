// Unit tests for ASP term interning, matching, and substitution.
#include <gtest/gtest.h>

#include <latch>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "src/asp/term.hpp"

namespace splice::asp {
namespace {

TEST(Term, InterningGivesIdentity) {
  EXPECT_EQ(Term::sym("mpich"), Term::sym("mpich"));
  EXPECT_NE(Term::sym("mpich"), Term::sym("openmpi"));
  EXPECT_EQ(Term::integer(42), Term::integer(42));
  EXPECT_EQ(Term::fun("node", {Term::str("zlib")}),
            Term::fun("node", {Term::str("zlib")}));
  EXPECT_NE(Term::fun("node", {Term::str("zlib")}),
            Term::fun("node", {Term::str("hdf5")}));
}

TEST(Term, SymAndStrAreDistinct) {
  // `mpich` (constant) and "mpich" (string) are different terms, as in clingo.
  EXPECT_NE(Term::sym("mpich"), Term::str("mpich"));
}

TEST(Term, Kinds) {
  EXPECT_EQ(Term::integer(1).kind(), TermKind::Int);
  EXPECT_EQ(Term::sym("a").kind(), TermKind::Sym);
  EXPECT_EQ(Term::str("a").kind(), TermKind::Str);
  EXPECT_EQ(Term::var("X").kind(), TermKind::Var);
  EXPECT_EQ(Term::fun("f", {Term::sym("a")}).kind(), TermKind::Fun);
}

TEST(Term, Groundness) {
  EXPECT_TRUE(Term::sym("a").is_ground());
  EXPECT_FALSE(Term::var("X").is_ground());
  EXPECT_TRUE(Term::fun("f", {Term::sym("a"), Term::integer(1)}).is_ground());
  EXPECT_FALSE(Term::fun("f", {Term::sym("a"), Term::var("X")}).is_ground());
  EXPECT_FALSE(
      Term::fun("f", {Term::fun("g", {Term::var("Y")})}).is_ground());
}

TEST(Term, Signature) {
  EXPECT_EQ(Term::sym("node").signature(), "node/0");
  EXPECT_EQ(Term::fun("attr", {Term::sym("a"), Term::sym("b")}).signature(),
            "attr/2");
}

TEST(Term, StrRepr) {
  Term t = Term::fun("attr", {Term::str("version"),
                              Term::fun("node", {Term::str("example")}),
                              Term::str("1.1.0")});
  EXPECT_EQ(t.str_repr(), "attr(\"version\",node(\"example\"),\"1.1.0\")");
  EXPECT_EQ(Term::integer(-3).str_repr(), "-3");
  EXPECT_EQ(Term::var("Hash").str_repr(), "Hash");
}

TEST(Term, CompareIsTotalOrder) {
  std::vector<Term> terms{
      Term::integer(1),  Term::integer(2),   Term::sym("a"),
      Term::sym("b"),    Term::str("a"),     Term::var("X"),
      Term::fun("f", {Term::sym("a")}),      Term::fun("f", {Term::sym("b")}),
      Term::fun("g", {Term::sym("a")}),
      Term::fun("f", {Term::sym("a"), Term::sym("a")}),
  };
  for (Term a : terms) {
    EXPECT_EQ(Term::compare(a, a), 0);
    for (Term b : terms) {
      EXPECT_EQ(Term::compare(a, b), -Term::compare(b, a));
      for (Term c : terms) {
        // Transitivity of <=.
        if (Term::compare(a, b) <= 0 && Term::compare(b, c) <= 0) {
          EXPECT_LE(Term::compare(a, c), 0);
        }
      }
    }
  }
}

TEST(Term, MatchBindsVariables) {
  Term pattern = Term::fun("depends_on", {Term::var("P"), Term::var("C")});
  Term value = Term::fun("depends_on", {Term::str("hdf5"), Term::str("zlib")});
  Bindings b;
  ASSERT_TRUE(match(pattern, value, b));
  EXPECT_EQ(b.lookup(Term::var("P")), Term::str("hdf5"));
  EXPECT_EQ(b.lookup(Term::var("C")), Term::str("zlib"));
}

TEST(Term, MatchRespectsExistingBindings) {
  Term pattern = Term::fun("edge", {Term::var("X"), Term::var("X")});
  Bindings b;
  EXPECT_TRUE(match(pattern, Term::fun("edge", {Term::sym("a"), Term::sym("a")}), b));
  Bindings b2;
  EXPECT_FALSE(
      match(pattern, Term::fun("edge", {Term::sym("a"), Term::sym("b")}), b2));
}

TEST(Term, MatchNestedFunctions) {
  Term pattern = Term::fun("attr", {Term::str("hash"),
                                    Term::fun("node", {Term::var("Name")}),
                                    Term::var("Hash")});
  Term value = Term::fun("attr", {Term::str("hash"),
                                  Term::fun("node", {Term::str("mpich")}),
                                  Term::str("abcd1234")});
  Bindings b;
  ASSERT_TRUE(match(pattern, value, b));
  EXPECT_EQ(b.lookup(Term::var("Name")), Term::str("mpich"));
  EXPECT_EQ(b.lookup(Term::var("Hash")), Term::str("abcd1234"));
}

TEST(Term, MatchFailsOnDifferentShape) {
  Bindings b;
  EXPECT_FALSE(match(Term::fun("f", {Term::var("X")}), Term::sym("f"), b));
  EXPECT_FALSE(match(Term::sym("a"), Term::sym("b"), b));
  EXPECT_FALSE(match(Term::fun("f", {Term::var("X")}),
                     Term::fun("f", {Term::sym("a"), Term::sym("b")}), b));
}

TEST(Term, SubstituteReplacesBoundVars) {
  Bindings b;
  b.bind(Term::var("X"), Term::str("zlib"));
  Term t = Term::fun("node", {Term::var("X")});
  EXPECT_EQ(substitute(t, b), Term::fun("node", {Term::str("zlib")}));
  // Unbound variables survive.
  Term u = Term::fun("edge", {Term::var("X"), Term::var("Y")});
  Term su = substitute(u, b);
  EXPECT_FALSE(su.is_ground());
  EXPECT_EQ(su.args()[0], Term::str("zlib"));
  EXPECT_EQ(su.args()[1], Term::var("Y"));
}

TEST(Term, BindingsTruncateBacktracks) {
  Bindings b;
  b.bind(Term::var("X"), Term::sym("a"));
  std::size_t mark = b.size();
  b.bind(Term::var("Y"), Term::sym("b"));
  b.truncate(mark);
  EXPECT_FALSE(b.lookup(Term::var("Y")).valid());
  EXPECT_TRUE(b.lookup(Term::var("X")).valid());
}

TEST(Term, CollectVarsFirstOccurrenceOrder) {
  Term t = Term::fun("f", {Term::var("B"), Term::fun("g", {Term::var("A")}),
                           Term::var("B")});
  std::vector<Term> vars;
  collect_vars(t, vars);
  ASSERT_EQ(vars.size(), 2u);
  EXPECT_EQ(vars[0], Term::var("B"));
  EXPECT_EQ(vars[1], Term::var("A"));
}

// Eight threads intern the same terms in different orders, so lock-free
// probes race inserts and several index growths.  Every thread must see
// one id per distinct term, and the table must hold each term once.
TEST(Term, ConcurrentInterningIsConsistent) {
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kValues = std::size_t{1} << 14;
  constexpr std::size_t kPerValue = 5;  // str, integer, fun, fun_like, nest
  const std::size_t before = Term::interned_count();
  const std::uint64_t slow_before = Term::intern_slow_path_count();

  auto intern_value = [](std::size_t i, std::uint32_t* out) {
    Term s = Term::str("stress-" + std::to_string(i));
    Term n = Term::integer(7'000'000'000 + static_cast<std::int64_t>(i));
    Term f = Term::fun("stress_node", {s, n});
    Term g = Term::fun_like(f, std::vector<Term>{n, s});
    Term pair = Term::fun("stress_pair", {f, g});
    for (Term t : {s, n, f, g, pair}) *out++ = t.id();
  };

  std::vector<std::vector<std::uint32_t>> ids(
      kThreads, std::vector<std::uint32_t>(kValues * kPerValue));
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      for (std::size_t k = 0; k < kValues; ++k) {
        std::size_t i = (k + t * kValues / kThreads) % kValues;
        intern_value(i, &ids[t][i * kPerValue]);
      }
    });
  }
  for (std::thread& th : threads) th.join();

  for (std::size_t t = 1; t < kThreads; ++t) {
    ASSERT_EQ(ids[t], ids[0]) << "thread " << t << " saw different ids";
  }
  std::unordered_set<std::uint32_t> distinct(ids[0].begin(), ids[0].end());
  EXPECT_EQ(distinct.size(), kValues * kPerValue);
  EXPECT_EQ(Term::interned_count() - before, kValues * kPerValue);

  // Each distinct term took the lock at least once; hits never do.
  const std::uint64_t slow_after = Term::intern_slow_path_count();
  EXPECT_GE(slow_after - slow_before, kValues * kPerValue);
  std::vector<std::uint32_t> again(kValues * kPerValue);
  for (std::size_t i = 0; i < kValues; ++i) {
    intern_value(i, &again[i * kPerValue]);
  }
  EXPECT_EQ(again, ids[0]);
  EXPECT_EQ(Term::intern_slow_path_count(), slow_after);

  Term f = Term::fun("stress_node", {Term::str("stress-42"),
                                     Term::integer(7'000'000'042)});
  EXPECT_EQ(f.id(), ids[0][42 * kPerValue + 2]);
  EXPECT_EQ(f.str_repr(), "stress_node(\"stress-42\",7000000042)");
}

}  // namespace
}  // namespace splice::asp
