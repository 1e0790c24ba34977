// Emission-order and search pins for the grounder and the solver.
//
// The solver breaks ties between equally good answers by variable order,
// and variable order follows the ground program's atom table.  A grounder
// change that emits the same *set* of rules in a different order (which
// the reference-vs-optimized differential tolerates) can therefore move
// which binary a splice is taken from.  This test digests the optimized
// GroundProgram in emission order -- atom table, facts, rules, choices,
// minimize -- for every RADIUSS request with splicing on and the local
// cache, and pins each digest; the same for two requests against a public
// cache.  It also pins the CDCL counters of those solves, so a solver
// change that perturbs the search (literal or watch order, the learnt
// clause database) fails here, not only in the benchmark goldens.
//
// The digests are pinned, not derived: a change that moves one must say
// why in its own commit and re-pin here, with the splice-origin goldens of
// the benchmark checked at the same time.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "src/asp/ground.hpp"
#include "src/asp/solve.hpp"
#include "src/concretize/concretizer.hpp"
#include "src/support/hash.hpp"
#include "src/workload/caches.hpp"
#include "src/workload/radiuss.hpp"

namespace splice::concretize {
namespace {

void digest_lits(Hasher& h, const std::vector<asp::GLit>& lits) {
  h.field_u64(lits.size());
  for (const asp::GLit& l : lits) {
    h.field_u64(l.atom);
    h.field_u64(l.positive ? 1 : 0);
  }
}

void digest_bound(Hasher& h, const std::optional<std::int64_t>& b) {
  h.field_u64(b ? 1 : 0);
  h.field_u64(b ? static_cast<std::uint64_t>(*b) : 0);
}

/// Order-sensitive digest of a ground program.  Atoms are hashed by their
/// text, so the digest does not depend on term-interning order.
std::string emission_digest(const asp::GroundProgram& gp) {
  Hasher h;
  h.field("atoms");
  h.field_u64(gp.num_atoms());
  for (asp::AtomId a = 0; a < gp.num_atoms(); ++a) {
    h.field(gp.atom_term(a).str_repr());
  }
  h.field("facts");
  h.field_u64(gp.facts.size());
  for (asp::AtomId f : gp.facts) h.field_u64(f);
  h.field("rules");
  h.field_u64(gp.rules.size());
  for (const asp::GRule& r : gp.rules) {
    h.field_u64(r.has_head ? 1 : 0);
    h.field_u64(r.head);
    digest_lits(h, r.body);
  }
  h.field("choices");
  h.field_u64(gp.choices.size());
  for (const asp::GChoice& c : gp.choices) {
    digest_bound(h, c.lower);
    digest_bound(h, c.upper);
    h.field_u64(c.elements.size());
    for (const asp::GChoiceElem& e : c.elements) {
      h.field_u64(e.atom);
      digest_lits(h, e.condition);
    }
    digest_lits(h, c.body);
  }
  h.field("minimize");
  h.field_u64(gp.minimize.size());
  for (const asp::GMinTerm& m : gp.minimize) {
    h.field_u64(static_cast<std::uint64_t>(m.weight));
    h.field_u64(static_cast<std::uint64_t>(m.priority));
    h.field(m.tuple_repr);
    h.field_u64(m.conditions.size());
    for (const auto& cond : m.conditions) digest_lits(h, cond);
  }
  return h.hex();
}

/// The benchmark's RADIUSS requests: "<root> ^mpiabi" for every
/// MPI-dependent root, the bare root otherwise.
std::vector<std::string> radiuss_requests() {
  std::vector<std::string> out;
  for (const std::string& root : workload::radiuss_roots()) {
    out.push_back(workload::depends_on_mpi(root) ? root + " ^mpiabi" : root);
  }
  return out;
}

/// Digests taken from the grounder before semi-naive evaluation was made
/// exact (binding-fingerprint dedup); the exact grounder must match them.
const std::vector<std::pair<std::string, std::string>>& pinned() {
  static const std::vector<std::pair<std::string, std::string>> kPinned = {
      {"ascent ^mpiabi", "5d5a54891c5add72adafa4b08eb7bae8"},
      {"axom ^mpiabi", "38a9ea19e163c1860147dbdf95374a6c"},
      {"blt", "1c20a6b1a4b5bb186985a706adb9d045"},
      {"caliper ^mpiabi", "dd0ad6dfb8d8e7c4d62e08202ad28bdb"},
      {"camp", "ad57c258b27d0969b38a77833c4f9e25"},
      {"care", "75c75ec2e3b94605f4f06f447ac4ac4e"},
      {"chai", "6d0ab236d27a2b1581c2ab807073bc57"},
      {"conduit ^mpiabi", "fe7b71cf88683d8d90a42f262c7b2c5f"},
      {"flux-core", "8dba0461355ce69f3cb9eab439e5c5ee"},
      {"flux-sched", "cb3281cd63e646013a3fa6dfda080a6c"},
      {"glvis ^mpiabi", "316d06473b5d43111fc378b3040d3f93"},
      {"py-hatchet", "b5f7f1a3d515c688c777272b80cfa27a"},
      {"hypre ^mpiabi", "e6ead75dd2f1cb01d06bae54f7013711"},
      {"kripke ^mpiabi", "f5b29e9b8779d7b2521be34bbd5dbd92"},
      {"laghos ^mpiabi", "3f952aa51aa53a02b7dda284f8494255"},
      {"lbann ^mpiabi", "0c3d4c29f5f21adabd972faef0c09d0f"},
      {"lvarray", "bb235344738ee9dcf7226cc80acbb54e"},
      {"py-maestrowf", "5a5e94cd25787d9c6f6f6401c5ccbeb3"},
      {"py-merlin", "259a4dbb2a7d4c7f258bc5e17b73c636"},
      {"mfem ^mpiabi", "5b7e1d859544511fa638bf20b1c30af4"},
      {"mpifileutils ^mpiabi", "37aff6b8468ae9eb355a7aa91a142bce"},
      {"raja", "995497a52c3e2a2bc27d4de286caeedb"},
      {"samrai ^mpiabi", "e08c54fd5d26779464e8397c1891be55"},
      {"scr ^mpiabi", "4e33a26dce142c231c283ea1de48126b"},
      {"serac ^mpiabi", "ffc1a8ae9f3d10cf3a3a5be055c42a6b"},
      {"sundials ^mpiabi", "15bc8255c6caf138ada11019367f99f7"},
      {"umpire", "e12d553caf352c7975abb5d67e22d5a5"},
      {"visit ^mpiabi", "9360f25fb2d44e7e7434fa9c4e08d01a"},
      {"xbraid ^mpiabi", "09a54230e5c9cc0887bf72e860c44793"},
      {"zfp", "2789befe7d3641bb2c49de4b5f562ff7"},
      {"py-shroud", "f66a72ceacd7ecafa4c4f61aeac1aa1b"},
      {"py-spot", "1725583e6e257513dec3ebe63a9f3f24"},
  };
  return kPinned;
}

ConcretizerOptions splice_options() {
  ConcretizerOptions opts;
  opts.encoding = ReuseEncoding::Indirect;
  opts.enable_splicing = true;
  opts.prune_reuse = true;
  return opts;
}

TEST(GroundOrder, RadiussEmissionOrderIsPinned) {
  repo::Repository repo = workload::radiuss_repo();
  Concretizer c(repo, splice_options());
  c.add_reusable_all(workload::local_cache_specs(repo));

  std::vector<std::string> requests = radiuss_requests();
  ASSERT_EQ(requests.size(), pinned().size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const auto& [text, want] = pinned()[i];
    ASSERT_EQ(requests[i], text);
    asp::GroundProgram gp = asp::ground(c.compile_program({Request(text)}));
    EXPECT_EQ(emission_digest(gp), want) << text;
  }
}

/// The CDCL search counters of one solve; equal counters on an equal
/// ground program mean the search took the same path.
struct SearchCounters {
  std::uint64_t decisions;
  std::uint64_t conflicts;
  std::uint64_t propagations;

  friend bool operator==(const SearchCounters&,
                         const SearchCounters&) = default;
  friend std::ostream& operator<<(std::ostream& os, const SearchCounters& s) {
    return os << "{" << s.decisions << ", " << s.conflicts << ", "
              << s.propagations << "}";
  }
};

SearchCounters search_counters(const asp::GroundProgram& gp) {
  asp::SolveResult r = asp::solve_ground(gp);
  return {r.stats.decisions, r.stats.conflicts, r.stats.propagations};
}

/// Search counters of the RADIUSS requests, taken before the solver's
/// clauses moved into one literal arena: clause storage must not perturb
/// literal order, watch order or the learnt-clause database.
const std::vector<std::pair<std::string, SearchCounters>>& pinned_search() {
  static const std::vector<std::pair<std::string, SearchCounters>> kPinned =
      {
          {"ascent ^mpiabi", {386, 8, 5182}},
          {"axom ^mpiabi", {439, 9, 5891}},
          {"blt", {162, 0, 1845}},
          {"caliper ^mpiabi", {217, 3, 2694}},
          {"camp", {162, 0, 2075}},
          {"care", {158, 0, 2357}},
          {"chai", {159, 0, 2250}},
          {"conduit ^mpiabi", {383, 7, 4101}},
          {"flux-core", {156, 0, 2257}},
          {"flux-sched", {155, 0, 2378}},
          {"glvis ^mpiabi", {421, 5, 3614}},
          {"py-hatchet", {155, 0, 2318}},
          {"hypre ^mpiabi", {422, 3, 2682}},
          {"kripke ^mpiabi", {359, 2, 3220}},
          {"laghos ^mpiabi", {373, 4, 3503}},
          {"lbann ^mpiabi", {373, 7, 3824}},
          {"lvarray", {159, 0, 2282}},
          {"py-maestrowf", {156, 0, 2236}},
          {"py-merlin", {155, 0, 2316}},
          {"mfem ^mpiabi", {424, 7, 3520}},
          {"mpifileutils ^mpiabi", {362, 3, 2812}},
          {"raja", {161, 0, 2138}},
          {"samrai ^mpiabi", {430, 7, 3695}},
          {"scr ^mpiabi", {418, 3, 2865}},
          {"serac ^mpiabi", {428, 6, 6782}},
          {"sundials ^mpiabi", {366, 3, 2852}},
          {"umpire", {161, 0, 2129}},
          {"visit ^mpiabi", {451, 7, 4462}},
          {"xbraid ^mpiabi", {449, 2, 2484}},
          {"zfp", {162, 0, 2027}},
          {"py-shroud", {156, 0, 2261}},
          {"py-spot", {158, 0, 2129}},
      };
  return kPinned;
}

TEST(GroundOrder, RadiussSearchCountersArePinned) {
  repo::Repository repo = workload::radiuss_repo();
  Concretizer c(repo, splice_options());
  c.add_reusable_all(workload::local_cache_specs(repo));

  std::vector<std::string> requests = radiuss_requests();
  ASSERT_EQ(requests.size(), pinned_search().size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const auto& [text, want] = pinned_search()[i];
    ASSERT_EQ(requests[i], text);
    asp::GroundProgram gp = asp::ground(c.compile_program({Request(text)}));
    EXPECT_EQ(search_counters(gp), want) << text;
  }
}

/// Public-cache requests, where the hash-uniqueness constraint grounds
/// one instance per pair of cached hashes of a package.  Digests and
/// counters taken before proven-unique instances stopped passing the dedup
/// set.
struct PublicPin {
  std::string request;
  std::string digest;
  SearchCounters search;
};

const std::vector<PublicPin>& pinned_public() {
  static const std::vector<PublicPin> kPinned = {
      {"lbann ^mpiabi", "02c9f1a19a39334591e54d3bf1fc8576", {1383, 12, 22566}},
      {"serac ^mpiabi", "1e194f22932f8bbfcd841848818a962f", {2004, 43, 49036}},
  };
  return kPinned;
}

TEST(GroundOrder, PublicCacheEmissionOrderIsPinned) {
  repo::Repository repo = workload::radiuss_repo();
  Concretizer c(repo, splice_options());
  c.add_reusable_all(workload::public_cache_specs(repo, 1000));

  for (const PublicPin& pin : pinned_public()) {
    asp::GroundProgram gp =
        asp::ground(c.compile_program({Request(pin.request)}));
    EXPECT_EQ(emission_digest(gp), pin.digest) << pin.request;
    EXPECT_EQ(search_counters(gp), pin.search) << pin.request;
  }
}

}  // namespace
}  // namespace splice::concretize
