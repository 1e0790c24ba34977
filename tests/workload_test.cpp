// Tests for the synthetic RADIUSS workload: repository consistency, the
// greedy resolver (including cross-validation against the ASP concretizer),
// and buildcache generation.
#include <gtest/gtest.h>

#include <functional>
#include <optional>
#include <set>

#include "src/concretize/concretizer.hpp"
#include "src/support/error.hpp"
#include "src/support/hash.hpp"
#include "src/workload/caches.hpp"
#include "src/workload/radiuss.hpp"
#include "src/workload/resolver.hpp"

namespace splice::workload {
namespace {

using spec::Spec;
using spec::Version;

TEST(Radiuss, RepoIsConsistent) {
  repo::Repository repo = radiuss_repo();
  EXPECT_NO_THROW(repo.validate());
  EXPECT_GE(repo.size(), 55u);
  EXPECT_TRUE(repo.is_virtual("mpi"));
  // mpich, openmpi, mpiabi all provide mpi.
  auto providers = repo.providers("mpi");
  EXPECT_GE(providers.size(), 3u);
}

TEST(Radiuss, ThirtyTwoRoots) {
  repo::Repository repo = radiuss_repo();
  EXPECT_EQ(radiuss_roots().size(), 32u);
  for (const std::string& root : radiuss_roots()) {
    EXPECT_TRUE(repo.contains(root)) << root;
  }
}

TEST(Radiuss, MpiDependentSubset) {
  EXPECT_GE(mpi_dependent_roots().size(), 15u);
  EXPECT_TRUE(depends_on_mpi("mfem"));
  EXPECT_TRUE(depends_on_mpi("visit"));
  EXPECT_FALSE(depends_on_mpi("py-shroud"));
  EXPECT_FALSE(depends_on_mpi("flux-core"));
}

TEST(Radiuss, MpiabiSplicesIntoMpich343) {
  repo::Repository repo = radiuss_repo();
  const auto& splices = repo.get("mpiabi").splices();
  ASSERT_EQ(splices.size(), 1u);
  EXPECT_EQ(splices[0].target.root().name, "mpich");
  EXPECT_TRUE(splices[0].target.root().versions.includes(
      Version::parse("3.4.3")));
}

TEST(Radiuss, ReplicasShareDirectives) {
  repo::Repository repo = radiuss_repo(5);
  auto names = mpiabi_replica_names(5);
  ASSERT_EQ(names.size(), 5u);
  EXPECT_EQ(names[0], "mpiabi-r00");
  EXPECT_EQ(names[4], "mpiabi-r04");
  for (const auto& n : names) {
    ASSERT_TRUE(repo.contains(n)) << n;
    EXPECT_EQ(repo.get(n).splices().size(), 1u);
    EXPECT_EQ(radiuss_abi_surface(n), "mpi");
  }
}

TEST(Resolver, ResolvesEveryRoot) {
  repo::Repository repo = radiuss_repo();
  SimpleResolver resolver(repo);
  ResolveChoices mpich;
  mpich.providers["mpi"] = "mpich";
  for (const std::string& root : radiuss_roots()) {
    Spec s = resolver.resolve(root, mpich);
    EXPECT_TRUE(s.is_concrete()) << root;
    EXPECT_EQ(s.root().name, root);
    if (depends_on_mpi(root)) {
      EXPECT_NE(s.find("mpich"), nullptr) << root;
    } else {
      EXPECT_EQ(s.find("mpich"), nullptr) << root;
    }
  }
}

TEST(Resolver, DeterministicOutput) {
  repo::Repository repo = radiuss_repo();
  SimpleResolver resolver(repo);
  ResolveChoices c;
  c.providers["mpi"] = "mpich";
  EXPECT_EQ(resolver.resolve("mfem", c).dag_hash(),
            resolver.resolve("mfem", c).dag_hash());
}

TEST(Resolver, HonorsChoices) {
  repo::Repository repo = radiuss_repo();
  SimpleResolver resolver(repo);
  ResolveChoices c;
  c.providers["mpi"] = "openmpi";
  c.versions["zlib"] = spec::VersionConstraint::exactly(Version::parse("1.2.13"));
  c.variants["raja"]["openmp"] = "false";
  Spec s = resolver.resolve("kripke", c);
  EXPECT_NE(s.find("openmpi"), nullptr);
  EXPECT_EQ(s.find("mpich"), nullptr);
  EXPECT_EQ(s.find("raja")->variants.at("openmp"), "false");
}

TEST(Resolver, ConditionalDependencyRespected) {
  repo::Repository repo = radiuss_repo();
  SimpleResolver resolver(repo);
  ResolveChoices c;
  c.providers["mpi"] = "mpich";
  // hdf5~mpi must not depend on mpi.
  c.variants["hdf5"]["mpi"] = "false";
  Spec s = resolver.resolve("hdf5", c);
  EXPECT_EQ(s.find("mpich"), nullptr);
  ResolveChoices with_mpi;
  with_mpi.providers["mpi"] = "mpich";
  Spec s2 = resolver.resolve("hdf5", with_mpi);  // default +mpi
  EXPECT_NE(s2.find("mpich"), nullptr);
}

TEST(Resolver, MissingProviderThrows) {
  repo::Repository repo = radiuss_repo();
  SimpleResolver resolver(repo);
  EXPECT_THROW(resolver.resolve("mfem", {}), UnsatisfiableError);
}

TEST(Resolver, MatchesAspConcretizer) {
  // Cross-validate the two engines on a few roots: same provider pinned,
  // the optimal ASP model must coincide with the greedy resolution (both
  // pick newest versions and defaults).
  repo::Repository repo = radiuss_repo();
  SimpleResolver resolver(repo);
  ResolveChoices choices;
  choices.providers["mpi"] = "mpich";
  concretize::Concretizer c(repo);
  for (const char* root : {"raja", "mfem", "py-shroud", "scr"}) {
    Spec greedy = resolver.resolve(root, choices);
    concretize::Request req(depends_on_mpi(root)
                                ? std::string(root) + " ^mpich"
                                : std::string(root));
    concretize::ConcretizeResult solved = c.concretize(req);
    EXPECT_EQ(greedy.dag_hash(), solved.spec.dag_hash())
        << root << "\ngreedy:\n" << greedy.tree() << "\nasp:\n"
        << solved.spec.tree();
  }
}

TEST(Caches, LocalCacheShape) {
  repo::Repository repo = radiuss_repo();
  auto specs = local_cache_specs(repo);
  EXPECT_GE(specs.size(), radiuss_roots().size());
  std::size_t nodes = distinct_nodes(specs);
  // Paper: ~200 specs in the local cache.
  EXPECT_GE(nodes, 120u);
  EXPECT_LE(nodes, 400u);
  // Splice targets present: some cached spec contains mpich@3.4.3.
  bool has_target = false;
  for (const auto& s : specs) {
    const auto* m = s.find("mpich");
    if (m && m->concrete_version() == Version::parse("3.4.3")) has_target = true;
  }
  EXPECT_TRUE(has_target);
}

TEST(Caches, PublicCacheReachesTarget) {
  repo::Repository repo = radiuss_repo();
  auto specs = public_cache_specs(repo, 600);
  EXPECT_GE(distinct_nodes(specs), 600u);
  // Deterministic.
  auto again = public_cache_specs(repo, 600);
  ASSERT_EQ(specs.size(), again.size());
  EXPECT_EQ(specs.back().dag_hash(), again.back().dag_hash());
}

TEST(Caches, PublicCacheCoversLocalConfigurations) {
  // A fully swept public cache contains every local-cache configuration;
  // 4000 nodes is enough to complete the pairwise variation stage.
  repo::Repository repo = radiuss_repo();
  auto local = local_cache_specs(repo);
  auto pub = public_cache_specs(repo, 4000);
  std::set<std::string> pub_hashes;
  for (const auto& s : pub) {
    for (const auto& n : s.nodes()) pub_hashes.insert(n.hash);
  }
  std::size_t covered = 0;
  for (const auto& s : local) {
    if (pub_hashes.count(s.dag_hash()) > 0) ++covered;
  }
  EXPECT_GE(covered, local.size() * 9 / 10)
      << covered << " of " << local.size() << " local specs covered";
}

// ---- MemoizedResolver soundness -------------------------------------------

/// Resolve `choices` through `memo` and check the answer against a plain
/// resolve: a returned spec must equal it, a skip must repeat a spec
/// `memo` returned before.  Returns whether `memo` resolved.
bool memo_agrees(MemoizedResolver& memo, const SimpleResolver& plain,
                 std::set<std::string>& returned, const std::string& root,
                 const ResolveChoices& choices) {
  const std::string want = plain.resolve(root, choices).dag_hash();
  std::optional<Spec> got = memo.resolve_new(root, choices);
  if (got) {
    EXPECT_EQ(got->dag_hash(), want) << root;
    returned.insert(want);
  } else {
    EXPECT_EQ(returned.count(want), 1u) << root << ": skipped a new spec";
  }
  return got.has_value();
}

spec::VersionConstraint exactly(const char* v) {
  return spec::VersionConstraint::exactly(Version::parse(v));
}

TEST(MemoizedResolver, PinBehindAVariantIsReadOnceTheVariantIsOn) {
  // dep is reached only under app+feature: with the feature off a pin on
  // dep is never read and may be skipped, but once the feature is on the
  // pin decides dep's version.
  repo::Repository r;
  r.add(repo::PackageDef("dep").version("2.0").version("1.0"));
  r.add(repo::PackageDef("app").version("1.0").variant("feature", false)
            .depends_on("dep", "+feature"));
  r.validate();
  SimpleResolver plain(r);
  MemoizedResolver memo(r);
  std::set<std::string> returned;

  ResolveChoices off;
  EXPECT_TRUE(memo_agrees(memo, plain, returned, "app", off));
  ResolveChoices off_pinned;
  off_pinned.versions["dep"] = exactly("1.0");
  EXPECT_FALSE(memo_agrees(memo, plain, returned, "app", off_pinned));

  ResolveChoices on_pinned = off_pinned;
  on_pinned.variants["app"]["feature"] = "true";
  EXPECT_TRUE(memo_agrees(memo, plain, returned, "app", on_pinned));
  ResolveChoices on_newer = on_pinned;
  on_newer.versions["dep"] = exactly("2.0");
  EXPECT_TRUE(memo_agrees(memo, plain, returned, "app", on_newer));
  EXPECT_FALSE(memo_agrees(memo, plain, returned, "app", on_pinned));
  EXPECT_EQ(memo.resolves(), 3u);
  EXPECT_EQ(memo.hits(), 2u);
}

TEST(MemoizedResolver, ProviderChangeMissesTheMemo) {
  repo::Repository r;
  r.add(repo::PackageDef("mpich").version("4.0").provides("mpi"));
  r.add(repo::PackageDef("openmpi").version("5.0").provides("mpi"));
  r.add(repo::PackageDef("app").version("1.0").depends_on("mpi"));
  r.add(repo::PackageDef("serial").version("1.0"));
  r.validate();
  SimpleResolver plain(r);
  MemoizedResolver memo(r);
  std::set<std::string> returned;

  ResolveChoices mpich;
  mpich.providers["mpi"] = "mpich";
  ResolveChoices openmpi;
  openmpi.providers["mpi"] = "openmpi";
  EXPECT_TRUE(memo_agrees(memo, plain, returned, "app", mpich));
  EXPECT_TRUE(memo_agrees(memo, plain, returned, "app", openmpi));
  EXPECT_FALSE(memo_agrees(memo, plain, returned, "app", mpich));
  // A root that never looks mpi up resolves the same under either.
  EXPECT_TRUE(memo_agrees(memo, plain, returned, "serial", mpich));
  EXPECT_FALSE(memo_agrees(memo, plain, returned, "serial", openmpi));
}

TEST(MemoizedResolver, EarlyPassVisitsStayInTheReadSet) {
  // Pass 0 resolves mid@2.0, which pulls in x, whose +narrow pins zlib@1.2;
  // lib then narrows mid to 1.0 and the final pass never reaches x.  The
  // zlib pin persists, so x's variant still decides zlib's version.
  repo::Repository r;
  r.add(repo::PackageDef("zlib").version("1.3").version("1.2"));
  r.add(repo::PackageDef("x").version("1.0").variant("narrow", true)
            .depends_on("zlib@1.2", "+narrow"));
  r.add(repo::PackageDef("mid").version("2.0").version("1.0")
            .depends_on("x", "@2.0"));
  r.add(repo::PackageDef("lib").version("1.0").depends_on("mid@1.0"));
  r.add(repo::PackageDef("top").version("1.0").depends_on("mid")
            .depends_on("lib").depends_on("zlib"));
  r.validate();
  SimpleResolver plain(r);

  ReadSet reads;
  Spec narrow = plain.resolve("top", {}, &reads);
  EXPECT_EQ(narrow.find("x"), nullptr);
  EXPECT_EQ(narrow.find("zlib")->concrete_version(), Version::parse("1.2"));
  EXPECT_EQ(reads.packages,
            (std::vector<std::string>{"lib", "mid", "top", "x", "zlib"}));

  MemoizedResolver memo(r);
  std::set<std::string> returned;
  EXPECT_TRUE(memo_agrees(memo, plain, returned, "top", {}));
  ResolveChoices wide;
  wide.variants["x"]["narrow"] = "false";
  EXPECT_TRUE(memo_agrees(memo, plain, returned, "top", wide));
  EXPECT_EQ(plain.resolve("top", wide).find("zlib")->concrete_version(),
            Version::parse("1.3"));
}

TEST(MemoizedResolver, AgreesWithPlainResolvesOnARadiussSweep) {
  // Providers x single and paired infrastructure choices over roots with
  // and without MPI: every answer matches a plain resolve, and the memo
  // skips a share of them.
  repo::Repository repo = radiuss_repo();
  SimpleResolver plain(repo);
  MemoizedResolver memo(repo);
  std::set<std::string> returned;
  std::vector<std::function<void(ResolveChoices&)>> mods = {
      [](ResolveChoices&) {},
      [](ResolveChoices& c) { c.versions["zlib"] = exactly("1.2.13"); },
      [](ResolveChoices& c) { c.versions["hdf5"] = exactly("1.12.2"); },
      [](ResolveChoices& c) { c.versions["lua"] = exactly("5.3.6"); },
      [](ResolveChoices& c) { c.variants["hdf5"]["cxx"] = "true"; },
      [](ResolveChoices& c) { c.variants["mpich"]["pmi"] = "pmi2"; },
      [](ResolveChoices& c) { c.variants["zlib"]["shared"] = "false"; },
  };
  for (const char* root : {"hdf5", "mfem", "py-shroud", "conduit"}) {
    for (const char* provider : {"mpich", "openmpi"}) {
      for (std::size_t i = 0; i < mods.size(); ++i) {
        for (std::size_t j = i; j < mods.size(); ++j) {
          ResolveChoices c;
          c.providers["mpi"] = provider;
          mods[i](c);
          mods[j](c);
          memo_agrees(memo, plain, returned, root, c);
        }
      }
    }
  }
  EXPECT_GT(memo.hits(), 0u);
  EXPECT_EQ(memo.resolves() + memo.hits(), 4u * 2u * 28u);
}

/// Order-sensitive digest of a generated cache: the spec count, then every
/// root's dag_hash in generation order.
std::string cache_digest(const std::vector<Spec>& specs) {
  Hasher h;
  h.field_u64(specs.size());
  for (const Spec& s : specs) h.field(s.dag_hash());
  return h.hex();
}

TEST(Caches, PublicCacheOrderIsPinned) {
  // Cache generation may skip work but must not change what it generates:
  // the concretizer's reuse candidates, and so every splice origin the
  // benchmark goldens check, follow from these specs in this order.  The
  // digests were taken from the generator that resolved every variation,
  // before resolves were memoized on their read sets.
  repo::Repository repo = radiuss_repo();
  std::vector<Spec> pub = public_cache_specs(repo, 10000);
  EXPECT_EQ(pub.size(), 8589u);
  EXPECT_EQ(cache_digest(pub), "10dafc5b59d4a03ae25d43c6d7545e82");
  std::vector<Spec> local = local_cache_specs(repo);
  EXPECT_EQ(local.size(), 98u);
  EXPECT_EQ(cache_digest(local), "79147caba356d9ddb9ff5b9b21fc5c8f");
}


TEST(Resolver, ConflictsEnforced) {
  repo::Repository r;
  r.add(repo::PackageDef("zlib").version("1.3").version("1.2"));
  r.add(repo::PackageDef("app")
            .version("2.0")
            .depends_on("zlib@1.3")          // forces 1.3...
            .conflicts("zlib@1.3", "@2.0")); // ...which conflicts
  r.validate();
  SimpleResolver resolver(r);
  EXPECT_THROW(resolver.resolve("app", {}), UnsatisfiableError);
}

TEST(Resolver, ConflictAvoidedWhenConfigDiffers) {
  repo::Repository r;
  r.add(repo::PackageDef("zlib").version("1.3").version("1.2"));
  r.add(repo::PackageDef("app").version("2.0").depends_on("zlib").conflicts(
      "zlib@1.3", "@2.0"));
  r.validate();
  SimpleResolver resolver(r);
  // Greedy picks zlib@1.3 (newest) and then trips the conflict: greedy does
  // not backtrack (unlike the ASP solver, which picks 1.2 -- see
  // Concretizer.ConflictsRespected).
  ResolveChoices pin;
  pin.versions["zlib"] =
      spec::VersionConstraint::exactly(Version::parse("1.2"));
  Spec s = resolver.resolve("app", pin);
  EXPECT_EQ(s.find("zlib")->concrete_version(), Version::parse("1.2"));
  EXPECT_THROW(resolver.resolve("app", {}), UnsatisfiableError);
}

}  // namespace
}  // namespace splice::workload
