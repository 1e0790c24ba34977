#include "src/workload/caches.hpp"

#include <functional>
#include <memory>
#include <optional>
#include <unordered_set>

#include "src/support/trace.hpp"
#include "src/workload/radiuss.hpp"
#include "src/workload/resolver.hpp"

namespace splice::workload {

using spec::Spec;
using spec::Version;
using spec::VersionConstraint;

namespace {

ResolveChoices with_provider(const std::string& provider) {
  ResolveChoices c;
  c.providers["mpi"] = provider;
  return c;
}

/// One whole-stack configuration variation, applied on top of the provider
/// and root selection.  Infra variations ripple through every dependent
/// node, which is what makes the synthetic public cache grow the way the
/// real community cache does.
struct GlobalMod {
  std::function<void(ResolveChoices&)> apply;
};

std::vector<GlobalMod> global_mods() {
  std::vector<GlobalMod> mods;
  auto pin = [](const char* pkg, const char* version) {
    return GlobalMod{[pkg, version](ResolveChoices& c) {
      c.versions[pkg] = VersionConstraint::exactly(Version::parse(version));
    }};
  };
  auto var = [](const char* pkg, const char* key, const char* value) {
    return GlobalMod{[pkg, key, value](ResolveChoices& c) {
      c.variants[pkg][key] = value;
    }};
  };
  // Infrastructure version pins.
  mods.push_back(pin("zlib", "1.2.13"));
  mods.push_back(pin("python", "3.10.8"));
  mods.push_back(pin("hdf5", "1.12.2"));
  mods.push_back(pin("openblas", "0.3.21"));
  mods.push_back(pin("cmake", "3.23.1"));
  mods.push_back(pin("mpich", "3.1"));
  mods.push_back(pin("openssl", "1.1.1w"));
  mods.push_back(pin("lua", "5.3.6"));
  mods.push_back(pin("papi", "6.0.0"));
  mods.push_back(pin("gmake", "4.3"));
  // Infrastructure variant flips.
  mods.push_back(var("zlib", "optimize", "false"));
  mods.push_back(var("zlib", "pic", "false"));
  mods.push_back(var("zlib", "shared", "false"));
  mods.push_back(var("python", "shared", "false"));
  mods.push_back(var("hdf5", "cxx", "true"));
  mods.push_back(var("openblas", "threads", "openmp"));
  mods.push_back(var("openblas", "threads", "pthreads"));
  mods.push_back(var("mpich", "pmi", "pmi2"));
  mods.push_back(var("mpich", "pmi", "simple"));
  return mods;
}

/// The specs of a cache under construction: the first spec of each distinct
/// DAG, in resolution order, plus the distinct node hashes they hold.
/// Resolves through a MemoizedResolver, so a variation known to repeat an
/// earlier DAG costs no resolve; such a spec would be dropped as a
/// duplicate anyway, so the cache is the same as resolving every variation.
class CacheBuilder {
 public:
  explicit CacheBuilder(const repo::Repository& repo) : repo_(repo) {}

  /// Resolve for this platform from here on.  Memos of earlier platforms
  /// are dropped: their specs can never repeat on another platform.
  void platform(const std::string& os, const std::string& target) {
    count_resolver();
    resolver_ = std::make_unique<MemoizedResolver>(repo_, os, target);
  }

  void add(const std::string& root, const ResolveChoices& choices) {
    std::optional<Spec> s = resolver_->resolve_new(root, choices);
    if (!s || !seen_roots_.insert(s->dag_hash()).second) return;
    for (const auto& n : s->nodes()) seen_nodes_.insert(n.hash);
    // Copied, not moved: the copy is allocated in one piece, while the
    // resolved spec's nodes lie among the resolver's freed temporaries.
    // Keeping those scattered raised the peak RSS of a 10k-node
    // `splice concretize` by ~11 MB (Release, 4 CPUs).
    specs_.push_back(*s);
  }

  std::size_t nodes() const { return seen_nodes_.size(); }

  /// The specs, after reporting the resolve and memo-hit counts as the
  /// workload.cache_resolves / workload.cache_memo_hits counters.
  std::vector<Spec> take() {
    count_resolver();
    trace::MetricsRegistry& m = trace::Tracer::global().metrics();
    m.add("workload.cache_resolves", static_cast<std::int64_t>(resolves_));
    m.add("workload.cache_memo_hits", static_cast<std::int64_t>(hits_));
    return std::move(specs_);
  }

 private:
  void count_resolver() {
    if (!resolver_) return;
    resolves_ += resolver_->resolves();
    hits_ += resolver_->hits();
    resolver_.reset();
  }

  const repo::Repository& repo_;
  std::unique_ptr<MemoizedResolver> resolver_;
  std::vector<Spec> specs_;
  std::unordered_set<std::string> seen_roots_;
  std::unordered_set<std::string> seen_nodes_;
  std::size_t resolves_ = 0;
  std::size_t hits_ = 0;
};

}  // namespace

std::vector<Spec> local_cache_specs(const repo::Repository& repo) {
  // The RADIUSS stack and its transitive dependencies in a handful of
  // everyday configurations: defaults with each MPI, older root versions,
  // and an older-zlib rebuild of the stack.  ~200 distinct node specs,
  // matching the paper's controlled local cache.
  CacheBuilder cache(repo);
  cache.platform("linux", "x86_64");
  for (const char* provider : {"mpich", "openmpi"}) {
    ResolveChoices c = with_provider(provider);
    for (const std::string& root : radiuss_roots()) cache.add(root, c);
  }
  for (const std::string& root : radiuss_roots()) {
    const auto& versions = repo.get(root).versions();
    for (std::size_t vi = 1; vi < versions.size(); ++vi) {
      ResolveChoices c = with_provider("mpich");
      c.versions[root] = VersionConstraint::exactly(versions[vi].version);
      cache.add(root, c);
    }
  }
  {
    ResolveChoices c = with_provider("mpich");
    c.versions["zlib"] = VersionConstraint::exactly(Version::parse("1.2.13"));
    for (const std::string& root : radiuss_roots()) cache.add(root, c);
  }
  {
    ResolveChoices c = with_provider("mpich");
    c.versions["python"] = VersionConstraint::exactly(Version::parse("3.10.8"));
    c.versions["hdf5"] = VersionConstraint::exactly(Version::parse("1.12.2"));
    for (const std::string& root : radiuss_roots()) cache.add(root, c);
  }
  return cache.take();
}

std::vector<Spec> public_cache_specs(const repo::Repository& repo,
                                     std::size_t target_nodes) {
  CacheBuilder cache(repo);
  auto done = [&] { return cache.nodes() >= target_nodes; };

  const std::vector<std::string> providers = {"mpich", "openmpi"};
  const std::vector<GlobalMod> mods = global_mods();

  // Platforms: the default platform first (small targets stay
  // platform-homogeneous), then the alternates that make the synthetic
  // public cache heterogeneous the way the real community cache is --
  // entries for other microarchitectures and OS images are candidates the
  // concretizer must reason about even though they never match.
  const std::vector<std::pair<std::string, std::string>> platforms = {
      {"linux", "x86_64"},   {"linux", "skylake"}, {"linux", "icelake"},
      {"linux", "zen2"},     {"centos8", "x86_64"}, {"ubuntu22", "x86_64"},
      {"centos8", "skylake"}, {"ubuntu22", "icelake"},
  };

  for (const auto& [os_name, target] : platforms) {
  cache.platform(os_name, target);
  // Stage A: every root with each provider, default configuration.
  for (const std::string& provider : providers) {
    for (const std::string& root : radiuss_roots()) {
      cache.add(root, with_provider(provider));
      if (done()) return cache.take();
    }
  }

  // Stage B1: older root versions and root variant flips.
  for (const std::string& provider : providers) {
    for (const std::string& root : radiuss_roots()) {
      const auto& pkg = repo.get(root);
      for (std::size_t vi = 1; vi < pkg.versions().size(); ++vi) {
        ResolveChoices c = with_provider(provider);
        c.versions[root] =
            VersionConstraint::exactly(pkg.versions()[vi].version);
        cache.add(root, c);
        if (done()) return cache.take();
      }
      for (const auto& v : pkg.variants()) {
        if (!v.boolean) continue;
        ResolveChoices c = with_provider(provider);
        c.variants[root][v.name] =
            v.default_value == "true" ? "false" : "true";
        cache.add(root, c);
        if (done()) return cache.take();
      }
    }
  }

  // Stage B2: single global (infrastructure) variations.
  for (const GlobalMod& mod : mods) {
    for (const std::string& provider : providers) {
      for (const std::string& root : radiuss_roots()) {
        ResolveChoices c = with_provider(provider);
        mod.apply(c);
        cache.add(root, c);
        if (done()) return cache.take();
      }
    }
  }

  // Stage C: pairs of global variations.
  for (std::size_t i = 0; i < mods.size(); ++i) {
    for (std::size_t j = i + 1; j < mods.size(); ++j) {
      for (const std::string& provider : providers) {
        for (const std::string& root : radiuss_roots()) {
          ResolveChoices c = with_provider(provider);
          mods[i].apply(c);
          mods[j].apply(c);
          cache.add(root, c);
          if (done()) return cache.take();
        }
      }
    }
  }

  // Stage D: triples (only reached for very large targets).
  for (std::size_t i = 0; i < mods.size(); ++i) {
    for (std::size_t j = i + 1; j < mods.size(); ++j) {
      for (std::size_t k = j + 1; k < mods.size(); ++k) {
        for (const std::string& provider : providers) {
          for (const std::string& root : radiuss_roots()) {
            ResolveChoices c = with_provider(provider);
            mods[i].apply(c);
            mods[j].apply(c);
            mods[k].apply(c);
            cache.add(root, c);
            if (done()) return cache.take();
          }
        }
      }
    }
  }

  }  // platforms

  return cache.take();
}

std::size_t distinct_nodes(const std::vector<Spec>& specs) {
  std::unordered_set<std::string> hashes;
  for (const Spec& s : specs) {
    for (const auto& n : s.nodes()) hashes.insert(n.hash);
  }
  return hashes.size();
}

}  // namespace splice::workload
