// A fast, deterministic greedy resolver used to mass-produce concrete specs
// for buildcache generation (and as an independent oracle in tests).
//
// Unlike the ASP concretizer it performs no search: versions resolve to the
// newest declared version satisfying all accumulated constraints, variants
// to their defaults (after overrides), virtuals to an explicitly chosen
// provider.  Constraint accumulation iterates to a fixpoint so conditional
// directives triggered late still narrow earlier choices.  Throws
// UnsatisfiableError when the greedy strategy hits a contradiction.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/repo/repository.hpp"
#include "src/spec/spec.hpp"

namespace splice::workload {

struct ResolveChoices {
  /// Package -> version constraint applied on top of the request.
  std::map<std::string, spec::VersionConstraint> versions;
  /// Package -> variant overrides.
  std::map<std::string, std::map<std::string, std::string>> variants;
  /// Virtual -> provider package name.  Every virtual actually used must
  /// have an entry (the resolver does not guess providers).
  std::map<std::string, std::string> providers;
};

/// What one resolution consulted of its ResolveChoices: the packages it
/// expanded in any fixpoint pass (their `versions` and `variants` entries)
/// and the virtuals whose provider it looked up (their `providers` entry).
/// The resolved spec is a function of the platform, the root and exactly
/// these entries; no other entry is ever read.
struct ReadSet {
  std::vector<std::string> packages;  ///< sorted
  std::vector<std::string> virtuals;  ///< sorted
};

class SimpleResolver {
 public:
  SimpleResolver(const repo::Repository& repo, std::string os = "linux",
                 std::string target = "x86_64")
      : repo_(repo), os_(std::move(os)), target_(std::move(target)) {}

  /// Resolve a root package into a full concrete spec.  With `reads`, also
  /// report which choice entries the resolution consulted.
  spec::Spec resolve(const std::string& root,
                     const ResolveChoices& choices = {},
                     ReadSet* reads = nullptr) const;

 private:
  const repo::Repository& repo_;
  std::string os_;
  std::string target_;
};

/// A SimpleResolver for sweeps that only want distinct results (cache
/// generation).  Per root it keeps every distinct read set seen and, for
/// each, the set of earlier choices projected onto it.  A call whose choices
/// agree with an earlier call's on every entry that call read would retrace
/// it step for step and yield the same spec, so it is answered without
/// resolving.  Entries are projected as interned ids, not strings.
class MemoizedResolver {
 public:
  MemoizedResolver(const repo::Repository& repo, std::string os = "linux",
                   std::string target = "x86_64")
      : resolver_(repo, std::move(os), std::move(target)) {}

  /// The spec for `root` under `choices`, or nullopt when an earlier call
  /// on this resolver is known to have returned the same spec.
  std::optional<spec::Spec> resolve_new(const std::string& root,
                                        const ResolveChoices& choices);

  std::size_t resolves() const { return resolves_; }
  std::size_t hits() const { return hits_; }

 private:
  using Ids = std::vector<std::uint32_t>;
  struct IdsHash {
    std::size_t operator()(const Ids& ids) const;
  };
  /// One (name, key, value) choice entry, all interned.
  struct Entry {
    std::uint32_t name, key, value;
  };
  /// One distinct read set of a root and the projections seen through it.
  struct Memo {
    std::vector<bool> packages, virtuals;  ///< indexed by interned id
    std::unordered_set<Ids, IdsHash> seen;
  };

  std::uint32_t intern(const std::string& s);
  /// `choices` as entries in a canonical order, so equal choices project
  /// onto equal id sequences.
  void canonical(const ResolveChoices& choices);
  Ids project(const Memo& memo) const;

  SimpleResolver resolver_;
  std::unordered_map<std::string, std::uint32_t> ids_;
  std::unordered_map<std::string, std::vector<Memo>> memos_;  ///< by root
  std::vector<Entry> entries_;  ///< canonical() of the current call
  std::size_t resolves_ = 0;
  std::size_t hits_ = 0;
};

}  // namespace splice::workload
