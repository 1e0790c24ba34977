#include "src/workload/resolver.hpp"

#include <algorithm>
#include <set>

#include "src/support/error.hpp"

namespace splice::workload {

using repo::PackageDef;
using spec::DepType;
using spec::Spec;
using spec::SpecNode;
using spec::Version;
using spec::VersionConstraint;

namespace {

struct NodeState {
  VersionConstraint constraint;                    // accumulated
  std::map<std::string, std::string> variant_req;  // accumulated requirements
  // resolved attributes:
  Version version;
  std::map<std::string, std::string> variants;
  std::set<std::pair<std::string, DepType>> deps;
  bool resolved = false;  // expanded in the current pass
  bool visited = false;   // expanded in any pass: part of the read set
};

class Resolution {
 public:
  Resolution(const repo::Repository& repo, const ResolveChoices& choices,
             std::string os, std::string target)
      : repo_(repo), choices_(choices), os_(std::move(os)),
        target_(std::move(target)) {}

  Spec run(const std::string& root, ReadSet* reads) {
    // Seed explicit choices as accumulated constraints.
    for (const auto& [name, vc] : choices_.versions) {
      states_[name].constraint = vc;
    }
    for (const auto& [name, vars] : choices_.variants) {
      for (const auto& [k, v] : vars) states_[name].variant_req[k] = v;
    }
    // Iterate to a fixpoint: conditional directives may add constraints to
    // packages resolved earlier in the same pass.
    for (int pass = 0; pass < 16; ++pass) {
      changed_ = false;
      for (auto& [name, st] : states_) st.resolved = false;
      order_.clear();
      expand(root);
      if (!changed_) {
        Spec out = materialize(root);
        if (reads != nullptr) record_reads(*reads);
        return out;
      }
    }
    throw UnsatisfiableError("greedy resolution did not converge for " + root);
  }

 private:
  void require_version(const std::string& name, const VersionConstraint& vc) {
    NodeState& st = states_[name];
    VersionConstraint before = st.constraint;
    if (!st.constraint.constrain(vc)) {
      throw UnsatisfiableError("conflicting version constraints on " + name +
                               ": " + before.str() + " vs " + vc.str());
    }
    if (!(st.constraint == before)) changed_ = true;
  }

  void require_variant(const std::string& name, const std::string& key,
                       const std::string& val) {
    NodeState& st = states_[name];
    auto [it, inserted] = st.variant_req.emplace(key, val);
    if (!inserted && it->second != val) {
      throw UnsatisfiableError("conflicting variant " + name + " " + key);
    }
    if (inserted) changed_ = true;
  }

  void expand(const std::string& name) {
    NodeState& st = states_[name];
    if (st.resolved) return;
    st.resolved = true;
    st.visited = true;
    order_.push_back(name);
    const PackageDef& pkg = repo_.get(name);

    // Version: newest declared, within the accumulated constraint.
    bool found = false;
    for (const auto& vd : pkg.versions()) {
      if (vd.deprecated) continue;
      if (st.constraint.includes(vd.version)) {
        st.version = vd.version;
        found = true;
        break;
      }
    }
    if (!found) {
      throw UnsatisfiableError("no declared version of " + name +
                               " satisfies " + st.constraint.str());
    }

    // Variants: defaults then requirements.
    st.variants.clear();
    for (const auto& var : pkg.variants()) {
      st.variants[var.name] = var.default_value;
    }
    for (const auto& [k, v] : st.variant_req) {
      if (pkg.find_variant(k) == nullptr) {
        throw UnsatisfiableError(name + " has no variant " + k);
      }
      st.variants[k] = v;
    }

    // Evaluate conditional directives against the resolved attributes.
    SpecNode self;
    self.name = name;
    self.versions = VersionConstraint::exactly(st.version);
    self.variants = st.variants;
    self.os = os_;
    self.target = target_;

    st.deps.clear();
    for (const auto& dep : pkg.dependencies()) {
      if (dep.when && !spec::node_satisfies(self, dep.when->root())) continue;
      std::string dep_name = dep.target.root().name;
      if (repo_.is_virtual(dep_name)) {
        virtuals_read_.insert(dep_name);
        auto it = choices_.providers.find(dep_name);
        if (it == choices_.providers.end()) {
          throw UnsatisfiableError("no provider chosen for virtual '" +
                                   dep_name + "' needed by " + name);
        }
        dep_name = it->second;
      } else {
        if (!dep.target.root().versions.any()) {
          require_version(dep_name, dep.target.root().versions);
        }
        for (const auto& [k, v] : dep.target.root().variants) {
          require_variant(dep_name, k, v);
        }
      }
      st.deps.emplace(dep_name, dep.type);
      expand(dep_name);
    }

    for (const auto& c : pkg.conflicts_list()) {
      if (c.when && !spec::node_satisfies(self, c.when->root())) continue;
      // Conflict applies; check whether the offending configuration is
      // present (greedy: only same-name checks after resolution, handled in
      // materialize()).
      conflicts_.push_back({name, &c});
    }
  }

  /// Every package a pass visited -- not only the final pass: conflicts
  /// and constraints collected in an earlier pass still shape the result.
  void record_reads(ReadSet& reads) const {
    reads.packages.clear();
    for (const auto& [name, st] : states_) {
      if (st.visited) reads.packages.push_back(name);
    }
    reads.virtuals.assign(virtuals_read_.begin(), virtuals_read_.end());
  }

  Spec materialize(const std::string& root) {
    // Verify conflicts against the final assignment.
    for (const auto& [owner, c] : conflicts_) {
      const std::string& target_name = c->target.root().name;
      auto it = states_.find(target_name);
      if (it == states_.end() || !it->second.resolved) continue;
      SpecNode probe;
      probe.name = target_name;
      probe.versions = VersionConstraint::exactly(it->second.version);
      probe.variants = it->second.variants;
      probe.os = os_;
      probe.target = target_;
      if (spec::node_satisfies(probe, c->target.root())) {
        throw UnsatisfiableError("conflict in " + owner + ": " +
                                 c->target.str() + " is present");
      }
    }

    Spec out;
    std::map<std::string, std::size_t> index_of;
    // Root first, then dependency order of first expansion.
    for (const std::string& name : order_) {
      const NodeState& st = states_.at(name);
      SpecNode n;
      n.name = name;
      n.versions = VersionConstraint::exactly(st.version);
      n.variants = st.variants;
      n.os = os_;
      n.target = target_;
      index_of[name] = out.add_node(std::move(n));
    }
    for (const std::string& name : order_) {
      for (const auto& [dep, type] : states_.at(name).deps) {
        out.add_dep(index_of.at(name), index_of.at(dep), type);
      }
    }
    if (out.root().name != root) {
      throw Error("internal: resolver root mismatch");
    }
    out.finalize_concrete();
    return out;
  }

  const repo::Repository& repo_;
  const ResolveChoices& choices_;
  std::string os_;
  std::string target_;
  std::map<std::string, NodeState> states_;
  std::vector<std::string> order_;
  std::vector<std::pair<std::string, const repo::ConditionalSpec*>> conflicts_;
  std::set<std::string> virtuals_read_;
  bool changed_ = false;
};

}  // namespace

Spec SimpleResolver::resolve(const std::string& root,
                             const ResolveChoices& choices,
                             ReadSet* reads) const {
  return Resolution(repo_, choices, os_, target_).run(root, reads);
}

namespace {

// Entry keys of the two per-name choice kinds that carry no key of their
// own; interned ids count up from 0 and never reach these.
constexpr std::uint32_t kVersionKey = 0xffffffffu;
constexpr std::uint32_t kProviderKey = 0xfffffffeu;

bool has_bit(const std::vector<bool>& bits, std::uint32_t id) {
  return id < bits.size() && bits[id];
}

}  // namespace

std::size_t MemoizedResolver::IdsHash::operator()(const Ids& ids) const {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::uint32_t id : ids) h = (h ^ id) * 0x100000001b3ull;
  return static_cast<std::size_t>(h ^ (h >> 29));
}

std::uint32_t MemoizedResolver::intern(const std::string& s) {
  auto [it, inserted] =
      ids_.try_emplace(s, static_cast<std::uint32_t>(ids_.size()));
  return it->second;
}

void MemoizedResolver::canonical(const ResolveChoices& choices) {
  entries_.clear();
  for (const auto& [name, vc] : choices.versions) {
    entries_.push_back({intern(name), kVersionKey, intern(vc.str())});
  }
  for (const auto& [name, vars] : choices.variants) {
    const std::uint32_t id = intern(name);
    for (const auto& [k, v] : vars) {
      entries_.push_back({id, intern(k), intern(v)});
    }
  }
  for (const auto& [virt, provider] : choices.providers) {
    entries_.push_back({intern(virt), kProviderKey, intern(provider)});
  }
}

MemoizedResolver::Ids MemoizedResolver::project(const Memo& memo) const {
  Ids key;
  for (const Entry& e : entries_) {
    const bool read = e.key == kProviderKey ? has_bit(memo.virtuals, e.name)
                                            : has_bit(memo.packages, e.name);
    if (read) key.insert(key.end(), {e.name, e.key, e.value});
  }
  return key;
}

std::optional<Spec> MemoizedResolver::resolve_new(
    const std::string& root, const ResolveChoices& choices) {
  canonical(choices);
  std::vector<Memo>& memos = memos_[root];
  for (const Memo& memo : memos) {
    if (memo.seen.count(project(memo)) > 0) {
      ++hits_;
      return std::nullopt;
    }
  }

  ReadSet reads;
  Spec out = resolver_.resolve(root, choices, &reads);
  ++resolves_;
  // Sized to the largest id in the set, so equal sets are equal vectors.
  auto to_bits = [&](const std::vector<std::string>& names) {
    std::vector<bool> bits;
    for (const std::string& n : names) {
      const std::uint32_t id = intern(n);
      if (id >= bits.size()) bits.resize(id + 1);
      bits[id] = true;
    }
    return bits;
  };
  Memo fresh;
  fresh.packages = to_bits(reads.packages);
  fresh.virtuals = to_bits(reads.virtuals);
  auto same = std::find_if(memos.begin(), memos.end(), [&](const Memo& m) {
    return m.packages == fresh.packages && m.virtuals == fresh.virtuals;
  });
  Memo& memo =
      same != memos.end() ? *same : memos.emplace_back(std::move(fresh));
  memo.seen.insert(project(memo));
  return out;
}

}  // namespace splice::workload
