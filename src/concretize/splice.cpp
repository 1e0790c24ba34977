#include "src/concretize/splice.hpp"

#include <algorithm>
#include <map>

#include "src/support/error.hpp"
#include "src/support/flight.hpp"

namespace splice::concretize {

using spec::DepEdge;
using spec::DepType;
using spec::Spec;
using spec::SpecNode;

namespace {

/// Where a merged node came from.
struct Origin {
  const Spec* source;
  std::size_t index;
};

}  // namespace

Spec splice(const Spec& target, std::string_view replace_name,
            const Spec& replacement, bool transitive) {
  flight::Span span("splice", "splice");
  if (!target.is_concrete()) {
    throw SpecError("splice: target spec is not concrete");
  }
  if (!replacement.is_concrete()) {
    throw SpecError("splice: replacement spec is not concrete");
  }
  auto replaced_idx = target.find_index(replace_name);
  if (!replaced_idx) {
    throw SpecError("splice: target has no node named '" +
                    std::string(replace_name) + "'");
  }
  if (*replaced_idx == 0) {
    throw SpecError("splice: cannot replace the root of a spec");
  }

  const std::string& repl_root_name = replacement.root().name;
  if (repl_root_name != replace_name && target.find(repl_root_name) != nullptr) {
    throw SpecError("splice: replacement '" + repl_root_name +
                    "' already exists in the target DAG");
  }

  // ---- choose one node per package name ------------------------------
  std::map<std::string, Origin> chosen;
  for (std::size_t i = 0; i < target.nodes().size(); ++i) {
    if (i == *replaced_idx) continue;
    chosen[target.nodes()[i].name] = Origin{&target, i};
  }
  for (std::size_t j = 0; j < replacement.nodes().size(); ++j) {
    const std::string& name = replacement.nodes()[j].name;
    if (j == 0) {
      chosen[name] = Origin{&replacement, 0};  // the splice itself
    } else if (transitive) {
      chosen[name] = Origin{&replacement, j};  // replacement wins shared deps
    } else {
      chosen.emplace(name, Origin{&replacement, j});  // target wins
    }
  }

  // ---- build the merged DAG ------------------------------------------
  Spec merged;
  std::map<std::string, std::size_t> index_of;
  {
    // Root first, the rest in name order (deterministic layout).
    SpecNode root_copy = target.root();
    root_copy.deps.clear();
    std::string root_name = root_copy.name;
    index_of[root_name] = merged.add_node(std::move(root_copy));
    for (const auto& [name, origin] : chosen) {
      if (name == target.root().name) continue;
      SpecNode copy = origin.source->nodes()[origin.index];
      copy.deps.clear();
      index_of[name] = merged.add_node(std::move(copy));
    }
  }
  auto origin_of = [&](const std::string& name) -> const Origin& {
    return chosen.at(name);
  };

  // Wire edges, remapping references to the replaced node.
  for (const auto& [name, origin] : chosen) {
    const SpecNode& src = origin.source->nodes()[origin.index];
    for (const DepEdge& e : src.deps) {
      std::string child_name = origin.source->nodes()[e.child].name;
      if (origin.source == &target && child_name == replace_name) {
        child_name = repl_root_name;
      }
      merged.add_dep(index_of.at(name), index_of.at(child_name), e.type);
    }
  }

  // ---- determine which nodes changed ----------------------------------
  // changed(n): some link-run child either resolved to a node with a
  // different original hash, or is itself changed.  Bottom-up.
  std::vector<std::size_t> order = merged.topological_order();
  std::vector<bool> changed(merged.nodes().size(), false);
  for (std::size_t n : order) {
    const std::string& name = merged.nodes()[n].name;
    const Origin& origin = origin_of(name);
    const SpecNode& src = origin.source->nodes()[origin.index];
    for (const DepEdge& e : src.deps) {
      if (e.type != DepType::Link) continue;
      std::string child_name = origin.source->nodes()[e.child].name;
      if (origin.source == &target && child_name == replace_name) {
        child_name = repl_root_name;
      }
      const Origin& child_origin = origin_of(child_name);
      const std::string& expected = origin.source->nodes()[e.child].hash;
      const std::string& actual =
          child_origin.source->nodes()[child_origin.index].hash;
      if (expected != actual || changed[index_of.at(child_name)]) {
        changed[n] = true;
        break;
      }
    }
  }

  // ---- apply splice consequences to changed nodes ----------------------
  for (std::size_t n = 0; n < merged.nodes().size(); ++n) {
    if (!changed[n]) continue;
    SpecNode& node = merged.nodes()[n];
    const Origin& origin = origin_of(node.name);
    const SpecNode& src = origin.source->nodes()[origin.index];
    // Build provenance: the original build of this binary.  If the source
    // node was itself spliced, keep pointing at the true original build.
    node.build_spec = src.build_spec
                          ? src.build_spec
                          : std::make_shared<Spec>(
                                origin.source->subdag(origin.index));
    // Build dependencies describe the original build only; drop them from
    // the runtime representation (paper §4.1).
    node.deps.erase(std::remove_if(node.deps.begin(), node.deps.end(),
                                   [](const DepEdge& e) {
                                     return e.type == DepType::Build;
                                   }),
                    node.deps.end());
  }

  // ---- prune unreachable nodes and rehash ------------------------------
  Spec result = merged.subdag(0);
  result.finalize_concrete();
  return result;
}

}  // namespace splice::concretize
