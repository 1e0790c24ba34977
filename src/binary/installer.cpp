#include "src/binary/installer.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "src/support/error.hpp"
#include "src/support/flight.hpp"
#include "src/support/strings.hpp"
#include "src/support/trace.hpp"

namespace splice::binary {

namespace {
std::string read_file(const std::filesystem::path& p) {
  std::ifstream in(p, std::ios::binary);
  if (!in) throw BinaryError("cannot read " + p.string());
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void write_file(const std::filesystem::path& p, const std::string& data) {
  std::filesystem::create_directories(p.parent_path());
  std::ofstream out(p, std::ios::binary | std::ios::trunc);
  if (!out) throw BinaryError("cannot write " + p.string());
  out << data;
}

/// Install prefix recorded inside a binary: lib path is <prefix>/lib/x.so.
std::filesystem::path prefix_of_lib(const std::string& lib_path) {
  return std::filesystem::path(lib_path).parent_path().parent_path();
}
}  // namespace

Installer::Installer(InstalledDatabase& db,
                     std::function<std::string(const std::string&)> surface_of)
    : db_(db),
      surface_of_(surface_of ? std::move(surface_of)
                             : [](const std::string& n) { return n; }) {}

MockBinary Installer::compose_binary(const spec::Spec& s,
                                     std::size_t node_idx) const {
  const InstallLayout& layout = db_.layout();
  const spec::SpecNode& node = s.nodes()[node_idx];
  MockBinary b;
  b.name = node.name;
  b.version = node.concrete_version()->str();
  b.hash = node.hash;
  b.soname = layout.lib_path(node).string();
  b.exports = abi_symbols(surface_of_(node.name));
  std::vector<std::string> embedded{layout.prefix(node).string()};
  for (const spec::DepEdge& e : node.deps) {
    if (e.type != spec::DepType::Link) continue;
    const spec::SpecNode& dep = s.nodes()[e.child];
    b.rpaths.push_back(layout.prefix(dep).string());
    NeededEntry n;
    n.name = dep.name;
    n.hash = dep.hash;
    n.path = layout.lib_path(dep).string();
    n.symbols = abi_symbols(surface_of_(dep.name));
    b.needed.push_back(std::move(n));
    embedded.push_back(layout.prefix(dep).string());
  }
  b.code = make_code_blob(node.hash, embedded, code_size_);
  // Simulated compilation: deterministic mixing passes over the blob.  The
  // embedded path strings are re-planted afterwards so relocation still has
  // its targets.
  if (compile_effort_ > 0) {
    std::uint64_t state = 0x9e3779b97f4a7c15ULL;
    for (std::size_t pass = 0; pass < compile_effort_; ++pass) {
      for (char& c : b.code) {
        state = state * 6364136223846793005ULL +
                static_cast<unsigned char>(c) + pass;
        c = static_cast<char>('a' + ((state >> 33) % 26));
      }
    }
    std::size_t pos = 16;
    for (const std::string& path : embedded) {
      std::string planted = '\0' + path + '\0';
      if (pos + planted.size() < b.code.size()) {
        b.code.replace(pos, planted.size(), planted);
      }
      pos += planted.size() + 24;
    }
  }
  return b;
}

void Installer::write_node_binary(const spec::SpecNode& node,
                                  const std::string& bytes) {
  write_file(db_.layout().lib_path(node), bytes);
}

InstallReport Installer::install_from_source(const spec::Spec& concrete) {
  flight::Span span("install_from_source", "install");
  if (!concrete.is_concrete()) {
    throw BinaryError("install_from_source: spec is not concrete");
  }
  InstallReport report;
  for (std::size_t i : concrete.topological_order()) {
    const spec::SpecNode& node = concrete.nodes()[i];
    if (db_.has(node.hash)) {
      ++report.reused;
      continue;
    }
    MockBinary b = compose_binary(concrete, i);
    std::string bytes = b.serialize();
    write_node_binary(node, bytes);
    report.bytes_written += bytes.size();
    ++report.built;
    flight::Recorder::global().emit(
        flight::EventKind::InstallStep,
        static_cast<std::int64_t>(bytes.size()), 0, node.name,
        flight::Phase::Install);
    db_.add(concrete.subdag(i), db_.layout().prefix(node), i == 0);
  }
  return report;
}

InstallReport Installer::install_from_cache(const spec::Spec& concrete,
                                            const BuildCache& cache) {
  flight::Span span("install_from_cache", "install");
  if (!concrete.is_concrete()) {
    throw BinaryError("install_from_cache: spec is not concrete");
  }
  InstallReport report;
  const InstallLayout& layout = db_.layout();
  for (std::size_t i : concrete.topological_order()) {
    const spec::SpecNode& node = concrete.nodes()[i];
    if (db_.has(node.hash)) {
      ++report.reused;
      continue;
    }
    if (!cache.contains(node.hash)) {
      // Fall back to a source build of just this node.
      MockBinary b = compose_binary(concrete, i);
      std::string bytes = b.serialize();
      write_node_binary(node, bytes);
      report.bytes_written += bytes.size();
      ++report.built;
      flight::Recorder::global().emit(
          flight::EventKind::InstallStep,
          static_cast<std::int64_t>(bytes.size()), 0, node.name,
          flight::Phase::Install);
      db_.add(concrete.subdag(i), layout.prefix(node), i == 0);
      continue;
    }
    // Relocation (§3.4): rewrite the build-time prefixes embedded in the
    // cached binary to this tree's prefixes.
    std::string bytes = cache.fetch_binary(node.hash);
    MockBinary b = MockBinary::parse(bytes);
    std::vector<std::pair<std::string, std::string>> mapping;
    mapping.emplace_back(prefix_of_lib(b.soname).string(),
                         layout.prefix(node).string());
    for (const NeededEntry& n : b.needed) {
      auto dep_idx = concrete.find_index(n.name);
      if (!dep_idx) {
        throw BinaryError("relocation: cached binary for " + node.name +
                          " needs " + n.name + " which the spec lacks");
      }
      mapping.emplace_back(
          prefix_of_lib(n.path).string(),
          layout.prefix(concrete.nodes()[*dep_idx]).string());
    }
    bytes = rewrite_paths(std::move(bytes), mapping);
    write_node_binary(node, bytes);
    report.bytes_written += bytes.size();
    ++report.relocated;
    flight::Recorder::global().emit(
        flight::EventKind::InstallStep,
        static_cast<std::int64_t>(bytes.size()), 1, node.name,
        flight::Phase::Install);
    db_.add(concrete.subdag(i), layout.prefix(node), i == 0);
  }
  return report;
}

std::string Installer::locate_original_binary(const spec::Spec& build_spec,
                                              const BuildCache& cache) const {
  const std::string& hash = build_spec.dag_hash();
  if (const InstallRecord* rec = db_.get(hash)) {
    return read_file(db_.layout().lib_path(rec->spec.root()));
  }
  if (cache.contains(hash)) return cache.fetch_binary(hash);
  throw BinaryError(
      "rewire: original binary " + hash + " (" + build_spec.root().name +
      ") is neither installed nor in the buildcache; cannot splice without it");
}

InstallReport Installer::rewire(const spec::Spec& spliced,
                                const BuildCache& cache) {
  flight::Span span("rewire", "install");
  if (!spliced.is_concrete()) {
    throw BinaryError("rewire: spec is not concrete");
  }
  InstallReport report;
  const InstallLayout& layout = db_.layout();
  for (std::size_t i : spliced.topological_order()) {
    const spec::SpecNode& node = spliced.nodes()[i];
    if (db_.has(node.hash)) {
      ++report.reused;
      continue;
    }
    if (!node.build_spec) {
      // Ordinary node: cache install or source build.
      spec::Spec sub = spliced.subdag(i);
      InstallReport r = cache.contains(node.hash)
                            ? install_from_cache(sub, cache)
                            : install_from_source(sub);
      report.built += r.built;
      report.reused += r.reused;
      report.relocated += r.relocated;
      report.bytes_written += r.bytes_written;
      continue;
    }

    // Rewiring (§4.2): patch the ORIGINAL binary (how this node was built,
    // per its build spec) so its dependency references point at the spliced
    // dependencies.
    const spec::Spec& build_spec = *node.build_spec;
    std::string bytes = locate_original_binary(build_spec, cache);
    MockBinary b = MockBinary::parse(bytes);

    // Pair old NEEDED entries with new link deps: by name first, then
    // positionally for the renamed replacement (e.g. mpich -> cray-mpich).
    std::vector<const spec::SpecNode*> new_deps;
    for (const spec::DepEdge& e : node.deps) {
      if (e.type == spec::DepType::Link) new_deps.push_back(&spliced.nodes()[e.child]);
    }
    std::vector<bool> new_used(new_deps.size(), false);
    std::vector<std::pair<NeededEntry*, const spec::SpecNode*>> pairs;
    std::vector<NeededEntry*> unmatched_old;
    for (NeededEntry& n : b.needed) {
      bool matched = false;
      for (std::size_t d = 0; d < new_deps.size(); ++d) {
        if (!new_used[d] && new_deps[d]->name == n.name) {
          pairs.emplace_back(&n, new_deps[d]);
          new_used[d] = true;
          matched = true;
          break;
        }
      }
      if (!matched) unmatched_old.push_back(&n);
    }
    for (NeededEntry* n : unmatched_old) {
      std::size_t d = 0;
      while (d < new_deps.size() && new_used[d]) ++d;
      if (d == new_deps.size()) {
        throw BinaryError("rewire: no replacement dependency for " + n->name +
                          " in spliced spec of " + node.name);
      }
      pairs.emplace_back(n, new_deps[d]);
      new_used[d] = true;
    }

    // Apply: structured fields by assignment, code blob by byte rewriting.
    std::vector<std::pair<std::string, std::string>> code_mapping;
    code_mapping.emplace_back(prefix_of_lib(b.soname).string(),
                              layout.prefix(node).string());
    for (auto& [old_entry, new_dep] : pairs) {
      code_mapping.emplace_back(prefix_of_lib(old_entry->path).string(),
                                layout.prefix(*new_dep).string());
      old_entry->name = new_dep->name;
      old_entry->hash = new_dep->hash;
      old_entry->path = layout.lib_path(*new_dep).string();
      // Imported symbols stay: ABI compatibility means the new dependency
      // exports the same surface the binary was compiled against.
    }
    b.soname = layout.lib_path(node).string();
    b.hash = node.hash;
    for (std::string& r : b.rpaths) {
      for (const auto& [from, to] : code_mapping) {
        r = replace_all(std::move(r), from, to);
      }
    }
    for (const auto& [from, to] : code_mapping) {
      b.code = replace_all(std::move(b.code), from, to);
    }

    std::string out = b.serialize();
    write_node_binary(node, out);
    report.bytes_written += out.size();
    ++report.rewired;
    flight::Recorder::global().emit(
        flight::EventKind::RewireStep,
        static_cast<std::int64_t>(out.size()), 0, node.name,
        flight::Phase::Install);
    db_.add(spliced.subdag(i), layout.prefix(node), i == 0);
  }
  if (flight::Recorder::global().enabled()) {
    trace::MetricsRegistry& m = trace::Tracer::global().metrics();
    m.add("install.rewired", static_cast<std::int64_t>(report.rewired));
    m.add("install.relocated", static_cast<std::int64_t>(report.relocated));
    m.add("install.built", static_cast<std::int64_t>(report.built));
    m.add("install.bytes_written",
          static_cast<std::int64_t>(report.bytes_written));
  }
  return report;
}

void Installer::push_to_cache(const spec::Spec& concrete,
                              BuildCache& cache) const {
  for (std::size_t i : concrete.topological_order()) {
    const spec::SpecNode& node = concrete.nodes()[i];
    if (cache.contains(node.hash)) continue;
    std::string bytes = read_file(db_.layout().lib_path(node));
    cache.push(concrete.subdag(i), bytes);
  }
}

void Installer::verify_runnable(const spec::Spec& concrete) const {
  const InstallLayout& layout = db_.layout();
  for (std::size_t i : concrete.topological_order()) {
    const spec::SpecNode& node = concrete.nodes()[i];
    auto lib = layout.lib_path(node);
    if (!std::filesystem::exists(lib)) {
      throw BinaryError("loader: missing library " + lib.string());
    }
    MockBinary b = MockBinary::parse(read_file(lib));
    if (b.hash != node.hash) {
      throw BinaryError("loader: " + node.name + " binary hash " + b.hash +
                        " does not match spec hash " + node.hash);
    }
    for (const NeededEntry& n : b.needed) {
      if (!std::filesystem::exists(n.path)) {
        throw BinaryError("loader: " + node.name + " needs " + n.name +
                          " at " + n.path + " which does not exist");
      }
      MockBinary dep = MockBinary::parse(read_file(n.path));
      for (const std::string& sym : n.symbols) {
        if (std::find(dep.exports.begin(), dep.exports.end(), sym) ==
            dep.exports.end()) {
          throw BinaryError("loader: undefined symbol " + sym + " in " +
                            n.name + " (needed by " + node.name +
                            "): ABI-incompatible substitution");
        }
      }
    }
  }
}

}  // namespace splice::binary
