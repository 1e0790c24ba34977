// splicebench: the libsplice benchmark binary (README.md beside this file).
//
// One process runs one workload for a seeded request order, checks every
// answer against its oracle, and prints one JSON result line last:
//
//   radiuss-batch     closed-loop ConcretizerPool batches over the 32 RADIUSS
//                     roots against the local cache, splicing on;
//   public10k-splice  the 17 MPI-dependent roots one at a time against the
//                     synthetic 10,000-node public cache, splicing on;
//   deploy-churn      concretize, build, rewire, verify, push and register
//                     each MPI-dependent root in turn, from an empty install
//                     tree and a buildcache seeded with the mpich stack.
//
// With --trace 0 the result carries the end-to-end metrics.  With --trace 1
// the run records spans around every call it makes into the library (the
// benchmark's own spans; nothing inside the library is instrumented) and
// reports per-layer self times and counters instead, and writes the spans
// as a Chrome trace into the work directory.
//
// --write-goldens FILE regenerates a workload's golden answers and
// cross-checks them against the unpruned (prune_reuse = false) path.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/binary/buildcache.hpp"
#include "src/binary/database.hpp"
#include "src/binary/installer.hpp"
#include "src/concretize/concretizer.hpp"
#include "src/concretize/pool.hpp"
#include "src/concretize/reach.hpp"
#include "src/support/error.hpp"
#include "src/support/json.hpp"
#include "src/workload/caches.hpp"
#include "src/workload/radiuss.hpp"

extern char** environ;

namespace {

using namespace splice;
namespace fs = std::filesystem;
using concretize::ConcretizeResult;
using concretize::Concretizer;
using concretize::Request;
namespace reach = concretize::reach;

constexpr std::size_t kPublicCacheNodes = 10000;
constexpr std::size_t kSetupRepeats = 3;  ///< setups per untraced run; median reported
constexpr int kSerialBatches = 2;  ///< jobs-1 batches for pool.request_inflation
constexpr int kMinPasses = 3;      ///< public10k-splice passes per run, at least
/// Golden generation cross-checks a request against the unpruned path when
/// its pruned solve took at most this long: unpruned requests against the
/// public cache cost ~10x that.
constexpr double kCrosscheckMaxS = 4;
// Paths relative to the checkout root, the working directory.
const fs::path kGoldens = "splicebench/goldens";
const fs::path kTraces = ".bench_build/traces";

// ---- clock and statistics ---------------------------------------------------

const std::chrono::steady_clock::time_point kEpoch =
    std::chrono::steady_clock::now();

double now() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       kEpoch)
      .count();
}

/// Linear-interpolated quantile (the "inclusive" method); 0 when empty.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  auto lo = static_cast<std::size_t>(pos);
  std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double sum(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s;
}

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::size_t workers() {
  std::size_t n = std::thread::hardware_concurrency();
  return std::clamp<std::size_t>(n, 1, 4);
}

/// Seeded Fisher-Yates permutation of 0..n-1, identical on every platform.
std::vector<std::size_t> permutation(std::size_t n, std::mt19937_64& rng) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  for (std::size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[rng() % i]);
  }
  return order;
}

// ---- spans ------------------------------------------------------------------

/// Request id of spans that belong to no timed request.
constexpr long kSetup = -1;
constexpr long kProbe = -2;

struct Span {
  std::string name;
  std::string layer;
  double start = 0;
  double end = 0;
  int parent = -1;
  long request = kSetup;
  /// Worker lanes the interval stands for: a pool batch's wall time is
  /// shared by its workers, so its self time is wall x lanes - children.
  double lanes = 1;
  /// Interval reconstructed from stats a call returned (its duration is
  /// measured; its placement inside the parent is not).
  bool derived = false;

  double seconds() const { return end - start; }
};

/// In-memory span store.  Off (the untraced runs) it records nothing.
class Trace {
 public:
  explicit Trace(bool on) : on_(on) {}

  bool on() const { return on_; }

  int open(std::string name, std::string layer, int parent, long request) {
    if (!on_) return -1;
    spans_.push_back(
        {std::move(name), std::move(layer), now(), 0, parent, request});
    return static_cast<int>(spans_.size()) - 1;
  }

  void close(int id) {
    if (id >= 0) spans_[id].end = now();
  }

  int add_derived(std::string name, std::string layer, int parent,
                  double start, double seconds) {
    if (!on_) return -1;
    Span s{std::move(name), std::move(layer), start, start + seconds, parent,
           spans_[parent].request};
    s.derived = true;
    spans_.push_back(std::move(s));
    return static_cast<int>(spans_.size()) - 1;
  }

  Span& at(int id) { return spans_.at(id); }
  const std::vector<Span>& spans() const { return spans_; }

  /// Summed duration of the setup spans named `name`.
  double setup_seconds(const std::string& name) const {
    double s = 0;
    for (const Span& sp : spans_) {
      if (sp.request == kSetup && sp.name == name) s += sp.seconds();
    }
    return s;
  }

  /// Self time per layer over every span of a timed request: duration x
  /// lanes minus the durations of its children.
  std::map<std::string, double> self_by_layer() const {
    std::vector<double> children(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) children[s.parent] += s.seconds();
    }
    std::map<std::string, double> self;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (s.request >= 0) self[s.layer] += s.seconds() * s.lanes - children[i];
    }
    return self;
  }

  /// Chrome trace-event JSON (chrome://tracing, Perfetto): one complete
  /// event per span, one track per request.
  void write(const fs::path& path) const {
    std::ofstream out(path);
    out << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char buf[160];
      std::snprintf(buf, sizeof buf,
                    "\"ph\":\"X\",\"pid\":1,\"tid\":%ld,\"ts\":%.3f,"
                    "\"dur\":%.3f",
                    s.request, s.start * 1e6, s.seconds() * 1e6);
      out << (i ? ",\n" : "\n") << "{\"name\":" << json::escape(s.name)
          << ",\"cat\":" << json::escape(s.layer) << "," << buf
          << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
          << ",\"request\":" << s.request << ",\"lanes\":" << s.lanes
          << ",\"derived\":" << (s.derived ? "true" : "false") << "}}";
    }
    out << "\n]}\n";
  }

 private:
  bool on_;
  std::vector<Span> spans_;
};

/// A span open for the lifetime of the scope.
class Scope {
 public:
  Scope(Trace& trace, std::string name, std::string layer, int parent,
        long request)
      : trace_(trace),
        id_(trace.open(std::move(name), std::move(layer), parent, request)) {}
  ~Scope() { trace_.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  int id() const { return id_; }

 private:
  Trace& trace_;
  int id_;
};

/// Run `body` inside a span and return its wall time.
template <typename F>
double timed(Trace& trace, const char* name, const char* layer, int parent,
             long request, F&& body) {
  Scope sp(trace, name, layer, parent, request);
  const double t0 = now();
  body();
  return now() - t0;
}

/// The ASP phases of one concretize call, as spans derived from the
/// SolveStats it returned, right-aligned inside the call's span (extract
/// runs after them, prune and compile before).
void add_asp_spans(Trace& trace, int call, const asp::SolveStats& st) {
  if (call < 0) return;
  double at = trace.at(call).end - st.total_seconds();
  at = std::max(at, trace.at(call).start);
  const std::pair<const char*, double> phases[] = {
      {"asp::ground", st.ground_seconds},
      {"asp::translate", st.translate_seconds},
      {"asp::solve", st.solve_seconds}};
  for (const auto& [name, secs] : phases) {
    trace.add_derived(name, "asp", call, at, secs);
    at += secs;
  }
}

// ---- metrics ----------------------------------------------------------------

struct Metric {
  const char* name;
  const char* unit;
};

constexpr Metric kEndToEnd[] = {
    {"setup_s", "s"},
    {"throughput_rps", "1/s"},
    {"request_s_p50", "s"},
    {"request_s_p90", "s"},
    {"builds_per_request", "count"},
    {"peak_rss_mb", "MB"},
};

// Per-request means unless the README says "per run".
constexpr Metric kPerLayer[] = {
    {"workload.self_s", "s"},
    {"workload.repo_s", "s"},
    {"workload.cache_gen_s", "s"},
    {"workload.seed_install_s", "s"},
    {"concretize.self_s", "s"},
    {"concretize.register_s", "s"},
    {"concretize.prune_s", "s"},
    {"concretize.prune_kept", "count"},
    {"concretize.prune_kept_ratio", "ratio"},
    {"concretize.compile_s", "s"},
    {"concretize.compile_cache_builds", "count"},
    {"concretize.compile_cache_hit_ratio", "ratio"},
    {"concretize.residual_s", "s"},
    {"asp.self_s", "s"},
    {"asp.ground_s", "s"},
    {"asp.ground_atoms", "count"},
    {"asp.ground_rules", "count"},
    {"asp.ground_iterations", "count"},
    {"asp.ground_instances", "count"},
    {"asp.join_candidates", "count"},
    {"asp.translate_s", "s"},
    {"asp.sat_vars", "count"},
    {"asp.sat_clauses", "count"},
    {"asp.solve_s", "s"},
    {"asp.conflicts", "count"},
    {"asp.propagations", "count"},
    {"asp.models_enumerated", "count"},
    {"pool.self_s", "s"},
    {"pool.batch_s", "s"},
    {"pool.parallel_efficiency", "ratio"},
    {"pool.request_inflation", "ratio"},
    {"binary.self_s", "s"},
    {"binary.build_s", "s"},
    {"binary.rewire_s", "s"},
    {"binary.verify_s", "s"},
    {"binary.push_s", "s"},
    {"binary.rewired", "count"},
    {"binary.relocated", "count"},
    {"binary.bytes_written", "bytes"},
    {"binary.install_s_p50", "s"},
    {"trace.request_s", "s"},
    {"trace.request_s_p50", "s"},
};

/// Values for one metric table; every name must come from `table`.
class Metrics {
 public:
  template <std::size_t N>
  explicit Metrics(const Metric (&table)[N]) : table_(table, table + N) {}

  void set(const std::string& name, double value) {
    for (const Metric& m : table_) {
      if (name == m.name) {
        values_[name] = value;
        return;
      }
    }
    throw Error("splicebench: unknown metric " + name);
  }
  void add(const std::string& name, double value) {
    set(name, get(name) + value);
  }
  double get(const std::string& name) const {
    auto it = values_.find(name);
    return it == values_.end() ? 0.0 : it->second;
  }

  /// {"name": {"value": v, "unit": u}, ...} over the whole table; metrics
  /// of a layer the workload bypasses read 0.
  std::string json() const {
    std::string out = "{";
    for (const Metric& m : table_) {
      char buf[64];
      std::snprintf(buf, sizeof buf, "%.17g", get(m.name));
      if (out.size() > 1) out += ", ";
      out += json::escape(m.name) + ": {\"value\": " + buf +
             ", \"unit\": " + json::escape(m.unit) + "}";
    }
    return out + "}";
  }

  void print(std::FILE* f) const {
    for (const Metric& m : table_) {
      std::fprintf(f, "  %-36s %14.6g %s\n", m.name, get(m.name), m.unit);
    }
  }

 private:
  std::vector<Metric> table_;
  std::map<std::string, double> values_;
};

// ---- oracles ----------------------------------------------------------------

/// The outcome a request is checked on: objective vector, build names,
/// splice decisions and root DAG hash.  Zero-cost objective levels are
/// dropped: a level with no ground atoms (pruning can empty one) is absent
/// from the vector and means exactly cost 0.  Without `origins`, splice
/// decisions omit the hash of the original binary, which equally good
/// candidates tie on.
json::Value golden_of(const ConcretizeResult& r, bool origins = true) {
  json::Array objectives;
  for (const auto& [priority, cost] : r.objectives) {
    if (cost == 0) continue;
    objectives.push_back(json::Array{json::Value(priority), json::Value(cost)});
  }
  std::vector<std::string> builds = r.build_names;
  std::sort(builds.begin(), builds.end());
  std::vector<std::string> splices;
  for (const concretize::SpliceDecision& s : r.splices) {
    splices.push_back(s.parent_name +
                      (origins ? "/" + s.parent_hash : std::string()) + ": " +
                      s.replaced_name + " -> " + s.replacement_name);
  }
  std::sort(splices.begin(), splices.end());
  json::Object g;
  g["objectives"] = std::move(objectives);
  g["builds"] = json::Array(builds.begin(), builds.end());
  g["splices"] = json::Array(splices.begin(), splices.end());
  g["dag_hash"] = r.spec.dag_hash();
  return json::Value(std::move(g));
}

class Goldens {
 public:
  explicit Goldens(const fs::path& file) {
    std::ifstream in(file);
    if (!in) throw Error("splicebench: cannot read goldens " + file.string());
    std::stringstream text;
    text << in.rdbuf();
    json::Value doc = json::parse(text.str());
    for (const auto& [request, golden] : doc["requests"].as_object()) {
      expected_[request] = golden.dump();
    }
  }

  /// Empty when `r` is the golden outcome of `request`, else why not.
  std::string check(const std::string& request,
                    const ConcretizeResult& r) const {
    auto it = expected_.find(request);
    if (it == expected_.end()) return request + ": no golden outcome";
    std::string got = golden_of(r).dump();
    if (got == it->second) return {};
    return request + ": golden mismatch: got " + got;
  }

 private:
  std::map<std::string, std::string> expected_;
};

/// Attempted and failed requests, and the latencies and build counts of the
/// successful ones.
struct Tally {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<double> request_s;
  double builds = 0;
  std::vector<std::string> errors;

  void ok(double seconds, std::size_t build_count) {
    ++attempted;
    request_s.push_back(seconds);
    builds += static_cast<double>(build_count);
  }
  void fail(std::string why) {
    ++attempted;
    ++failed;
    if (errors.size() < 8) errors.push_back(std::move(why));
  }
  std::size_t succeeded() const { return attempted - failed; }
};

// ---- workload state ---------------------------------------------------------

concretize::ConcretizerOptions splice_options(bool prune = true) {
  concretize::ConcretizerOptions opts;
  opts.encoding = concretize::ReuseEncoding::Indirect;
  opts.enable_splicing = true;
  opts.prune_reuse = prune;
  return opts;
}

/// "<root> ^mpiabi" for every MPI-dependent root; the bare root otherwise.
std::vector<std::string> request_texts(bool mpi_only) {
  std::vector<std::string> out;
  for (const std::string& root : workload::radiuss_roots()) {
    if (workload::depends_on_mpi(root)) {
      out.push_back(root + " ^mpiabi");
    } else if (!mpi_only) {
      out.push_back(root);
    }
  }
  return out;
}

using CacheGen =
    std::function<std::vector<spec::Spec>(const repo::Repository&)>;

/// The repository, the specs registered as reusable and a Concretizer over
/// them: what every workload sets up before its first timed request.
struct Stack {
  std::unique_ptr<repo::Repository> repo;
  std::vector<spec::Spec> cache;
  std::unique_ptr<Concretizer> concretizer;
};

Stack make_stack(Trace& trace, int parent, const CacheGen& gen) {
  Stack s;
  {
    Scope sp(trace, "workload::radiuss_repo", "workload", parent, kSetup);
    s.repo = std::make_unique<repo::Repository>(workload::radiuss_repo());
  }
  {
    Scope sp(trace, "workload::cache_specs", "workload", parent, kSetup);
    s.cache = gen(*s.repo);
  }
  {
    Scope sp(trace, "Concretizer::add_reusable_all", "concretize", parent,
             kSetup);
    s.concretizer = std::make_unique<Concretizer>(*s.repo, splice_options());
    s.concretizer->add_reusable_all(s.cache);
  }
  return s;
}

std::vector<spec::Spec> public_cache(const repo::Repository& repo) {
  return workload::public_cache_specs(repo, kPublicCacheNodes);
}

/// The benchmark's own copy of the concretizer's reusable map, the input
/// reach::slice_reusable needs (mirrors Concretizer::add_reusable).
struct ReuseIndex {
  std::map<std::string, spec::Spec> reusable;
  std::map<std::string, std::set<std::string>> edges;

  void add(const spec::Spec& s) {
    for (std::size_t i = 0; i < s.nodes().size(); ++i) {
      const spec::SpecNode& node = s.nodes()[i];
      for (const spec::DepEdge& e : node.deps) {
        edges[node.name].insert(s.nodes()[e.child].name);
      }
      if (reusable.count(node.hash) == 0) reusable.emplace(node.hash, s.subdag(i));
    }
  }
};

// ---- per-request layer accounting --------------------------------------------

/// Time reach::slice_reusable and Concretizer::compile_program for one
/// request.  A compile-cache miss is paid here, so the concretize call that
/// follows reads a warm cache.
void probe_compile(Trace& trace, Metrics& m, int parent, long id,
                   const repo::Repository& repo, const Concretizer& c,
                   const ReuseIndex& index, const Request& request) {
  reach::Slice slice;
  m.add("concretize.prune_s",
        timed(trace, "reach::slice_reusable", "concretize", parent, id, [&] {
          slice = reach::slice_reusable(repo, index.reusable, index.edges,
                                        {request});
        }));
  m.add("concretize.prune_kept", static_cast<double>(slice.keep.size()));
  m.add("concretize.prune_kept_ratio",
        static_cast<double>(slice.keep.size()) /
            static_cast<double>(std::max<std::size_t>(slice.total, 1)));
  std::size_t builds = c.compile_cache_builds();
  m.add("concretize.compile_s",
        timed(trace, "Concretizer::compile_program", "concretize", parent, id,
              [&] { c.compile_program({request}); }));
  m.add("concretize.compile_cache_builds",
        static_cast<double>(c.compile_cache_builds() - builds));
}

/// Ground-cost counters for one request: its program grounded once more,
/// untimed, with per-rule cost accounting.  These are the counters
/// Concretizer::profile folds onto directives; grounding without its
/// provenance and solve keeps the traced run within its time limit.
void probe_ground(Trace& trace, Metrics& m, const Concretizer& c,
                  const Request& request) {
  Scope sp(trace, "asp::ground", "asp", -1, kProbe);
  asp::GroundOptions opts;
  opts.profile = true;
  asp::GroundProgram gp = asp::ground(c.compile_program({request}), opts);
  for (const asp::GroundProfile::RuleCost& rule : gp.profile->per_rule) {
    m.add("asp.ground_instances", static_cast<double>(rule.instantiations));
    m.add("asp.join_candidates", static_cast<double>(rule.join_candidates));
  }
  m.add("asp.join_candidates",
        static_cast<double>(gp.profile->minimize_join_candidates));
}

/// Accumulate the SolveStats counters of one result, and its residual: the
/// call's wall time not spent in ground, translate or solve.
void add_solve_stats(Metrics& m, const asp::SolveStats& st, double wall) {
  m.add("asp.ground_s", st.ground_seconds);
  m.add("asp.translate_s", st.translate_seconds);
  m.add("asp.solve_s", st.solve_seconds);
  m.add("asp.ground_atoms", static_cast<double>(st.ground.possible_atoms));
  m.add("asp.ground_rules", static_cast<double>(st.ground.rules));
  m.add("asp.ground_iterations", static_cast<double>(st.ground.iterations));
  m.add("asp.sat_vars", static_cast<double>(st.sat_vars));
  m.add("asp.sat_clauses", static_cast<double>(st.sat_clauses));
  m.add("asp.conflicts", static_cast<double>(st.conflicts));
  m.add("asp.propagations", static_cast<double>(st.propagations));
  m.add("asp.models_enumerated", static_cast<double>(st.models_enumerated));
  m.add("concretize.residual_s", wall - st.total_seconds());
}

/// Turn the sums accumulated over `requests` timed requests (and `probed`
/// ground-cost probes) into per-request means, and add the span self times.
void finish_layers(Metrics& m, const Trace& trace, double requests,
                   double probed) {
  static const char* const kPerRequest[] = {
      "concretize.prune_s", "concretize.prune_kept",
      "concretize.prune_kept_ratio", "concretize.compile_s",
      "concretize.compile_cache_builds", "concretize.residual_s",
      "asp.ground_s", "asp.translate_s", "asp.solve_s", "asp.ground_atoms",
      "asp.ground_rules", "asp.ground_iterations", "asp.sat_vars",
      "asp.sat_clauses", "asp.conflicts", "asp.propagations",
      "asp.models_enumerated", "binary.build_s", "binary.rewire_s",
      "binary.verify_s", "binary.push_s", "binary.rewired",
      "binary.relocated", "binary.bytes_written"};
  for (const char* name : kPerRequest) m.set(name, m.get(name) / requests);
  for (const char* name : {"asp.ground_instances", "asp.join_candidates"}) {
    m.set(name, m.get(name) / std::max(probed, 1.0));
  }
  double total = 0;
  for (const auto& [layer, self] : trace.self_by_layer()) {
    m.set(layer + ".self_s", self / requests);
    total += self;
  }
  m.set("trace.request_s", total / requests);
  m.set("workload.repo_s", trace.setup_seconds("workload::radiuss_repo"));
  m.set("workload.cache_gen_s", trace.setup_seconds("workload::cache_specs"));
}

// ---- the run ----------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  fs::path workdir = ".bench_build/work";
  std::string revision = "unknown";
  fs::path write_goldens;
};

struct Run {
  explicit Run(const Options& o) : opts(o), trace(o.trace) {}

  const Options& opts;
  Trace trace;
  Tally tally;
  Metrics e2e{kEndToEnd};
  Metrics layers{kPerLayer};
  std::vector<double> setups;
  double timed_s = 0;  ///< summed service time of the timed requests

  /// Time one setup; `body` builds the state the timed phase then uses.
  template <typename F>
  auto timed_setup(F&& body) {
    double t0 = now();
    int root = trace.open("setup", "workload", -1, kSetup);
    auto state = body(root);
    trace.close(root);
    setups.push_back(now() - t0);
    return state;
  }

  /// After the timed phase: sample peak RSS, then (untraced) repeat the
  /// setup so setup_s is a median.  `again` must release what it builds.
  void finish(const std::function<void()>& again) {
    const double rss_mb = peak_rss_mb();
    if (!opts.trace) {
      while (setups.size() < kSetupRepeats) again();
    }
    double n = static_cast<double>(std::max<std::size_t>(tally.succeeded(), 1));
    e2e.set("setup_s", quantile(setups, 0.5));
    e2e.set("throughput_rps",
            static_cast<double>(tally.succeeded()) / std::max(timed_s, 1e-9));
    e2e.set("request_s_p50", quantile(tally.request_s, 0.5));
    e2e.set("request_s_p90", quantile(tally.request_s, 0.9));
    e2e.set("builds_per_request", tally.builds / n);
    e2e.set("peak_rss_mb", rss_mb);
  }
};

// radiuss-batch: back-to-back ConcretizerPool batches of all 32 roots, each
// batch in a fresh seeded order, after one untimed warm-up batch.
void radiuss_batch(Run& run) {
  const Options& o = run.opts;
  Trace& trace = run.trace;
  Metrics& m = run.layers;
  Goldens goldens(kGoldens / "radiuss-batch.json");
  std::vector<std::string> texts = request_texts(false);
  std::vector<Request> canonical(texts.begin(), texts.end());
  const std::size_t jobs = workers();

  auto setup = [&](int root) {
    Stack s = make_stack(trace, root, workload::local_cache_specs);
    concretize::ConcretizerPool pool(*s.concretizer, {jobs});
    Scope sp(trace, "ConcretizerPool::concretize_batch", "pool", root, kSetup);
    pool.concretize_batch(canonical);
    return s;
  };
  {
    Stack st = run.timed_setup(setup);
    const Concretizer& c = *st.concretizer;
    concretize::ConcretizerPool pool(c, {jobs});
    std::mt19937_64 rng(o.seed);
    std::vector<double> batch_walls;
    double worker_s = 0;
    long next_id = 0;
    const std::size_t cache_builds = c.compile_cache_builds();
    const double deadline = now() + o.seconds;
    do {
      std::vector<std::size_t> order = permutation(texts.size(), rng);
      std::vector<Request> batch;
      for (std::size_t i : order) batch.push_back(canonical[i]);
      concretize::BatchStats stats;
      int span = trace.open("ConcretizerPool::concretize_batch", "pool", -1,
                            next_id);
      std::vector<concretize::BatchItem> items =
          pool.concretize_batch(batch, &stats);
      trace.close(span);
      if (span >= 0) trace.at(span).lanes = static_cast<double>(stats.workers);
      batch_walls.push_back(stats.seconds);
      worker_s += stats.seconds * static_cast<double>(stats.workers);
      for (std::size_t k = 0; k < items.size(); ++k, ++next_id) {
        const concretize::BatchItem& item = items[k];
        const std::string& text = texts[order[k]];
        std::string bad = item.ok ? goldens.check(text, item.result)
                                  : text + ": " + item.error;
        if (!bad.empty()) {
          run.tally.fail(bad);
          continue;
        }
        run.tally.ok(item.seconds, item.result.build_names.size());
        if (trace.on()) {
          int call = trace.add_derived("Concretizer::concretize",
                                       "concretize", span,
                                       trace.at(span).start, item.seconds);
          trace.at(call).request = next_id;
          add_asp_spans(trace, call, item.result.stats);
          add_solve_stats(m, item.result.stats, item.seconds);
        }
      }
    } while (now() < deadline);
    run.timed_s = sum(batch_walls);

    if (trace.on()) {
      const double n = static_cast<double>(run.tally.request_s.size());
      m.set("concretize.compile_cache_builds",
            static_cast<double>(c.compile_cache_builds() - cache_builds));
      m.set("pool.batch_s",
            run.timed_s / static_cast<double>(batch_walls.size()));
      m.set("pool.parallel_efficiency", sum(run.tally.request_s) / worker_s);
      m.set("trace.request_s_p50", quantile(run.tally.request_s, 0.5));
      // The same requests on one worker: the per-request cost of running
      // `jobs` of them at once.
      concretize::ConcretizerPool serial(c, {1});
      std::vector<double> serial_s;
      for (int b = 0; b < kSerialBatches; ++b) {
        Scope sp(trace, "ConcretizerPool::concretize_batch", "pool", -1,
                 kProbe);
        for (const concretize::BatchItem& item :
             serial.concretize_batch(canonical)) {
          serial_s.push_back(item.seconds);
        }
      }
      m.set("pool.request_inflation",
            quantile(run.tally.request_s, 0.5) / quantile(serial_s, 0.5));
      finish_layers(m, trace, n, 1);
      // Slice, compile and ground each distinct request once, out of band:
      // inside the pool these costs are part of concretize.residual_s.
      ReuseIndex index;
      for (const spec::Spec& s : st.cache) index.add(s);
      Metrics probes{kPerLayer};
      for (const Request& r : canonical) {
        probe_compile(trace, probes, -1, kProbe, *st.repo, c, index, r);
        probe_ground(trace, probes, c, r);
      }
      for (const char* name :
           {"concretize.prune_s", "concretize.prune_kept",
            "concretize.prune_kept_ratio", "concretize.compile_s",
            "asp.ground_instances", "asp.join_candidates"}) {
        m.set(name, probes.get(name) / static_cast<double>(canonical.size()));
      }
      m.set("concretize.compile_cache_hit_ratio",
            1.0 - m.get("concretize.compile_cache_builds"));
      m.set("concretize.register_s",
            trace.setup_seconds("Concretizer::add_reusable_all"));
    }
  }
  run.finish([&] { run.timed_setup(setup); });
}

// public10k-splice: whole passes over the 17 MPI-dependent roots, one
// request at a time, each pass in a fresh seeded order.  At least three
// passes, so every request is timed at least three times (its first pass
// compiles its slice cold, later passes find it cached).
void public10k_splice(Run& run) {
  const Options& o = run.opts;
  Trace& trace = run.trace;
  Metrics& m = run.layers;
  Goldens goldens(kGoldens / "public10k-splice.json");
  std::vector<std::string> texts = request_texts(true);
  std::vector<Request> canonical(texts.begin(), texts.end());

  auto setup = [&](int root) { return make_stack(trace, root, public_cache); };
  {
    Stack st = run.timed_setup(setup);
    const Concretizer& c = *st.concretizer;
    ReuseIndex index;
    if (trace.on()) {
      for (const spec::Spec& s : st.cache) index.add(s);
    }
    std::mt19937_64 rng(o.seed);
    std::vector<double> traced_s;
    long next_id = 0;
    double probed = 0;
    const double deadline = now() + o.seconds;
    for (int pass = 0; pass < kMinPasses || now() < deadline; ++pass) {
      for (std::size_t i : permutation(texts.size(), rng)) {
        const long id = next_id++;
        const Request& request = canonical[i];
        const int req = trace.open("request", "workload", -1, id);
        ConcretizeResult result;
        std::string bad;
        double call_s = 0;
        int call = -1;
        try {
          if (trace.on()) {
            probe_compile(trace, m, req, id, *st.repo, c, index, request);
          }
          Scope sp(trace, "Concretizer::concretize", "concretize", req, id);
          call = sp.id();
          const double c0 = now();
          result = c.concretize(request);
          call_s = now() - c0;
        } catch (const Error& e) {
          bad = texts[i] + ": " + e.what();
        }
        if (bad.empty()) bad = goldens.check(texts[i], result);
        trace.close(req);
        run.timed_s += call_s;
        if (!bad.empty()) {
          run.tally.fail(bad);
          continue;
        }
        run.tally.ok(call_s, result.build_names.size());
        if (trace.on()) {
          traced_s.push_back(trace.at(req).seconds());
          add_asp_spans(trace, call, result.stats);
          add_solve_stats(m, result.stats, call_s);
          if (pass == 0) {
            probe_ground(trace, m, c, request);
            ++probed;
          }
        }
      }
    }

    if (trace.on()) {
      finish_layers(m, trace, static_cast<double>(run.tally.request_s.size()),
                    probed);
      m.set("concretize.compile_cache_hit_ratio",
            1.0 - m.get("concretize.compile_cache_builds"));
      m.set("concretize.register_s",
            trace.setup_seconds("Concretizer::add_reusable_all"));
      m.set("trace.request_s_p50", quantile(traced_s, 0.5));
    }
  }
  run.finish([&] { run.timed_setup(setup); });
}

// ---- deploy-churn -----------------------------------------------------------

/// The repository and the seed buildcache: every local-cache spec (the
/// RADIUSS stack built with mpich) built from source and pushed.  Rounds
/// rewire from the seed cache and never write to it.
struct Seed {
  std::unique_ptr<repo::Repository> repo;
  fs::path dir;
  std::unique_ptr<binary::BuildCache> cache;
};

Seed make_seed(Trace& trace, int parent, const fs::path& dir) {
  Seed s{nullptr, dir, nullptr};
  fs::remove_all(dir);
  {
    Scope sp(trace, "workload::radiuss_repo", "workload", parent, kSetup);
    s.repo = std::make_unique<repo::Repository>(workload::radiuss_repo());
  }
  std::vector<spec::Spec> stack;
  {
    Scope sp(trace, "workload::cache_specs", "workload", parent, kSetup);
    stack = workload::local_cache_specs(*s.repo);
  }
  Scope sp(trace, "workload::seed_install", "workload", parent, kSetup);
  s.cache = std::make_unique<binary::BuildCache>(dir / "seed-cache");
  binary::InstalledDatabase db{binary::InstallLayout(dir / "seed-store")};
  binary::Installer installer(db, workload::radiuss_abi_surface);
  for (const spec::Spec& spec : stack) {
    installer.install_from_source(spec);
    installer.push_to_cache(spec, *s.cache);
  }
  return s;
}

/// One deploy round's state: an empty install tree, an empty buildcache to
/// push to, and a Concretizer over the seed cache's specs.  Members are
/// destroyed in reverse order, users before what they use.
struct Round {
  std::unique_ptr<binary::BuildCache> pushed;
  std::unique_ptr<binary::InstalledDatabase> db;
  std::unique_ptr<binary::Installer> installer;
  std::unique_ptr<Concretizer> concretizer;
};

/// Start a round in an emptied round directory.  The caller syncs before
/// timing, so the deletes' disk work stays out of the timed steps.
Round start_round(Trace& trace, int parent, const Seed& seed) {
  const fs::path dir = seed.dir / "round";
  fs::remove_all(dir);
  Round r;
  r.pushed = std::make_unique<binary::BuildCache>(dir / "cache");
  r.db = std::make_unique<binary::InstalledDatabase>(
      binary::InstallLayout(dir / "store"));
  r.installer = std::make_unique<binary::Installer>(
      *r.db, workload::radiuss_abi_surface);
  Scope sp(trace, "Concretizer::add_reusable_all", "concretize", parent,
           kSetup);
  r.concretizer = std::make_unique<Concretizer>(*seed.repo, splice_options());
  r.concretizer->add_reusable_all(seed.cache->specs());
  return r;
}

std::size_t node_index(const spec::Spec& s, const std::string& name) {
  for (std::size_t i = 0; i < s.nodes().size(); ++i) {
    if (s.nodes()[i].name == name) return i;
  }
  throw Error("splicebench: no node " + name + " in " + s.str());
}

/// One deploy step: concretize, build what must be built, rewire the rest
/// from the seed cache, verify, push and register.  Returns the request's
/// build count; throws on any failure, including the rewire oracle.
std::size_t deploy_step(Trace& trace, Metrics& m, int req, long id,
                        const Seed& seed, Round& r, const Request& request,
                        std::vector<double>& install_s) {
  Concretizer& c = *r.concretizer;
  ConcretizeResult result;
  int call = -1;
  double call_s = 0;
  {
    Scope sp(trace, "Concretizer::concretize", "concretize", req, id);
    call = sp.id();
    const double c0 = now();
    result = c.concretize(request);
    call_s = now() - c0;
  }
  add_asp_spans(trace, call, result.stats);
  add_solve_stats(m, result.stats, call_s);
  // Every spliced node not installed yet must be rewired.
  std::size_t to_rewire = 0;
  for (const spec::SpecNode& n : result.spec.nodes()) {
    if (n.build_spec && !r.db->has(n.hash)) ++to_rewire;
  }
  double build = timed(
      trace, "Installer::install_from_source", "binary", req, id, [&] {
        for (const std::string& name : result.build_names) {
          binary::InstallReport b = r.installer->install_from_source(
              result.spec.subdag(node_index(result.spec, name)));
          m.add("binary.bytes_written", static_cast<double>(b.bytes_written));
        }
      });
  m.add("binary.build_s", build);
  binary::InstallReport report;
  double rewire = timed(trace, "Installer::rewire", "binary", req, id, [&] {
    report = r.installer->rewire(result.spec, *seed.cache);
  });
  m.add("binary.rewire_s", rewire);
  double verify =
      timed(trace, "Installer::verify_runnable", "binary", req, id,
            [&] { r.installer->verify_runnable(result.spec); });
  m.add("binary.verify_s", verify);
  install_s.push_back(build + rewire + verify);
  m.add("binary.push_s",
        timed(trace, "Installer::push_to_cache", "binary", req, id,
              [&] { r.installer->push_to_cache(result.spec, *r.pushed); }));
  m.add("concretize.register_s",
        timed(trace, "Concretizer::add_reusable", "concretize", req, id,
              [&] { c.add_reusable(result.spec); }));
  m.add("binary.rewired", static_cast<double>(report.rewired));
  m.add("binary.relocated", static_cast<double>(report.relocated));
  m.add("binary.bytes_written", static_cast<double>(report.bytes_written));
  if (report.rewired < to_rewire) {
    throw Error("rewired " + std::to_string(report.rewired) + " of " +
                std::to_string(to_rewire) + " spliced nodes");
  }
  return result.build_names.size();
}

// deploy-churn: whole rounds; each round deploys the 17 MPI-dependent roots
// in a fresh seeded order into an empty install tree.
void deploy_churn(Run& run) {
  const Options& o = run.opts;
  Trace& trace = run.trace;
  Metrics& m = run.layers;
  std::vector<std::string> texts = request_texts(true);
  std::vector<Request> canonical(texts.begin(), texts.end());
  int setups = 0;

  // A set-up ends with the first round started, like the (untimed) starts
  // of later rounds.
  auto setup = [&](int root) {
    Seed s = make_seed(trace, root,
                       o.workdir / ("deploy-" + std::to_string(setups++)));
    Round r = start_round(trace, root, s);
    return std::make_pair(std::move(s), std::move(r));
  };
  {
    auto [seed, first] = run.timed_setup(setup);
    std::optional<Round> round(std::move(first));
    m.set("workload.seed_install_s",
          trace.setup_seconds("workload::seed_install"));
    std::mt19937_64 rng(o.seed);
    std::vector<double> install_s;
    std::vector<double> traced_s;
    long next_id = 0;
    double probed = 0;
    const double deadline = now() + o.seconds;
    for (int n = 0; n == 0 || now() < deadline; ++n) {
      if (n > 0) {
        round.reset();
        round = start_round(trace, -1, seed);
      }
      // Flush what set-up and earlier rounds wrote, so their writeback does
      // not land in this round's timed steps.  Benchmark hygiene, not set-up
      // work: it stays out of setup_s.
      sync();
      ReuseIndex index;
      if (trace.on()) {
        for (const spec::Spec* s : seed.cache->specs()) index.add(*s);
      }
      for (std::size_t i : permutation(texts.size(), rng)) {
        const long id = next_id++;
        const int req = trace.open("request", "workload", -1, id);
        const double t0 = now();
        try {
          if (trace.on()) {
            probe_compile(trace, m, req, id, *seed.repo, *round->concretizer,
                          index, canonical[i]);
          }
          std::size_t builds = deploy_step(trace, m, req, id, seed, *round,
                                           canonical[i], install_s);
          trace.close(req);
          const double wall = now() - t0;
          run.timed_s += wall;
          run.tally.ok(wall, builds);
          if (trace.on()) {
            traced_s.push_back(wall);
            // Keep the slice index equal to the concretizer's reusable map.
            for (const spec::Spec* s : round->pushed->specs()) index.add(*s);
            if (n == 0) {
              // After the step, so the probe's cold compile stays out of
              // the step; the program now includes the step's own spec.
              probe_ground(trace, m, *round->concretizer, canonical[i]);
              ++probed;
            }
          }
        } catch (const Error& e) {
          trace.close(req);
          run.timed_s += now() - t0;
          run.tally.fail(texts[i] + ": " + e.what());
        }
      }
    }
    if (trace.on()) {
      const double n = static_cast<double>(run.tally.request_s.size());
      m.set("concretize.register_s", m.get("concretize.register_s") / n);
      finish_layers(m, trace, n, probed);
      m.set("concretize.compile_cache_hit_ratio",
            1.0 - m.get("concretize.compile_cache_builds"));
      m.set("binary.install_s_p50", quantile(install_s, 0.5));
      m.set("trace.request_s_p50", quantile(traced_s, 0.5));
    }
    round.reset();
  }
  run.finish([&] { run.timed_setup(setup); });
  for (int k = 0; k < setups; ++k) {
    fs::remove_all(o.workdir / ("deploy-" + std::to_string(k)));
  }
}

// ---- goldens ----------------------------------------------------------------

/// Solve every request of a workload once, serially, and write the golden
/// outcomes.  Each is cross-checked against the unpruned path when the
/// pruned solve took at most kCrosscheckMaxS.  The two paths may pick
/// different but equally good original binaries to splice (the pruning
/// differential tests compare DAG hashes and objectives), so the
/// cross-check leaves the originals' hashes out.
int write_goldens(const Options& o) {
  const bool batch = o.workload == "radiuss-batch";
  if (!batch && o.workload != "public10k-splice") {
    std::fprintf(stderr, "splicebench: no goldens for %s\n",
                 o.workload.c_str());
    return 2;
  }
  Trace off(false);
  const CacheGen gen =
      batch ? CacheGen(workload::local_cache_specs) : CacheGen(public_cache);
  Stack st = make_stack(off, -1, gen);
  std::vector<std::string> texts = request_texts(!batch);
  std::map<std::string, ConcretizeResult> pruned;
  std::map<std::string, double> cost;
  for (const std::string& text : texts) {
    double t0 = now();
    pruned[text] = st.concretizer->concretize(Request(text));
    cost[text] = now() - t0;
    std::fprintf(stderr, "  %-24s %.3fs\n", text.c_str(), cost[text]);
  }
  Concretizer unpruned(*st.repo, splice_options(false));
  unpruned.add_reusable_all(st.cache);
  json::Array checked;
  for (const std::string& text : texts) {
    if (cost[text] > kCrosscheckMaxS) continue;
    double t0 = now();
    std::string want = golden_of(pruned[text], false).dump();
    std::string got =
        golden_of(unpruned.concretize(Request(text)), false).dump();
    std::fprintf(stderr, "  %-24s unpruned %.3fs\n", text.c_str(),
                 now() - t0);
    if (got != want) {
      std::fprintf(stderr, "splicebench: %s: pruned %s != unpruned %s\n",
                   text.c_str(), want.c_str(), got.c_str());
      return 1;
    }
    checked.push_back(json::Value(text));
  }
  json::Object requests;
  for (const std::string& text : texts) requests[text] = golden_of(pruned[text]);
  json::Object doc;
  doc["schema"] = "splicebench-goldens-v1";
  doc["workload"] = o.workload;
  doc["revision"] = o.revision;
  doc["unpruned_checked"] = std::move(checked);
  doc["requests"] = std::move(requests);
  std::ofstream out(o.write_goldens);
  out << json::Value(std::move(doc)).dump_pretty() << '\n';
  return out ? 0 : 1;
}

// ---- run hygiene ------------------------------------------------------------

constexpr bool kOptimized =
#ifdef __OPTIMIZE__
    true;
#else
    false;
#endif

constexpr bool kSanitizerMacro =
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    true;
#else
    false;
#endif

/// Why this process must not report a result; empty when it may.
std::string refusal() {
  if (!kOptimized) return "unoptimised build (no __OPTIMIZE__)";
  if (kSanitizerMacro ||
      std::strstr(SPLICEBENCH_CXX_FLAGS, "-fsanitize") != nullptr) {
    return "sanitizer build";
  }
  for (char** e = environ; *e != nullptr; ++e) {
    for (const char* prefix : {"SPLICE_TRACE", "SPLICE_PROFILE",
                               "SPLICE_FLIGHT"}) {
      if (std::strncmp(*e, prefix, std::strlen(prefix)) == 0) {
        return std::string("instrumentation variable set: ") + *e;
      }
    }
  }
  return {};
}

void usage(std::FILE* out) {
  std::fprintf(out,
      "usage: splicebench --workload NAME [--seed N] [--seconds S] "
      "[--trace 0|1]\n"
      "                   [--workdir DIR] [--revision REV]\n"
      "       splicebench --workload NAME --write-goldens FILE\n"
      "workloads: radiuss-batch public10k-splice deploy-churn\n");
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      usage(stdout);
      return 0;
    }
    if (i + 1 >= argc) {
      usage(stderr);
      return 2;
    }
    std::string v = argv[++i];
    if (arg == "--workload") {
      o.workload = v;
    } else if (arg == "--seed") {
      o.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      o.seconds = std::strtod(v.c_str(), nullptr);
    } else if (arg == "--trace") {
      o.trace = v == "1";
    } else if (arg == "--workdir") {
      o.workdir = v;
    } else if (arg == "--revision") {
      o.revision = v;
    } else if (arg == "--write-goldens") {
      o.write_goldens = v;
    } else {
      usage(stderr);
      return 2;
    }
  }
  const std::map<std::string, void (*)(Run&)> workloads = {
      {"radiuss-batch", radiuss_batch},
      {"public10k-splice", public10k_splice},
      {"deploy-churn", deploy_churn}};
  auto workload = workloads.find(o.workload);
  if (workload == workloads.end()) {
    usage(stderr);
    return 2;
  }
  if (std::string why = refusal(); !why.empty()) {
    std::fprintf(stderr, "splicebench: refusing to run: %s\n", why.c_str());
    return 3;
  }
  try {
    if (!o.write_goldens.empty()) return write_goldens(o);
    fs::create_directories(o.workdir);
    Run run(o);
    workload->second(run);

    json::Object stamp;
    stamp["workload"] = o.workload;
    stamp["seed"] = static_cast<std::int64_t>(o.seed);
    stamp["seconds"] = o.seconds;
    stamp["trace"] = o.trace;
    stamp["nproc"] =
        static_cast<std::int64_t>(std::thread::hardware_concurrency());
    stamp["jobs"] = static_cast<std::int64_t>(workers());
    stamp["build_type"] = SPLICEBENCH_BUILD_TYPE;
    stamp["cxx_flags"] = SPLICEBENCH_CXX_FLAGS;
    stamp["compiler"] = SPLICEBENCH_COMPILER;
    stamp["revision"] = o.revision;
    std::printf("stamp %s\n", json::Value(std::move(stamp)).dump().c_str());

    const Metrics& shown = o.trace ? run.layers : run.e2e;
    std::fprintf(stderr, "%s %s (seed %llu): %zu attempted, %zu failed\n",
                 o.workload.c_str(), o.trace ? "per-layer" : "end-to-end",
                 static_cast<unsigned long long>(o.seed), run.tally.attempted,
                 run.tally.failed);
    shown.print(stderr);
    for (const std::string& e : run.tally.errors) {
      std::fprintf(stderr, "  FAILED %s\n", e.c_str());
    }
    if (o.trace) {
      fs::create_directories(kTraces);
      fs::path file = kTraces / (o.workload + "-seed" +
                                 std::to_string(o.seed) + ".json");
      run.trace.write(file);
      std::fprintf(stderr, "  spans: %zu written to %s\n",
                   run.trace.spans().size(), file.string().c_str());
    }
    std::printf(
        "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
        "\"metrics\": %s}\n",
        run.tally.failed == 0 && run.tally.attempted > 0 ? "true" : "false",
        run.tally.attempted, run.tally.failed, shown.json().c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "splicebench: %s\n", e.what());
    return 1;
  }
}
