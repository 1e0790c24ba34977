// splice: the one command-line driver over the synthetic RADIUSS workload.
//
//   splice concretize [flags] [request ...]
//       solve each request on a ConcretizerPool over one shared Concretizer,
//       print one line per request with its ground/translate/solve split,
//       then write whichever outputs were asked for
//   splice profile [flags] [request ...]
//       solve the requests together with cost profiling and fold grounding
//       and CDCL work back onto package directives (splice-profile-v1)
//   splice explain [flags] [request ...]
//       splice decisions when the request set solves, a minimized unsat
//       core when it does not (splice-explain-v1)
//   splice flight list FILE... | show FILE | chrome FILE -o OUT
//       read splice-flight-v1 recordings
//
// The three run commands share one workload flag parser, one output flag
// parser, one workload setup and one request syntax: a request is a root
// spec plus optional "!pkg" tokens naming forbidden packages, e.g.
// "visit ^mpiabi !mpich", read from argv and/or --file.  Every document the
// driver writes passes tools/trace_check.
//
//   splice concretize --splice --jobs 8 --json batch.json --trace trace.json
//   splice explain "visit ^mpich@3.4.3" "visit ^mpich@3.1"
//   splice profile --splice --json profile.json --folded profile.folded
#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "src/asp/term.hpp"
#include "src/concretize/pool.hpp"
#include "src/support/error.hpp"
#include "src/support/flight.hpp"
#include "src/support/json.hpp"
#include "src/support/trace.hpp"
#include "src/workload/caches.hpp"
#include "src/workload/radiuss.hpp"

namespace {

using namespace splice;
using json::Value;

void usage(std::FILE* out) {
  std::fputs(
      "usage: splice <command> [flags] [request ...]\n"
      "\n"
      "commands:\n"
      "  concretize       solve each request on a worker pool sharing one "
      "concretizer\n"
      "  profile          solve the requests together with cost profiling\n"
      "  explain          splice decisions, or a minimized unsat core\n"
      "  flight list FILE...                        one row per recorded "
      "request\n"
      "  flight show FILE [--request N] [--events]  pretty-print a "
      "recording\n"
      "  flight chrome FILE -o OUT                  convert a recording to "
      "Chrome trace JSON\n"
      "\n"
      "workload flags (concretize, profile, explain):\n"
      "  --splice         enable splicing (indirect encoding)\n"
      "  --direct         old-spack direct encoding, splicing off\n"
      "  --public N       reuse against a synthetic public cache of ~N node "
      "specs\n"
      "                   (default: the local RADIUSS cache)\n"
      "  --replicas N     add N mpiabi replica packages (RQ4 shape)\n"
      "  --no-cache       no reusable specs at all\n"
      "  --no-prune       compile every reusable entry (no reachability "
      "pruning)\n"
      "  --file FILE      read requests from FILE too (one per line; # "
      "comments)\n"
      "\n"
      "output flags (concretize, profile, explain):\n"
      "  --json FILE      the command's report: splice-batch-v1, "
      "splice-profile-v1\n"
      "                   or splice-explain-v1\n"
      "  --metrics FILE   Prometheus metrics text\n"
      "  --trace FILE     Chrome trace-event JSON (turns recording on)\n"
      "  --stats FILE     splice-stats-v1 JSON (turns recording on)\n"
      "  --flight FILE    the whole flight ring (splice-flight-v1)\n"
      "  --slow-ms N      auto-dump requests slower than N ms\n"
      "  --dir DIR        directory for automatic flight dumps\n"
      "\n"
      "command flags:\n"
      "  --jobs N         concretize: worker threads (default 0 = one per "
      "hardware thread)\n"
      "  --folded FILE    profile: Brendan-Gregg folded stacks\n"
      "  --top N          profile: rows per cost table (default 10)\n"
      "  --no-minimize    explain: raw unsat core, no deletion "
      "minimization\n"
      "\n"
      "A request is a root spec plus optional !pkg tokens naming forbidden\n"
      "packages, e.g. \"visit ^mpiabi !mpich\".  Default requests: every "
      "RADIUSS\nroot for concretize (^mpiabi on MPI roots with --splice); "
      "\"visit ^mpiabi\"\nwith --splice, \"visit ^mpich\" otherwise, for "
      "profile and explain.\nThe SPLICE_FLIGHT_* environment hooks configure "
      "the flight recorder;\n--slow-ms and --dir override only their own "
      "settings.\n",
      out);
}

[[noreturn]] void usage_error(const std::string& message) {
  std::fprintf(stderr, "splice: %s (see splice --help)\n", message.c_str());
  std::exit(2);
}

/// Plain decimal digits only: strtoull alone would take "-1" as 2^64-1 and
/// "10k" as 10.
std::size_t parse_count(const std::string& flag, const std::string& text) {
  errno = 0;
  bool digits = !text.empty() &&
                text.find_first_not_of("0123456789") == std::string::npos;
  unsigned long long v = digits ? std::strtoull(text.c_str(), nullptr, 10) : 0;
  if (!digits || errno != 0) {
    usage_error(flag + " needs a non-negative integer, got \"" + text + "\"");
  }
  return static_cast<std::size_t>(v);
}

double parse_ms(const std::string& flag, const std::string& text) {
  errno = 0;
  char* end = nullptr;
  double v = std::strtod(text.c_str(), &end);
  bool plain = !text.empty() && (std::isdigit(static_cast<unsigned char>(
                                     text[0])) != 0 ||
                                 text[0] == '.');
  if (!plain || *end != '\0' || errno != 0) {
    usage_error(flag + " needs a non-negative number, got \"" + text + "\"");
  }
  return v;
}

/// Tokens starting with '!' name forbidden packages; the rest is the spec.
concretize::Request parse_request(const std::string& text) {
  std::string spec_text;
  std::vector<std::string> forbidden;
  std::istringstream tokens(text);
  for (std::string token; tokens >> token;) {
    if (token[0] == '!') {
      if (token.size() > 1) forbidden.push_back(token.substr(1));
    } else {
      spec_text += (spec_text.empty() ? "" : " ") + token;
    }
  }
  if (spec_text.empty()) throw Error("empty request: \"" + text + "\"");
  concretize::Request request(spec_text);
  request.forbidden = std::move(forbidden);
  return request;
}

enum Command : unsigned { kConcretize = 1, kProfile = 2, kExplain = 4 };

struct Options {
  // Workload.
  bool splice = false;
  bool direct = false;
  bool no_cache = false;
  bool no_prune = false;
  std::size_t public_nodes = 0;
  std::size_t replicas = 0;
  std::vector<std::string> texts;
  std::vector<concretize::Request> requests;
  // Outputs.
  std::string json, metrics, trace, stats, flight, dir, folded;
  std::optional<double> slow_ms;
  // Command flags.
  std::size_t jobs = 0;
  std::size_t top = 10;
  bool minimize = true;
};

Options parse_run_flags(Command command, int argc, char** argv) {
  Options o;
  std::string file;
  for (int i = 0; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage_error(arg + " needs a value");
      return argv[++i];
    };
    auto only = [&](unsigned commands) {
      if ((command & commands) == 0) {
        usage_error(arg + " does not apply to this command");
      }
    };
    if (arg == "--help" || arg == "-h") {
      usage(stdout);
      std::exit(0);
    } else if (arg == "--splice") {
      o.splice = true;
    } else if (arg == "--direct") {
      o.direct = true;
    } else if (arg == "--no-cache") {
      o.no_cache = true;
    } else if (arg == "--no-prune") {
      o.no_prune = true;
    } else if (arg == "--public") {
      o.public_nodes = parse_count(arg, value());
    } else if (arg == "--replicas") {
      o.replicas = parse_count(arg, value());
    } else if (arg == "--file") {
      file = value();
    } else if (arg == "--json") {
      o.json = value();
    } else if (arg == "--metrics") {
      o.metrics = value();
    } else if (arg == "--trace") {
      o.trace = value();
    } else if (arg == "--stats") {
      o.stats = value();
    } else if (arg == "--flight") {
      o.flight = value();
    } else if (arg == "--slow-ms") {
      o.slow_ms = parse_ms(arg, value());
    } else if (arg == "--dir") {
      o.dir = value();
    } else if (arg == "--jobs") {
      only(kConcretize);
      o.jobs = parse_count(arg, value());
    } else if (arg == "--folded") {
      only(kProfile);
      o.folded = value();
    } else if (arg == "--top") {
      only(kProfile);
      o.top = parse_count(arg, value());
    } else if (arg == "--no-minimize") {
      only(kExplain);
      o.minimize = false;
    } else if (arg.size() > 1 && arg[0] == '-') {
      usage_error("unknown flag " + arg);
    } else {
      o.texts.push_back(arg);
    }
  }
  if (o.direct && o.splice) usage_error("--direct and --splice conflict");
  if (!file.empty()) {
    std::ifstream in(file);
    if (!in) usage_error("--file: cannot read " + file);
    for (std::string line; std::getline(in, line);) {
      line.erase(std::min(line.find('#'), line.size()));
      if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
      o.texts.push_back(line);
    }
  }
  if (o.texts.empty() && command == kConcretize) {
    for (const std::string& root : workload::radiuss_roots()) {
      bool mpi = o.splice && workload::depends_on_mpi(root);
      o.texts.push_back(mpi ? root + " ^mpiabi" : root);
    }
  } else if (o.texts.empty()) {
    o.texts.push_back(o.splice ? "visit ^mpiabi" : "visit ^mpich");
  }
  try {
    for (const std::string& text : o.texts) {
      o.requests.push_back(parse_request(text));
    }
  } catch (const Error& e) {
    usage_error(e.what());
  }
  return o;
}

/// The one checked file writer.
bool write_text(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  out.close();
  if (!out) {
    std::fprintf(stderr, "splice: cannot write %s\n", path.c_str());
    return false;
  }
  std::printf("splice: wrote %s\n", path.c_str());
  return true;
}

bool write_json(const std::string& path, const Value& doc) {
  return write_text(path, doc.dump_pretty() + "\n");
}

/// The repo, the reusable cache and one Concretizer over both.  Not copyable
/// or movable: the Concretizer keeps a reference to `repo`.
struct Workload {
  explicit Workload(const Options& o);
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  repo::Repository repo;
  std::vector<spec::Spec> cache;
  std::optional<concretize::Concretizer> concretizer;
};

Workload::Workload(const Options& o) {
  // The set-up split, under the span names splicebench reports it by.
  flight::Span setup("workload_setup", "tool");
  {
    flight::Span span("workload::radiuss_repo", "workload");
    repo = workload::radiuss_repo(o.replicas);
  }
  if (!o.no_cache) {
    flight::Span span("workload::cache_specs", "workload");
    cache = o.public_nodes > 0
                ? workload::public_cache_specs(repo, o.public_nodes)
                : workload::local_cache_specs(repo);
  }
  trace::Tracer::global().metrics().set_gauge(
      "workload.cache_specs",
      static_cast<double>(workload::distinct_nodes(cache)));
  concretize::ConcretizerOptions opts;
  opts.encoding = o.direct ? concretize::ReuseEncoding::Direct
                           : concretize::ReuseEncoding::Indirect;
  opts.enable_splicing = o.splice;
  opts.prune_reuse = !o.no_prune;
  concretizer.emplace(repo, opts);
  {
    flight::Span span("Concretizer::add_reusable_all", "concretize");
    concretizer->add_reusable_all(cache);
  }
  setup.end();
  std::printf("splice: %zu request(s), encoding=%s, splicing=%s, "
              "pruning=%s, cache=%zu node specs\n",
              o.requests.size(), o.direct ? "direct" : "indirect",
              o.splice ? "on" : "off", o.no_prune ? "off" : "on",
              workload::distinct_nodes(cache));
}

int cmd_concretize(const Options& o, const Workload& w) {
  concretize::PoolOptions pool_opts;
  pool_opts.jobs = o.jobs;
  concretize::ConcretizerPool pool(*w.concretizer, pool_opts);
  concretize::BatchStats stats;
  std::vector<concretize::BatchItem> items =
      pool.concretize_batch(o.requests, &stats);

  json::Array results;
  for (std::size_t i = 0; i < items.size(); ++i) {
    const concretize::BatchItem& item = items[i];
    const concretize::ConcretizeResult& r = item.result;
    json::Object row;
    row["request"] = o.texts[i];
    row["ok"] = item.ok;
    row["seconds"] = item.seconds;
    if (item.ok) {
      row["nodes"] = static_cast<std::int64_t>(r.spec.nodes().size());
      row["builds"] = static_cast<std::int64_t>(r.build_names.size());
      row["reused"] = static_cast<std::int64_t>(r.reused_hashes.size());
      row["splices"] = static_cast<std::int64_t>(r.splices.size());
      std::printf("  %-32s %zu nodes, %zu built, %zu reused, %zu spliced; "
                  "%.3fs (ground %.3f, translate %.3f, solve %.3f)\n",
                  o.texts[i].c_str(), r.spec.nodes().size(),
                  r.build_names.size(), r.reused_hashes.size(),
                  r.splices.size(), item.seconds, r.stats.ground_seconds,
                  r.stats.translate_seconds, r.stats.solve_seconds);
    } else {
      row["error"] = item.error;
      std::printf("  %-32s FAILED: %s\n", o.texts[i].c_str(),
                  item.error.c_str());
    }
    results.push_back(Value(std::move(row)));
  }
  std::printf("splice: %zu/%zu ok on %zu worker(s) in %.3fs (%.2f req/s)\n",
              stats.succeeded, stats.requests, stats.workers, stats.seconds,
              stats.throughput_rps);

  bool ok = true;
  if (!o.json.empty()) {
    json::Object doc;
    doc["schema"] = "splice-batch-v1";
    doc["jobs"] = static_cast<std::int64_t>(o.jobs);
    doc["workers"] = static_cast<std::int64_t>(stats.workers);
    doc["requests"] = static_cast<std::int64_t>(stats.requests);
    doc["succeeded"] = static_cast<std::int64_t>(stats.succeeded);
    doc["failed"] = static_cast<std::int64_t>(stats.failed);
    doc["seconds"] = stats.seconds;
    doc["throughput_rps"] = stats.throughput_rps;
    doc["results"] = std::move(results);
    ok = write_json(o.json, Value(std::move(doc)));
  }
  return stats.failed == 0 && ok ? 0 : 1;
}

int cmd_profile(const Options& o, const Workload& w) {
  concretize::ProfileReport report = w.concretizer->profile(o.requests);
  std::fputs(report.text(o.top).c_str(), stdout);
  bool ok = true;
  if (!o.json.empty()) ok = write_json(o.json, report.to_json()) && ok;
  if (!o.folded.empty()) ok = write_text(o.folded, report.folded()) && ok;
  return ok ? 0 : 1;
}

/// A solvable request set gets the splice report (when splicing is on); an
/// unsolvable one gets the unsat core.  explain_splice doubles as the
/// satisfiability probe so the two paths share one solve.  Each probe runs
/// under its own flight request so a slow probe is attributable afterwards.
int cmd_explain(const Options& o, const Workload& w) {
  std::string roots;
  for (const std::string& text : o.texts) {
    roots += (roots.empty() ? "" : "; ") + text;
  }
  Value doc;
  bool need_unsat_probe = !o.splice;
  if (o.splice) {
    flight::RequestScope probe("explain splice: " + roots);
    flight::Span phase("explain_splice", "tool", flight::Phase::Explain);
    concretize::SpliceDiagnosis diag =
        w.concretizer->explain_splice(o.requests);
    if (diag.sat) {
      std::fputs(diag.text().c_str(), stdout);
      doc = diag.to_json();
    } else {
      need_unsat_probe = true;
    }
  }
  if (need_unsat_probe) {
    flight::RequestScope probe("explain unsat: " + roots);
    flight::Span phase("explain_unsat", "tool", flight::Phase::Explain);
    asp::ExplainOptions eopts;
    eopts.minimize = o.minimize;
    concretize::UnsatDiagnosis diag =
        w.concretizer->explain_unsat(o.requests, eopts);
    std::fputs(diag.text().c_str(), stdout);
    doc = diag.to_json();
  }
  return o.json.empty() || write_json(o.json, doc) ? 0 : 1;
}

int run(Command command, int argc, char** argv) {
  Options o = parse_run_flags(command, argc, argv);
  // Start from the recorder's current options so the SPLICE_FLIGHT_* hooks
  // survive; the flags override only their own fields.
  flight::Recorder& recorder = flight::Recorder::global();
  if (o.slow_ms || !o.dir.empty()) {
    flight::RecorderOptions ropts = recorder.options();
    if (o.slow_ms) ropts.slow_ms = *o.slow_ms;
    if (!o.dir.empty()) ropts.dump_dir = o.dir;
    recorder.configure(ropts);
  }
  // A trace or stats export asks for recording, even under SPLICE_FLIGHT=off.
  if (!o.trace.empty() || !o.stats.empty()) recorder.set_enabled(true);

  int rc = 0;
  try {
    Workload w(o);
    switch (command) {
      case kConcretize: rc = cmd_concretize(o, w); break;
      case kProfile: rc = cmd_profile(o, w); break;
      case kExplain: rc = cmd_explain(o, w); break;
    }
  } catch (const Error& e) {
    std::fprintf(stderr, "splice: %s\n", e.what());
    rc = 1;
  }
  // The term table is process-wide, so its lock count is recorded once, at
  // exit: interns that missed the lock-free probe and took the table lock.
  trace::Tracer::global().metrics().add(
      "asp.intern_slow_path",
      static_cast<std::int64_t>(asp::Term::intern_slow_path_count()));
  bool ok = true;
  if (!o.trace.empty()) {
    ok = write_json(o.trace, recorder.chrome_trace()) && ok;
  }
  if (!o.stats.empty()) ok = write_json(o.stats, recorder.stats_json()) && ok;
  if (!o.flight.empty()) {
    ok = write_json(o.flight, recorder.dump_json("manual")) && ok;
  }
  if (!o.metrics.empty()) {
    ok = write_text(o.metrics,
                    trace::Tracer::global().metrics().metrics_text()) &&
         ok;
  }
  return ok ? rc : 1;
}

// ---- flight ----------------------------------------------------------------

std::optional<Value> load_recording(const std::string& file) {
  std::ifstream in(file);
  if (!in) {
    std::fprintf(stderr, "splice: cannot open %s\n", file.c_str());
    return std::nullopt;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  try {
    Value doc = json::parse(buf.str());
    const Value* schema = doc.find("schema");
    if (schema == nullptr || !schema->is_string() ||
        schema->as_string() != "splice-flight-v1") {
      std::fprintf(stderr, "splice: %s: not a splice-flight-v1 file\n",
                   file.c_str());
      return std::nullopt;
    }
    return doc;
  } catch (const Error& e) {
    std::fprintf(stderr, "splice: %s: %s\n", file.c_str(), e.what());
    return std::nullopt;
  }
}

double num(const Value& obj, const char* key) {
  const Value* v = obj.find(key);
  return v != nullptr && v->is_number() ? v->as_double() : 0;
}

long long integer(const Value& obj, const char* key) {
  return static_cast<long long>(num(obj, key));
}

std::string str(const Value& obj, const char* key) {
  const Value* v = obj.find(key);
  return v != nullptr && v->is_string() ? v->as_string() : "";
}

bool flag(const Value& obj, const char* key) {
  const Value* v = obj.find(key);
  return v != nullptr && v->is_bool() && v->as_bool();
}

const json::Array* array(const Value& obj, const char* key) {
  const Value* v = obj.find(key);
  return v != nullptr && v->is_array() ? &v->as_array() : nullptr;
}

int flight_list(const std::vector<std::string>& files) {
  std::printf("%-4s %-8s %-5s %9s %10s %-s\n", "id", "outcome", "slow",
              "seconds", "conflicts", "request");
  int rc = 0;
  for (const std::string& file : files) {
    auto doc = load_recording(file);
    if (!doc) {
      rc = 1;
      continue;
    }
    const json::Array* requests = array(*doc, "requests");
    if (requests == nullptr) continue;
    for (const Value& r : *requests) {
      const Value* stats = r.find("stats");
      std::printf("%-4lld %-8s %-5s %9.3f %10.0f %s\n", integer(r, "id"),
                  str(r, "outcome").c_str(), flag(r, "slow") ? "yes" : "no",
                  num(r, "seconds"),
                  stats != nullptr ? num(*stats, "conflicts") : 0.0,
                  str(r, "request").c_str());
    }
  }
  return rc;
}

void print_span(const Value& node, int depth) {
  std::printf("    %*s%-*s %9.3f ms\n", depth * 2, "", 24 - depth * 2,
              str(node, "name").c_str(), num(node, "dur_us") * 1e-3);
  if (const json::Array* children = array(node, "children")) {
    for (const Value& c : *children) print_span(c, depth + 1);
  }
}

int flight_show(const std::string& file, long long only_request,
                bool with_events) {
  auto doc = load_recording(file);
  if (!doc) return 1;
  std::printf("%s: reason=%s capacity=%lld dropped=%lld\n", file.c_str(),
              str(*doc, "reason").c_str(), integer(*doc, "capacity"),
              integer(*doc, "dropped_events"));
  const json::Array* requests = array(*doc, "requests");
  for (const Value& r : requests != nullptr ? *requests : json::Array{}) {
    long long id = integer(r, "id");
    if (only_request != 0 && id != only_request) continue;
    double seconds = num(r, "seconds");
    std::printf("\nrequest #%lld: %s\n", id, str(r, "request").c_str());
    std::printf("  outcome: %s%s   %.3fs\n", str(r, "outcome").c_str(),
                flag(r, "slow") ? " (SLOW)" : "", seconds);
    const Value* note = r.find("note");
    if (note != nullptr && note->is_string()) {
      std::printf("  note: %s\n", note->as_string().c_str());
    }
    const Value* phases = r.find("phases");
    if (phases != nullptr && phases->is_object()) {
      double phase_sum = 0;
      for (const auto& [name, s] : phases->as_object()) {
        if (!s.is_number()) continue;
        phase_sum += s.as_double();
        std::printf("  phase %-10s %9.3f ms\n", name.c_str(),
                    s.as_double() * 1e3);
      }
      if (seconds > 0) {
        std::printf("  phase coverage: %.1f%% of end-to-end\n",
                    100.0 * phase_sum / seconds);
      }
    }
    const Value* stats = r.find("stats");
    if (stats != nullptr && stats->is_object()) {
      std::printf("  conflicts=%lld decisions=%lld restarts=%lld "
                  "models=%lld ground_atoms=%lld sat_clauses=%lld\n",
                  integer(*stats, "conflicts"), integer(*stats, "decisions"),
                  integer(*stats, "restarts"), integer(*stats, "models"),
                  integer(*stats, "ground_atoms"),
                  integer(*stats, "sat_clauses"));
    }
    std::printf("  builds=%lld reused=%lld splices=%lld\n",
                integer(r, "builds"), integer(r, "reused"),
                integer(r, "splices"));
    const json::Array* spans = array(r, "spans");
    if (spans != nullptr && !spans->empty()) {
      std::printf("  span tree:\n");
      for (const Value& s : *spans) print_span(s, 0);
    }
  }
  const json::Array* events = array(*doc, "events");
  if (events == nullptr) return 0;
  if (!with_events) {
    std::printf("\n%zu event(s) in the window (use --events to print)\n",
                events->size());
    return 0;
  }
  std::printf("\n%-8s %12s %-4s %-16s %-8s %s\n", "seq", "t_us", "req",
              "kind", "phase", "detail");
  for (const Value& ev : *events) {
    long long req = integer(ev, "req");
    if (only_request != 0 && req != only_request) continue;
    std::printf("%-8lld %12.0f %-4lld %-16s %-8s %s\n", integer(ev, "seq"),
                num(ev, "t_us"), req, str(ev, "kind").c_str(),
                str(ev, "phase").c_str(), str(ev, "detail").c_str());
  }
  return 0;
}

int flight_chrome(const std::string& file, const std::string& out_path) {
  auto doc = load_recording(file);
  return doc && write_json(out_path, flight::chrome_trace(*doc)) ? 0 : 1;
}

int cmd_flight(int argc, char** argv) {
  if (argc < 1) usage_error("flight needs list, show or chrome");
  std::string sub = argv[0];
  std::vector<std::string> files;
  std::string out;
  long long request = 0;
  bool events = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage_error(arg + " needs a value");
      return argv[++i];
    };
    if (sub == "show" && arg == "--request") {
      request = static_cast<long long>(parse_count(arg, value()));
    } else if (sub == "show" && arg == "--events") {
      events = true;
    } else if (sub == "chrome" && arg == "-o") {
      out = value();
    } else if (arg.size() > 1 && arg[0] == '-') {
      usage_error("unknown flag " + arg + " for flight " + sub);
    } else {
      files.push_back(arg);
    }
  }
  if (sub == "list") {
    if (files.empty()) usage_error("flight list needs at least one file");
    return flight_list(files);
  }
  if (sub == "show") {
    if (files.size() != 1) usage_error("flight show needs one file");
    return flight_show(files[0], request, events);
  }
  if (sub == "chrome") {
    if (files.size() != 1 || out.empty()) {
      usage_error("flight chrome needs FILE and -o OUT");
    }
    return flight_chrome(files[0], out);
  }
  usage_error("unknown flight command \"" + sub + "\"");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage(stderr);
    return 2;
  }
  std::string command = argv[1];
  if (command == "--help" || command == "-h") {
    usage(stdout);
    return 0;
  }
  if (command == "concretize") return run(kConcretize, argc - 2, argv + 2);
  if (command == "profile") return run(kProfile, argc - 2, argv + 2);
  if (command == "explain") return run(kExplain, argc - 2, argv + 2);
  if (command == "flight") return cmd_flight(argc - 2, argv + 2);
  usage_error("unknown command \"" + command + "\"");
}
