// trace_check: structural validator for the formats this repo emits —
// Chrome trace-event files (splice <command> --trace, SPLICE_TRACE,
// splice flight chrome), stats files (schema "splice-stats-v1", from
// --stats / SPLICE_TRACE_STATS), bench result files (schema
// "splice-bench-v1"), batch reports (schema "splice-batch-v1", from
// splice concretize --json), explanation documents (schema
// "splice-explain-v1", from splice explain --json), solver cost profiles
// (schema "splice-profile-v1", from splice profile --json), repository
// audit reports (schema "repo-audit-v1", from repo_audit), incremental
// audit caches (schema "repo-audit-cache-v1", from repo_audit
// --incremental), flight recordings (schema "splice-flight-v1", from the
// flight recorder: --flight, --slow-ms/--dir, SPLICE_FLIGHT_*), and
// Prometheus text exposition (*.prom, or any input not starting with '{';
// from MetricsRegistry::metrics_text, e.g. --metrics).  The cli_smoke test
// and CI run it over the artifacts a workload resolution produces; exit 0
// means every file validated.
//
// usage: trace_check FILE...
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "src/support/error.hpp"
#include "src/support/json.hpp"

namespace {

using splice::json::Value;

int errors = 0;

void fail(const std::string& file, const std::string& what) {
  std::fprintf(stderr, "trace_check: %s: %s\n", file.c_str(), what.c_str());
  ++errors;
}

bool require_number(const std::string& file, const Value& obj,
                    const char* key, const std::string& ctx) {
  const Value* v = obj.find(key);
  if (v == nullptr || !v->is_number()) {
    fail(file, ctx + ": missing numeric \"" + key + "\"");
    return false;
  }
  return true;
}

/// {"displayTimeUnit": ..., "traceEvents": [{name, ph, ts, pid, tid, ...}]}
void check_chrome_trace(const std::string& file, const Value& doc) {
  int before = errors;
  const Value* events = doc.find("traceEvents");
  if (events == nullptr || !events->is_array()) {
    fail(file, "no \"traceEvents\" array");
    return;
  }
  std::size_t i = 0;
  for (const Value& ev : events->as_array()) {
    std::string ctx = "traceEvents[" + std::to_string(i++) + "]";
    if (!ev.is_object()) {
      fail(file, ctx + ": not an object");
      continue;
    }
    const Value* name = ev.find("name");
    if (name == nullptr || !name->is_string()) {
      fail(file, ctx + ": missing string \"name\"");
    }
    const Value* ph = ev.find("ph");
    if (ph == nullptr || !ph->is_string()) {
      fail(file, ctx + ": missing string \"ph\"");
      continue;
    }
    require_number(file, ev, "ts", ctx);
    require_number(file, ev, "pid", ctx);
    require_number(file, ev, "tid", ctx);
    const std::string& phase = ph->as_string();
    if (phase == "X") {
      if (require_number(file, ev, "dur", ctx) &&
          ev.find("dur")->as_double() < 0) {
        fail(file, ctx + ": negative \"dur\"");
      }
    } else if (phase == "i") {
      const Value* s = ev.find("s");
      if (s == nullptr || !s->is_string()) {
        fail(file, ctx + ": instant event without scope \"s\"");
      }
    } else {
      fail(file, ctx + ": unexpected phase \"" + phase + "\"");
    }
  }
  // The flight exporter reports the events that fell off its ring.
  if (const Value* other = doc.find("otherData")) {
    if (!other->is_object()) {
      fail(file, "\"otherData\" is not an object");
    } else if (const Value* dropped = other->find("dropped_events")) {
      if (!dropped->is_int() || dropped->as_int() < 0) {
        fail(file, "otherData: \"dropped_events\" is not a count");
      }
    }
  }
  if (errors == before) {
    std::printf("trace_check: %s: chrome trace OK (%zu events)\n",
                file.c_str(), events->as_array().size());
  }
}

/// {"schema": "splice-stats-v1", "spans": {...}, "events": {...},
///  "metrics": {counters, gauges, histograms}}
void check_stats(const std::string& file, const Value& doc) {
  int before = errors;
  const Value* spans = doc.find("spans");
  if (spans == nullptr || !spans->is_object()) {
    fail(file, "no \"spans\" object");
  } else {
    for (const auto& [key, span] : spans->as_object()) {
      if (!span.is_object()) {
        fail(file, "spans/" + key + ": not an object");
        continue;
      }
      for (const char* field : {"count", "total_seconds", "mean_seconds",
                                "min_seconds", "max_seconds"}) {
        require_number(file, span, field, "spans/" + key);
      }
    }
  }
  const Value* events = doc.find("events");
  if (events == nullptr || !events->is_object()) {
    fail(file, "no \"events\" object");
  } else {
    for (const auto& [key, n] : events->as_object()) {
      if (!n.is_int()) fail(file, "events/" + key + ": not an integer");
    }
  }
  const Value* metrics = doc.find("metrics");
  if (metrics == nullptr || !metrics->is_object()) {
    fail(file, "no \"metrics\" object");
  } else {
    for (const char* section : {"counters", "gauges", "histograms"}) {
      const Value* s = metrics->find(section);
      if (s == nullptr || !s->is_object()) {
        fail(file, std::string("metrics: no \"") + section + "\" object");
      }
    }
  }
  if (errors == before) {
    std::printf("trace_check: %s: stats OK (%zu span keys)\n", file.c_str(),
                spans->as_object().size());
  }
}

/// {"schema": "splice-bench-v1", "bench": ..., "series": {s: {label: cell}}}
void check_bench(const std::string& file, const Value& doc) {
  int before = errors;
  const Value* bench = doc.find("bench");
  if (bench == nullptr || !bench->is_string()) {
    fail(file, "no string \"bench\"");
  }
  const Value* series = doc.find("series");
  if (series == nullptr || !series->is_object()) {
    fail(file, "no \"series\" object");
    return;
  }
  std::size_t cells = 0;
  for (const auto& [sname, labels] : series->as_object()) {
    if (!labels.is_object()) {
      fail(file, "series/" + sname + ": not an object");
      continue;
    }
    for (const auto& [label, cell] : labels.as_object()) {
      std::string ctx = "series/" + sname + "/" + label;
      if (!cell.is_object()) {
        fail(file, ctx + ": not an object");
        continue;
      }
      ++cells;
      for (const char* field :
           {"n", "mean_seconds", "median_seconds", "p90_seconds",
            "min_seconds", "max_seconds"}) {
        require_number(file, cell, field, ctx);
      }
      // Optional per-cell comparison direction (bench_diff inverts its
      // regression verdict for "higher"), with the value unit alongside.
      if (const Value* dir = cell.find("direction"); dir != nullptr) {
        if (!dir->is_string() || (dir->as_string() != "lower" &&
                                  dir->as_string() != "higher")) {
          fail(file, ctx + ": \"direction\" must be \"lower\" or \"higher\"");
        }
        if (const Value* unit = cell.find("unit");
            unit == nullptr || !unit->is_string()) {
          fail(file, ctx + ": a directed cell needs a string \"unit\"");
        }
      }
    }
  }
  if (errors == before) {
    std::printf("trace_check: %s: bench results OK (%zu cells)\n",
                file.c_str(), cells);
  }
}

bool require_bool(const std::string& file, const Value& obj, const char* key,
                  const std::string& ctx) {
  const Value* v = obj.find(key);
  if (v == nullptr || !v->is_bool()) {
    fail(file, ctx + ": missing boolean \"" + key + "\"");
    return false;
  }
  return true;
}

bool require_string(const std::string& file, const Value& obj, const char* key,
                    const std::string& ctx) {
  const Value* v = obj.find(key);
  if (v == nullptr || !v->is_string()) {
    fail(file, ctx + ": missing string \"" + key + "\"");
    return false;
  }
  return true;
}

/// {"schema": "splice-batch-v1", "jobs": N, "workers": N, "requests": N,
///  "succeeded": N, "failed": N, "seconds": s, "throughput_rps": r,
///  "results": [{"request": str, "ok": bool, "seconds": s, ...}]}
/// Contract: results keep input order and partition into succeeded ok rows
/// (with nodes/builds/reused/splices counts) and failed rows (with the
/// error message); the envelope counters must match the rows.
void check_batch(const std::string& file, const Value& doc) {
  int before = errors;
  for (const char* field : {"jobs", "workers", "requests", "succeeded",
                            "failed"}) {
    const Value* v = doc.find(field);
    if (v == nullptr || !v->is_int() || v->as_int() < 0) {
      fail(file, std::string("missing non-negative integer \"") + field +
                     "\"");
    }
  }
  require_number(file, doc, "seconds", "batch");
  require_number(file, doc, "throughput_rps", "batch");
  const Value* results = doc.find("results");
  if (results == nullptr || !results->is_array()) {
    fail(file, "no \"results\" array");
    return;
  }
  std::int64_t ok_rows = 0;
  std::int64_t failed_rows = 0;
  std::size_t i = 0;
  for (const Value& row : results->as_array()) {
    std::string ctx = "results[" + std::to_string(i++) + "]";
    if (!row.is_object()) {
      fail(file, ctx + ": not an object");
      continue;
    }
    require_string(file, row, "request", ctx);
    require_number(file, row, "seconds", ctx);
    if (!require_bool(file, row, "ok", ctx)) continue;
    if (row.find("ok")->as_bool()) {
      ++ok_rows;
      for (const char* field : {"nodes", "builds", "reused", "splices"}) {
        const Value* v = row.find(field);
        if (v == nullptr || !v->is_int() || v->as_int() < 0) {
          fail(file, ctx + ": missing non-negative integer \"" +
                         std::string(field) + "\"");
        }
      }
    } else {
      ++failed_rows;
      const Value* err = row.find("error");
      if (err == nullptr || !err->is_string() || err->as_string().empty()) {
        fail(file, ctx + ": failed row needs a non-empty \"error\"");
      }
    }
  }
  auto check_count = [&](const char* field, std::int64_t want) {
    const Value* v = doc.find(field);
    if (v != nullptr && v->is_int() && v->as_int() != want) {
      fail(file, std::string("\"") + field + "\" (" +
                     std::to_string(v->as_int()) + ") does not match the " +
                     std::to_string(want) + " matching result row(s)");
    }
  };
  check_count("requests",
              static_cast<std::int64_t>(results->as_array().size()));
  check_count("succeeded", ok_rows);
  check_count("failed", failed_rows);
  if (errors == before) {
    std::printf("trace_check: %s: batch report OK (%zu result(s), "
                "%lld ok, %lld failed)\n",
                file.c_str(), results->as_array().size(),
                static_cast<long long>(ok_rows),
                static_cast<long long>(failed_rows));
  }
}

/// {"schema": "splice-explain-v1", "mode": "unsat"|"splice",
///  "requests": [str], "explanation": {...mode-specific...}}
void check_explain(const std::string& file, const Value& doc) {
  int before = errors;
  const Value* mode = doc.find("mode");
  std::string m = mode != nullptr && mode->is_string() ? mode->as_string() : "";
  if (m != "unsat" && m != "splice") {
    fail(file, "mode must be \"unsat\" or \"splice\", got \"" + m + "\"");
    return;
  }
  const Value* reqs = doc.find("requests");
  if (reqs == nullptr || !reqs->is_array()) {
    fail(file, "no \"requests\" array");
  } else {
    std::size_t i = 0;
    for (const Value& r : reqs->as_array()) {
      if (!r.is_string()) {
        fail(file, "requests[" + std::to_string(i) + "]: not a string");
      }
      ++i;
    }
  }
  const Value* ex = doc.find("explanation");
  if (ex == nullptr || !ex->is_object()) {
    fail(file, "no \"explanation\" object");
    return;
  }
  require_bool(file, *ex, "sat", "explanation");
  if (m == "unsat") {
    require_bool(file, *ex, "unconditional", "explanation");
    const Value* core = ex->find("core");
    if (core == nullptr || !core->is_array()) {
      fail(file, "explanation: no \"core\" array");
    } else {
      std::size_t i = 0;
      for (const Value& cc : core->as_array()) {
        std::string ctx = "core[" + std::to_string(i++) + "]";
        if (!cc.is_object()) {
          fail(file, ctx + ": not an object");
          continue;
        }
        require_string(file, cc, "kind", ctx);
        require_number(file, cc, "ground_index", ctx);
        require_string(file, cc, "constraint", ctx);
        const Value* pkgs = cc.find("packages");
        if (pkgs == nullptr || !pkgs->is_array()) {
          fail(file, ctx + ": no \"packages\" array");
        }
        const Value* src = cc.find("source");
        if (src == nullptr || !src->is_object()) {
          fail(file, ctx + ": no \"source\" object");
        } else if (require_bool(file, *src, "known", ctx + "/source") &&
                   src->find("known")->as_bool()) {
          require_string(file, *src, "rule", ctx + "/source");
          require_number(file, *src, "rule_index", ctx + "/source");
          require_number(file, *src, "line", ctx + "/source");
          require_number(file, *src, "col", ctx + "/source");
        }
      }
    }
    const Value* stats = ex->find("stats");
    if (stats == nullptr || !stats->is_object()) {
      fail(file, "explanation: no \"stats\" object");
    } else {
      for (const char* field : {"guarded_constraints", "core_initial",
                                "core_minimized", "minimize_solves"}) {
        require_number(file, *stats, field, "explanation/stats");
      }
    }
  } else {
    require_number(file, *ex, "executed", "explanation");
    const Value* cands = ex->find("candidates");
    if (cands == nullptr || !cands->is_array()) {
      fail(file, "explanation: no \"candidates\" array");
    } else {
      std::size_t i = 0;
      for (const Value& c : cands->as_array()) {
        std::string ctx = "candidates[" + std::to_string(i++) + "]";
        if (!c.is_object()) {
          fail(file, ctx + ": not an object");
          continue;
        }
        for (const char* field : {"parent", "parent_hash", "dependency",
                                  "dependency_hash", "replacement", "verdict",
                                  "directive"}) {
          require_string(file, c, field, ctx);
        }
        for (const char* field : {"can_splice_held", "parent_reused",
                                  "spliced_away", "chosen"}) {
          require_bool(file, c, field, ctx);
        }
      }
    }
    const Value* costs = ex->find("costs");
    if (costs == nullptr || !costs->is_array()) {
      fail(file, "explanation: no \"costs\" array");
    } else {
      std::size_t i = 0;
      for (const Value& e : costs->as_array()) {
        std::string ctx = "costs[" + std::to_string(i++) + "]";
        if (!e.is_object()) {
          fail(file, ctx + ": not an object");
          continue;
        }
        require_number(file, e, "priority", ctx);
        require_number(file, e, "cost", ctx);
      }
    }
  }
  if (errors == before) {
    std::printf("trace_check: %s: explain (%s) OK\n", file.c_str(), m.c_str());
  }
}

/// One cost-table row of a `splice-profile-v1` document:
/// {"name": str, "source": {"known": bool, [file, line, col, rule_index]},
///  "sat": {...counters...}, "ground": {...counters...}, "score": num}.
/// Accumulates the row's propagation/conflict counters for the caller's
/// conservation check.
void check_profile_row(const std::string& file, const Value& row,
                       const std::string& ctx, double* propagations,
                       double* conflicts) {
  if (!row.is_object()) {
    fail(file, ctx + ": not an object");
    return;
  }
  require_string(file, row, "name", ctx);
  require_number(file, row, "score", ctx);
  const Value* src = row.find("source");
  if (src == nullptr || !src->is_object()) {
    fail(file, ctx + ": no \"source\" object");
  } else if (require_bool(file, *src, "known", ctx + "/source") &&
             src->find("known")->as_bool()) {
    require_number(file, *src, "line", ctx + "/source");
    require_number(file, *src, "col", ctx + "/source");
  }
  const Value* s = row.find("sat");
  if (s == nullptr || !s->is_object()) {
    fail(file, ctx + ": no \"sat\" object");
  } else {
    for (const char* field :
         {"propagations", "conflicts", "participations", "learned"}) {
      require_number(file, *s, field, ctx + "/sat");
    }
    if (propagations != nullptr && s->find("propagations") != nullptr &&
        s->find("propagations")->is_number()) {
      *propagations += s->find("propagations")->as_double();
    }
    if (conflicts != nullptr && s->find("conflicts") != nullptr &&
        s->find("conflicts")->is_number()) {
      *conflicts += s->find("conflicts")->as_double();
    }
  }
  const Value* g = row.find("ground");
  if (g == nullptr || !g->is_object()) {
    fail(file, ctx + ": no \"ground\" object");
  } else {
    for (const char* field :
         {"instantiations", "join_candidates", "emitted", "seconds"}) {
      require_number(file, *g, field, ctx + "/ground");
    }
    require_bool(file, *g, "dedup", ctx + "/ground");
  }
}

/// {"schema": "splice-profile-v1", "requests": [str], "sat": bool,
///  "stats": {...SolveStats...},
///  "profile": {"totals": {...}, "directives": [row], "predicates": [row],
///              "buckets": [row]}}
/// Beyond shape, re-checks the profiler's conservation contract: directive
/// plus bucket rows must partition the solver's propagation/conflict totals.
void check_profile(const std::string& file, const Value& doc) {
  int before = errors;
  const Value* reqs = doc.find("requests");
  if (reqs == nullptr || !reqs->is_array() || reqs->as_array().empty()) {
    fail(file, "no non-empty \"requests\" array");
  } else {
    std::size_t i = 0;
    for (const Value& r : reqs->as_array()) {
      if (!r.is_string()) {
        fail(file, "requests[" + std::to_string(i) + "]: not a string");
      }
      ++i;
    }
  }
  require_bool(file, doc, "sat", "document");
  const Value* stats = doc.find("stats");
  if (stats == nullptr || !stats->is_object()) {
    fail(file, "no \"stats\" object");
  } else {
    for (const char* field : {"ground_seconds", "solve_seconds", "conflicts",
                              "decisions", "propagations"}) {
      require_number(file, *stats, field, "stats");
    }
  }
  const Value* prof = doc.find("profile");
  if (prof == nullptr || !prof->is_object()) {
    fail(file, "no \"profile\" object");
    return;
  }
  const Value* totals = prof->find("totals");
  double total_props = -1;
  double total_confls = -1;
  if (totals == nullptr || !totals->is_object()) {
    fail(file, "profile: no \"totals\" object");
  } else {
    const Value* sat = totals->find("sat");
    if (sat == nullptr || !sat->is_object()) {
      fail(file, "profile/totals: no \"sat\" object");
    } else {
      for (const char* field : {"decisions", "conflicts", "propagations",
                                "restarts", "learned"}) {
        require_number(file, *sat, field, "profile/totals/sat");
      }
      if (sat->find("propagations") != nullptr &&
          sat->find("propagations")->is_number()) {
        total_props = sat->find("propagations")->as_double();
      }
      if (sat->find("conflicts") != nullptr &&
          sat->find("conflicts")->is_number()) {
        total_confls = sat->find("conflicts")->as_double();
      }
    }
    const Value* ground = totals->find("ground");
    if (ground == nullptr || !ground->is_object()) {
      fail(file, "profile/totals: no \"ground\" object");
    } else {
      for (const char* field : {"rules", "choices", "seconds"}) {
        require_number(file, *ground, field, "profile/totals/ground");
      }
    }
    require_number(file, *totals, "learned_total", "profile/totals");
    require_number(file, *totals, "learned_without_origin", "profile/totals");
  }
  // Directive + bucket rows partition the SAT totals (buckets include
  // "encoding-internal", the predicate-table rollup, and "unattributed");
  // the predicates table is informational (already counted via the rollup).
  double props = 0;
  double confls = 0;
  for (const char* table : {"directives", "predicates", "buckets"}) {
    const Value* rows = prof->find(table);
    if (rows == nullptr || !rows->is_array()) {
      fail(file, std::string("profile: no \"") + table + "\" array");
      continue;
    }
    bool counted = std::string(table) != "predicates";
    std::size_t i = 0;
    for (const Value& row : rows->as_array()) {
      check_profile_row(file, row,
                        std::string(table) + "[" + std::to_string(i++) + "]",
                        counted ? &props : nullptr,
                        counted ? &confls : nullptr);
    }
  }
  if (total_props >= 0 && props != total_props) {
    fail(file, "conservation: directives+buckets propagations " +
                   std::to_string(props) + " != totals " +
                   std::to_string(total_props));
  }
  if (total_confls >= 0 && confls != total_confls) {
    fail(file, "conservation: directives+buckets conflicts " +
                   std::to_string(confls) + " != totals " +
                   std::to_string(total_confls));
  }
  if (errors == before) {
    std::size_t n = 0;
    const Value* dirs = prof->find("directives");
    if (dirs != nullptr && dirs->is_array()) n = dirs->as_array().size();
    std::printf("trace_check: %s: profile OK (%zu directive row(s))\n",
                file.c_str(), n);
  }
}

/// One audit finding object — the shape shared between `repo-audit-v1`
/// ("findings" items) and `repo-audit-cache-v1` (cached per-task findings).
/// Returns true when the finding carries severity "error".
bool check_audit_finding(const std::string& file, const Value& f,
                         const std::string& ctx) {
  bool is_error = false;
  if (!f.is_object()) {
    fail(file, ctx + ": not an object");
    return false;
  }
  for (const char* field : {"id", "package", "directive", "message"}) {
    require_string(file, f, field, ctx);
  }
  const Value* sev = f.find("severity");
  if (sev == nullptr || !sev->is_string()) {
    fail(file, ctx + ": missing string \"severity\"");
  } else {
    const std::string& s = sev->as_string();
    if (s != "error" && s != "warning" && s != "info") {
      fail(file,
           ctx + ": severity \"" + s + "\" not one of error/warning/info");
    }
    if (s == "error") is_error = true;
  }
  const Value* src = f.find("source");
  if (src == nullptr || !src->is_object()) {
    fail(file, ctx + ": no \"source\" object");
  } else if (require_bool(file, *src, "known", ctx + "/source")) {
    require_number(file, *src, "index", ctx + "/source");
    if (src->find("known")->as_bool()) {
      require_string(file, *src, "file", ctx + "/source");
      require_number(file, *src, "line", ctx + "/source");
    }
  }
  const Value* related = f.find("related");
  if (related == nullptr || !related->is_array()) {
    fail(file, ctx + ": no \"related\" array");
  } else {
    std::size_t j = 0;
    for (const Value& r : related->as_array()) {
      if (!r.is_string()) {
        fail(file, ctx + "/related[" + std::to_string(j) + "]: not a string");
      }
      ++j;
    }
  }
  return is_error;
}

/// {"schema": "repo-audit-v1", "repo": {...counts...},
///  "summary": {errors, warnings, infos, clean},
///  "findings": [{id, severity, package, directive, message, source,
///                related}]}
void check_repo_audit(const std::string& file, const Value& doc) {
  int before = errors;
  const Value* repo = doc.find("repo");
  if (repo == nullptr || !repo->is_object()) {
    fail(file, "no \"repo\" object");
  } else {
    for (const char* field : {"packages", "virtuals", "splice_directives",
                              "binaries", "encoding_programs"}) {
      require_number(file, *repo, field, "repo");
    }
  }
  const Value* summary = doc.find("summary");
  std::int64_t declared_errors = -1;
  if (summary == nullptr || !summary->is_object()) {
    fail(file, "no \"summary\" object");
  } else {
    for (const char* field : {"errors", "warnings", "infos"}) {
      require_number(file, *summary, field, "summary");
    }
    require_bool(file, *summary, "clean", "summary");
    const Value* e = summary->find("errors");
    if (e != nullptr && e->is_int()) declared_errors = e->as_int();
  }
  const Value* findings = doc.find("findings");
  if (findings == nullptr || !findings->is_array()) {
    fail(file, "no \"findings\" array");
    return;
  }
  std::int64_t counted_errors = 0;
  std::size_t i = 0;
  for (const Value& f : findings->as_array()) {
    std::string ctx = "findings[" + std::to_string(i++) + "]";
    if (check_audit_finding(file, f, ctx)) ++counted_errors;
  }
  if (declared_errors >= 0 && declared_errors != counted_errors) {
    fail(file, "summary says " + std::to_string(declared_errors) +
                   " error(s) but findings contain " +
                   std::to_string(counted_errors));
  }
  if (errors == before) {
    std::printf("trace_check: %s: repo audit OK (%zu findings)\n", file.c_str(),
                findings->as_array().size());
  }
}

/// {"schema": "repo-audit-cache-v1",
///  "entries": {"group/package": {key, programs, findings: [...]}}}
/// Task ids are "group/name" (or "group//name" for repo-level tasks) with a
/// known group; keys are 32-hex content hashes (AuditFingerprints).
void check_audit_cache(const std::string& file, const Value& doc) {
  int before = errors;
  const Value* entries = doc.find("entries");
  if (entries == nullptr || !entries->is_object()) {
    fail(file, "no \"entries\" object");
    return;
  }
  for (const auto& [task, entry] : entries->as_object()) {
    std::string ctx = "entries/" + task;
    std::size_t slash = task.find('/');
    std::string group = slash == std::string::npos ? "" : task.substr(0, slash);
    if (group != "constraint" && group != "provider" && group != "splice" &&
        group != "encoding") {
      fail(file, ctx + ": task id has no known check-group prefix");
    }
    if (slash == std::string::npos || slash + 1 >= task.size()) {
      fail(file, ctx + ": task id has no name after the group");
    }
    if (!entry.is_object()) {
      fail(file, ctx + ": not an object");
      continue;
    }
    const Value* key = entry.find("key");
    if (key == nullptr || !key->is_string()) {
      fail(file, ctx + ": missing string \"key\"");
    } else {
      const std::string& k = key->as_string();
      bool hex = k.size() == 32;
      for (char c : k) {
        hex = hex && ((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'));
      }
      if (!hex) {
        fail(file, ctx + ": \"key\" is not a 32-hex content hash");
      }
    }
    require_number(file, entry, "programs", ctx);
    const Value* findings = entry.find("findings");
    if (findings == nullptr || !findings->is_array()) {
      fail(file, ctx + ": no \"findings\" array");
      continue;
    }
    std::size_t i = 0;
    for (const Value& f : findings->as_array()) {
      check_audit_finding(file, f, ctx + "/findings[" + std::to_string(i++) +
                                       "]");
    }
  }
  if (errors == before) {
    std::printf("trace_check: %s: audit cache OK (%zu entrie(s))\n",
                file.c_str(), entries->as_object().size());
  }
}

/// Recursive {name, t_us, dur_us, children: [...]} span-tree node.
void check_flight_span(const std::string& file, const Value& node,
                       const std::string& ctx) {
  if (!node.is_object()) {
    fail(file, ctx + ": not an object");
    return;
  }
  require_string(file, node, "name", ctx);
  require_number(file, node, "t_us", ctx);
  if (require_number(file, node, "dur_us", ctx) &&
      node.find("dur_us")->as_double() < 0) {
    fail(file, ctx + ": negative \"dur_us\"");
  }
  const Value* children = node.find("children");
  if (children != nullptr) {
    if (!children->is_array()) {
      fail(file, ctx + ": \"children\" is not an array");
      return;
    }
    std::size_t i = 0;
    for (const Value& c : children->as_array()) {
      check_flight_span(file, c, ctx + "/children[" + std::to_string(i++) +
                                     "]");
    }
  }
}

/// {"schema": "splice-flight-v1", "reason": ..., "capacity": ...,
///  "requests": [{id, request, outcome, phases, stats, spans, ...}],
///  "events": [{seq, t_us, req, kind, phase, tid, ...}]}
void check_flight(const std::string& file, const Value& doc) {
  int before = errors;
  const Value* reason = doc.find("reason");
  std::string r =
      reason != nullptr && reason->is_string() ? reason->as_string() : "";
  if (r != "slow" && r != "abnormal" && r != "watchdog" && r != "exit" &&
      r != "signal" && r != "manual") {
    fail(file, "reason \"" + r +
                   "\" not one of slow/abnormal/watchdog/exit/signal/manual");
  }
  for (const char* field : {"capacity", "total_events", "dropped_events",
                            "slow_ms", "slow_conflicts"}) {
    require_number(file, doc, field, "flight");
  }
  const Value* reqs = doc.find("requests");
  if (reqs == nullptr || !reqs->is_array()) {
    fail(file, "no \"requests\" array");
    return;
  }
  std::size_t i = 0;
  for (const Value& req : reqs->as_array()) {
    std::string ctx = "requests[" + std::to_string(i++) + "]";
    if (!req.is_object()) {
      fail(file, ctx + ": not an object");
      continue;
    }
    require_number(file, req, "id", ctx);
    require_string(file, req, "request", ctx);
    const Value* outcome = req.find("outcome");
    std::string o =
        outcome != nullptr && outcome->is_string() ? outcome->as_string() : "";
    if (o != "active" && o != "ok" && o != "unsat" && o != "error" &&
        o != "budget") {
      fail(file, ctx + ": outcome \"" + o +
                     "\" not one of active/ok/unsat/error/budget");
    }
    for (const char* field :
         {"begin_us", "end_us", "seconds", "builds", "reused", "splices"}) {
      require_number(file, req, field, ctx);
    }
    require_bool(file, req, "slow", ctx);
    const Value* phases = req.find("phases");
    if (phases == nullptr || !phases->is_object()) {
      fail(file, ctx + ": no \"phases\" object");
    } else {
      for (const auto& [name, seconds] : phases->as_object()) {
        if (!seconds.is_number()) {
          fail(file, ctx + "/phases/" + name + ": not a number");
        }
      }
    }
    const Value* stats = req.find("stats");
    if (stats == nullptr || !stats->is_object()) {
      fail(file, ctx + ": no \"stats\" object");
    } else {
      for (const char* field :
           {"conflicts", "decisions", "propagations", "restarts", "models",
            "loop_nogoods", "ground_rules", "ground_atoms", "sat_vars",
            "sat_clauses"}) {
        require_number(file, *stats, field, ctx + "/stats");
      }
    }
    const Value* spans = req.find("spans");
    if (spans == nullptr || !spans->is_array()) {
      fail(file, ctx + ": no \"spans\" array");
    } else {
      std::size_t j = 0;
      for (const Value& s : spans->as_array()) {
        check_flight_span(file, s, ctx + "/spans[" + std::to_string(j++) +
                                       "]");
      }
    }
  }
  const Value* events = doc.find("events");
  if (events == nullptr || !events->is_array()) {
    fail(file, "no \"events\" array");
    return;
  }
  std::int64_t last_seq = -1;
  std::size_t j = 0;
  for (const Value& ev : events->as_array()) {
    std::string ctx = "events[" + std::to_string(j++) + "]";
    if (!ev.is_object()) {
      fail(file, ctx + ": not an object");
      continue;
    }
    for (const char* field : {"seq", "t_us", "req", "tid"}) {
      require_number(file, ev, field, ctx);
    }
    require_string(file, ev, "kind", ctx);
    require_string(file, ev, "phase", ctx);
    const Value* seq = ev.find("seq");
    if (seq != nullptr && seq->is_int()) {
      if (seq->as_int() <= last_seq) {
        fail(file, ctx + ": \"seq\" not strictly increasing");
      }
      last_seq = seq->as_int();
    }
  }
  if (errors == before) {
    std::printf("trace_check: %s: flight recording OK "
                "(%zu request(s), %zu event(s))\n",
                file.c_str(), reqs->as_array().size(),
                events->as_array().size());
  }
}

// ---- Prometheus text exposition (version 0.0.4) ----------------------------

bool valid_metric_name(std::string_view name) {
  if (name.empty()) return false;
  for (std::size_t i = 0; i < name.size(); ++i) {
    char c = name[i];
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
              c == ':' || (i > 0 && c >= '0' && c <= '9');
    if (!ok) return false;
  }
  return true;
}

bool valid_label_name(std::string_view name) {
  if (name.empty()) return false;
  for (std::size_t i = 0; i < name.size(); ++i) {
    char c = name[i];
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
              (i > 0 && c >= '0' && c <= '9');
    if (!ok) return false;
  }
  return true;
}

/// Validate a `name{label="value",...} value [timestamp]` sample line.
/// Returns the metric name via `out_name` (empty on hard parse failure).
void check_prom_sample(const std::string& file, const std::string& line,
                       std::size_t lineno, std::string& out_name,
                       std::map<std::string, std::string>& out_labels) {
  std::string ctx = "line " + std::to_string(lineno);
  std::size_t pos = 0;
  while (pos < line.size() && line[pos] != '{' && line[pos] != ' ') ++pos;
  out_name = line.substr(0, pos);
  if (!valid_metric_name(out_name)) {
    fail(file, ctx + ": invalid metric name \"" + out_name + "\"");
    out_name.clear();
    return;
  }
  if (pos < line.size() && line[pos] == '{') {
    ++pos;
    while (pos < line.size() && line[pos] != '}') {
      std::size_t eq = line.find('=', pos);
      if (eq == std::string::npos) {
        fail(file, ctx + ": malformed label pair");
        return;
      }
      std::string lname = line.substr(pos, eq - pos);
      if (!valid_label_name(lname)) {
        fail(file, ctx + ": invalid label name \"" + lname + "\"");
        return;
      }
      pos = eq + 1;
      if (pos >= line.size() || line[pos] != '"') {
        fail(file, ctx + ": label value for \"" + lname + "\" not quoted");
        return;
      }
      ++pos;
      std::string lvalue;
      while (pos < line.size() && line[pos] != '"') {
        if (line[pos] == '\\' && pos + 1 < line.size()) ++pos;
        lvalue.push_back(line[pos++]);
      }
      if (pos >= line.size()) {
        fail(file, ctx + ": unterminated label value");
        return;
      }
      ++pos;  // closing quote
      out_labels[lname] = lvalue;
      if (pos < line.size() && line[pos] == ',') ++pos;
    }
    if (pos >= line.size() || line[pos] != '}') {
      fail(file, ctx + ": unterminated label set");
      return;
    }
    ++pos;
  }
  if (pos >= line.size() || line[pos] != ' ') {
    fail(file, ctx + ": no value after metric name");
    return;
  }
  ++pos;
  std::string rest = line.substr(pos);
  std::size_t space = rest.find(' ');
  std::string value = rest.substr(0, space);
  if (value != "+Inf" && value != "-Inf" && value != "NaN") {
    char* end = nullptr;
    std::strtod(value.c_str(), &end);
    if (end == value.c_str() || *end != '\0') {
      fail(file, ctx + ": unparsable sample value \"" + value + "\"");
    }
  }
  if (space != std::string::npos) {
    std::string ts = rest.substr(space + 1);
    char* end = nullptr;
    std::strtoll(ts.c_str(), &end, 10);
    if (end == ts.c_str() || *end != '\0') {
      fail(file, ctx + ": unparsable timestamp \"" + ts + "\"");
    }
  }
  auto q = out_labels.find("quantile");
  if (q != out_labels.end()) {
    char* end = nullptr;
    double qv = std::strtod(q->second.c_str(), &end);
    if (end == q->second.c_str() || *end != '\0' || qv < 0 || qv > 1) {
      fail(file, ctx + ": quantile \"" + q->second + "\" not in [0, 1]");
    }
  }
}

/// Validate Prometheus text exposition: TYPE/HELP comment syntax, metric and
/// label name grammar, numeric sample values, and that every sample belongs
/// to a family with a preceding # TYPE line (stripping _sum/_count/_bucket
/// for summary and histogram families).
void check_prometheus(const std::string& file, const std::string& text) {
  int before = errors;
  std::map<std::string, std::string> family_type;  // name -> type
  std::size_t samples = 0;
  std::size_t lineno = 0;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    ++lineno;
    std::string ctx = "line " + std::to_string(lineno);
    if (line.empty()) continue;
    if (line[0] == '#') {
      std::istringstream ls(line);
      std::string hash, keyword, name, type;
      ls >> hash >> keyword;
      if (keyword == "TYPE") {
        ls >> name >> type;
        if (!valid_metric_name(name)) {
          fail(file, ctx + ": invalid family name \"" + name + "\"");
          continue;
        }
        if (type != "counter" && type != "gauge" && type != "summary" &&
            type != "histogram" && type != "untyped") {
          fail(file, ctx + ": unknown family type \"" + type + "\"");
          continue;
        }
        if (family_type.count(name) > 0) {
          fail(file, ctx + ": duplicate # TYPE for \"" + name + "\"");
          continue;
        }
        family_type[name] = type;
      }
      // # HELP and other comments pass through unvalidated.
      continue;
    }
    std::string name;
    std::map<std::string, std::string> labels;
    check_prom_sample(file, line, lineno, name, labels);
    if (name.empty()) continue;
    ++samples;
    // Resolve the sample to its declared family: exact, or a _sum/_count
    // (_bucket) series of a summary/histogram family.
    std::string family = name;
    if (family_type.count(family) == 0) {
      for (const char* suffix : {"_sum", "_count", "_bucket"}) {
        std::string s(suffix);
        if (family.size() > s.size() &&
            family.compare(family.size() - s.size(), s.size(), s) == 0) {
          std::string base = family.substr(0, family.size() - s.size());
          auto it = family_type.find(base);
          if (it != family_type.end() &&
              (it->second == "summary" || it->second == "histogram")) {
            if (s == "_bucket" && it->second != "histogram") continue;
            family = base;
            break;
          }
        }
      }
    }
    auto it = family_type.find(family);
    if (it == family_type.end()) {
      fail(file, ctx + ": sample \"" + name +
                     "\" has no preceding # TYPE family declaration");
    } else if (it->second == "summary" && name == family &&
               labels.count("quantile") == 0) {
      fail(file, ctx + ": summary sample \"" + name +
                     "\" without a quantile label");
    }
  }
  if (errors == before) {
    std::printf("trace_check: %s: prometheus text OK "
                "(%zu familie(s), %zu sample(s))\n",
                file.c_str(), family_type.size(), samples);
  }
}

void check_file(const std::string& file) {
  std::ifstream in(file);
  if (!in) {
    fail(file, "cannot open");
    return;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  // Prometheus text exposition: by extension, or by content (a JSON
  // document's first significant character is always '{').
  if (file.size() > 5 && file.compare(file.size() - 5, 5, ".prom") == 0) {
    check_prometheus(file, buf.str());
    return;
  }
  std::size_t first = buf.str().find_first_not_of(" \t\r\n");
  if (first != std::string::npos && buf.str()[first] != '{') {
    check_prometheus(file, buf.str());
    return;
  }
  Value doc;
  try {
    doc = splice::json::parse(buf.str());
  } catch (const splice::Error& e) {
    fail(file, std::string("JSON parse error: ") + e.what());
    return;
  }
  if (!doc.is_object()) {
    fail(file, "top level is not an object");
    return;
  }
  if (doc.find("traceEvents") != nullptr) {
    check_chrome_trace(file, doc);
    return;
  }
  const Value* schema = doc.find("schema");
  std::string name =
      schema != nullptr && schema->is_string() ? schema->as_string() : "";
  if (name == "splice-stats-v1") {
    check_stats(file, doc);
  } else if (name == "splice-bench-v1") {
    check_bench(file, doc);
  } else if (name == "splice-batch-v1") {
    check_batch(file, doc);
  } else if (name == "splice-explain-v1") {
    check_explain(file, doc);
  } else if (name == "splice-profile-v1") {
    check_profile(file, doc);
  } else if (name == "repo-audit-v1") {
    check_repo_audit(file, doc);
  } else if (name == "repo-audit-cache-v1") {
    check_audit_cache(file, doc);
  } else if (name == "splice-flight-v1") {
    check_flight(file, doc);
  } else {
    fail(file, "unrecognized document (no traceEvents, schema=\"" + name +
                   "\")");
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: trace_check FILE...\n");
    return 2;
  }
  for (int i = 1; i < argc; ++i) check_file(argv[i]);
  return errors == 0 ? 0 : 1;
}
