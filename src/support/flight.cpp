#include "src/support/flight.hpp"

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <functional>
#include <thread>

#include "src/support/trace.hpp"

namespace splice::flight {

// ---- names -----------------------------------------------------------------

std::string_view kind_name(EventKind k) {
  switch (k) {
    case EventKind::RequestBegin: return "request.begin";
    case EventKind::RequestEnd: return "request.end";
    case EventKind::PhaseBegin: return "phase.begin";
    case EventKind::PhaseEnd: return "phase.end";
    case EventKind::SatRestart: return "sat.restart";
    case EventKind::SatConflicts: return "sat.conflicts";
    case EventKind::ModelFound: return "asp.model";
    case EventKind::LoopNogood: return "asp.loop_nogood";
    case EventKind::BoundImproved: return "asp.bound";
    case EventKind::LevelDone: return "asp.level_done";
    case EventKind::GroundDone: return "ground.done";
    case EventKind::SpliceVerdict: return "splice.verdict";
    case EventKind::InstallStep: return "install.step";
    case EventKind::RewireStep: return "install.rewire";
    case EventKind::Mark: return "mark";
  }
  return "unknown";
}

std::string_view phase_name(Phase p) {
  switch (p) {
    case Phase::None: return "none";
    case Phase::Compile: return "compile";
    case Phase::Ground: return "ground";
    case Phase::Solve: return "solve";
    case Phase::Extract: return "extract";
    case Phase::Explain: return "explain";
    case Phase::Audit: return "audit";
    case Phase::Install: return "install";
  }
  return "unknown";
}

std::string_view outcome_name(Outcome o) {
  switch (o) {
    case Outcome::Active: return "active";
    case Outcome::Ok: return "ok";
    case Outcome::Unsat: return "unsat";
    case Outcome::Error: return "error";
    case Outcome::Budget: return "budget";
  }
  return "unknown";
}

// ---- JSON ------------------------------------------------------------------

json::Value Event::to_json() const {
  json::Object o;
  o["seq"] = static_cast<std::int64_t>(seq);
  o["t_us"] = static_cast<double>(t_us);
  o["req"] = static_cast<std::int64_t>(request);
  o["kind"] = kind_name(kind);
  o["phase"] = phase_name(phase);
  o["tid"] = static_cast<std::int64_t>(tid);
  if (a != 0) o["a"] = a;
  if (b != 0) o["b"] = b;
  auto d = detail_view();
  if (!d.empty()) o["detail"] = d;
  return json::Value(std::move(o));
}

double RequestAccount::phase_sum_seconds() const {
  double total = 0;
  for (double s : phase_seconds) total += s;
  return total;
}

json::Value RequestAccount::to_json() const {
  json::Object o;
  o["id"] = static_cast<std::int64_t>(id);
  o["request"] = text;
  o["outcome"] = outcome_name(outcome);
  o["begin_us"] = begin_us;
  o["end_us"] = end_us;
  o["seconds"] = seconds();
  o["slow"] = slow;
  json::Object phases;
  for (std::size_t i = 0; i < kNumPhases; ++i) {
    if (phase_seconds[i] > 0) {
      phases[std::string(phase_name(static_cast<Phase>(i)))] =
          phase_seconds[i];
    }
  }
  o["phases"] = json::Value(std::move(phases));
  json::Object stats;
  stats["conflicts"] = rollup.conflicts;
  stats["decisions"] = rollup.decisions;
  stats["propagations"] = rollup.propagations;
  stats["restarts"] = rollup.restarts;
  stats["models"] = rollup.models;
  stats["loop_nogoods"] = rollup.loop_nogoods;
  stats["ground_rules"] = rollup.ground_rules;
  stats["ground_atoms"] = rollup.ground_atoms;
  stats["sat_vars"] = rollup.sat_vars;
  stats["sat_clauses"] = rollup.sat_clauses;
  o["stats"] = json::Value(std::move(stats));
  o["builds"] = builds;
  o["reused"] = reused;
  o["splices"] = splices;
  if (!note.empty()) o["note"] = note;
  return json::Value(std::move(o));
}

// ---- env parsing -----------------------------------------------------------

namespace {

bool parse_u64(const char* s, std::uint64_t& out) {
  if (s == nullptr || *s == '\0') return false;
  errno = 0;
  char* end = nullptr;
  unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || end == s || *end != '\0') return false;
  out = static_cast<std::uint64_t>(v);
  return true;
}

bool parse_double(const char* s, double& out) {
  if (s == nullptr || *s == '\0') return false;
  errno = 0;
  char* end = nullptr;
  double v = std::strtod(s, &end);
  if (errno != 0 || end == s || *end != '\0') return false;
  out = v;
  return true;
}

bool write_json_file(const std::string& path, const json::Value& doc) {
  std::ofstream out(path);
  if (!out) return false;
  out << doc.dump_pretty() << "\n";
  return static_cast<bool>(out);
}

void warn_env(const char* var, const char* value) {
  std::fprintf(stderr,
               "splice: warning: ignoring malformed %s=\"%s\" "
               "(expected a number)\n",
               var, value == nullptr ? "" : value);
}

}  // namespace

std::uint64_t env_u64(const char* var, const char* value,
                      std::uint64_t fallback) {
  if (value == nullptr) return fallback;
  std::uint64_t out = 0;
  if (!parse_u64(value, out)) {
    warn_env(var, value);
    return fallback;
  }
  return out;
}

double env_double(const char* var, const char* value, double fallback) {
  if (value == nullptr) return fallback;
  double out = 0;
  if (!parse_double(value, out) || out < 0) {
    warn_env(var, value);
    return fallback;
  }
  return out;
}

// ---- Recorder --------------------------------------------------------------

namespace {

/// Calling thread's current (recorder, request) binding, set by RequestScope.
struct Current {
  Recorder* rec = nullptr;
  std::uint32_t id = 0;
};
thread_local Current t_current;

std::uint16_t flight_thread_id() {
  static std::atomic<std::uint16_t> counter{0};
  thread_local std::uint16_t id = counter.fetch_add(1);
  return id;
}

std::size_t round_pow2(std::size_t n) {
  std::size_t cap = 1;
  while (cap < n && cap < (std::size_t{1} << 28)) cap <<= 1;
  return cap;
}

/// Filesystem-safe slug for dump filenames.
std::string slugify(std::string_view text, std::size_t max_len = 40) {
  std::string out;
  for (char c : text) {
    if (out.size() >= max_len) break;
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
              (c >= '0' && c <= '9');
    out.push_back(ok ? c : '-');
  }
  while (!out.empty() && out.back() == '-') out.pop_back();
  return out.empty() ? "request" : out;
}

}  // namespace

Recorder::Recorder(RecorderOptions opts) { configure(std::move(opts)); }

void Recorder::configure(RecorderOptions opts) {
  std::lock_guard<std::mutex> lock(mu_);
  opts_ = std::move(opts);
  if (opts_.capacity == 0) opts_.capacity = 1;
  opts_.capacity = round_pow2(opts_.capacity);
  if (opts_.max_requests == 0) opts_.max_requests = 1;
  enabled_.store(opts_.enabled, std::memory_order_relaxed);
  epoch_ = std::chrono::steady_clock::now();
  ring_.assign(opts_.capacity, Event{});
  next_seq_ = 0;
  next_request_ = 1;
  accounts_.clear();
  account_order_.clear();
  span_totals_.assign(span_totals_.size(), SpanTotals{});
  kind_counts_.fill(0);
}

Recorder& Recorder::global() {
  static Recorder* rec = [] {
    RecorderOptions opts;
    if (const char* p = std::getenv("SPLICE_FLIGHT")) {
      std::string_view v(p);
      if (v == "off" || v == "0" || v == "false") opts.enabled = false;
    }
    opts.capacity = static_cast<std::size_t>(
        env_u64("SPLICE_FLIGHT_CAPACITY",
                std::getenv("SPLICE_FLIGHT_CAPACITY"), opts.capacity));
    opts.slow_ms = env_double("SPLICE_FLIGHT_SLOW_MS",
                              std::getenv("SPLICE_FLIGHT_SLOW_MS"), 0);
    opts.slow_conflicts =
        env_u64("SPLICE_FLIGHT_SLOW_CONFLICTS",
                std::getenv("SPLICE_FLIGHT_SLOW_CONFLICTS"), 0);
    if (const char* p = std::getenv("SPLICE_FLIGHT_DIR"); p && *p) {
      opts.dump_dir = p;
      opts.dump_abnormal = true;
    }
    // Asking for a trace export asks for recording.
    static std::string trace_path, stats_path;
    if (const char* p = std::getenv("SPLICE_TRACE");
        trace::env_export_path_ok("SPLICE_TRACE", p)) {
      trace_path = p;
    }
    if (const char* p = std::getenv("SPLICE_TRACE_STATS");
        trace::env_export_path_ok("SPLICE_TRACE_STATS", p)) {
      stats_path = p;
    }
    bool exports = !trace_path.empty() || !stats_path.empty();
    if (exports) opts.enabled = true;
    // Never destroyed: must stay usable from atexit and signal handlers.
    auto* r = new Recorder(std::move(opts));
    if (exports) {
      std::atexit([] {
        const Recorder& g = Recorder::global();
        if (!trace_path.empty() &&
            !write_json_file(trace_path, g.chrome_trace())) {
          std::fprintf(stderr,
                       "splice: warning: SPLICE_TRACE: cannot write "
                       "chrome trace to \"%s\"\n",
                       trace_path.c_str());
        }
        if (!stats_path.empty() &&
            !write_json_file(stats_path, g.stats_json())) {
          std::fprintf(stderr,
                       "splice: warning: SPLICE_TRACE_STATS: cannot write "
                       "stats to \"%s\"\n",
                       stats_path.c_str());
        }
      });
    }
    if (const char* p = std::getenv("SPLICE_FLIGHT_EXIT"); p && *p) {
      static std::string exit_path;
      exit_path = p;
      std::atexit([] {
        if (!Recorder::global().write_dump(exit_path, "exit")) {
          std::fprintf(stderr,
                       "splice: warning: SPLICE_FLIGHT_EXIT: cannot write "
                       "flight dump to \"%s\"\n",
                       exit_path.c_str());
        }
      });
    }
    if (const char* p = std::getenv("SPLICE_FLIGHT_CRASH"); p && *p) {
      install_crash_handler(p);
    }
    double watchdog_ms = env_double(
        "SPLICE_FLIGHT_WATCHDOG_MS", std::getenv("SPLICE_FLIGHT_WATCHDOG_MS"),
        0);
    if (watchdog_ms > 0) r->start_watchdog(watchdog_ms);
    return r;
  }();
  return *rec;
}

double Recorder::now_us() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

std::uint64_t Recorder::to_us(std::chrono::steady_clock::time_point t) const {
  return t > epoch_ ? static_cast<std::uint64_t>(
                          std::chrono::duration<double, std::micro>(t - epoch_)
                              .count())
                    : 0;
}

namespace {

void set_detail(Event& ev, std::string_view detail) {
  std::size_t n = std::min(detail.size(), sizeof(ev.detail) - 1);
  if (n > 0) std::memcpy(ev.detail, detail.data(), n);
}

}  // namespace

Event Recorder::make_event(EventKind kind, std::uint64_t t_us) const {
  Event ev;
  ev.t_us = t_us;
  ev.kind = kind;
  ev.tid = flight_thread_id();
  if (t_current.rec == this) ev.request = t_current.id;
  return ev;
}

void Recorder::push_locked(Event ev) {
  ev.seq = next_seq_++;
  ring_[ev.seq & (ring_.size() - 1)] = ev;
  ++kind_counts_[static_cast<std::size_t>(ev.kind)];
}

void Recorder::do_emit(EventKind kind, std::int64_t a, std::int64_t b,
                       std::string_view detail, Phase phase) {
  Event ev = make_event(kind, static_cast<std::uint64_t>(now_us()));
  ev.a = a;
  ev.b = b;
  ev.phase = phase;
  set_detail(ev, detail);
  std::lock_guard<std::mutex> lock(mu_);
  push_locked(ev);
}

std::uint32_t Recorder::begin_span(std::string_view name, Phase phase,
                                   std::uint64_t t_us) {
  Event ev = make_event(EventKind::PhaseBegin, t_us);
  ev.phase = phase;
  set_detail(ev, name);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = span_ids_.find(name);
  if (it == span_ids_.end()) {
    auto id = static_cast<std::uint32_t>(span_names_.size());
    span_names_.emplace_back(name);
    it = span_ids_.emplace(std::string(name), id).first;
  }
  ev.b = it->second;
  push_locked(ev);
  return it->second;
}

void Recorder::end_span(std::uint32_t name_id, Phase phase,
                        std::uint64_t begin_us, std::uint64_t end_us,
                        double seconds) {
  Event ev = make_event(EventKind::PhaseEnd, end_us);
  ev.phase = phase;
  ev.a = static_cast<std::int64_t>(begin_us);
  ev.b = name_id;
  std::lock_guard<std::mutex> lock(mu_);
  set_detail(ev, span_names_[name_id]);
  push_locked(ev);
  if (span_totals_.size() <= name_id) span_totals_.resize(name_id + 1);
  SpanTotals& t = span_totals_[name_id];
  if (t.count == 0 || seconds < t.min) t.min = seconds;
  if (t.count == 0 || seconds > t.max) t.max = seconds;
  t.total += seconds;
  ++t.count;
  if (phase != Phase::None && ev.request != 0) {
    if (RequestAccount* acc = find_locked(ev.request)) {
      acc->phase_seconds[static_cast<std::size_t>(phase)] += seconds;
    }
  }
}

std::uint32_t Recorder::current_request() const {
  return t_current.rec == this ? t_current.id : 0;
}

RequestAccount* Recorder::find_locked(std::uint32_t id) {
  auto it = accounts_.find(id);
  return it == accounts_.end() ? nullptr : &it->second;
}

std::uint32_t Recorder::begin_request(std::string_view text) {
  if (!enabled()) return 0;
  double t = now_us();
  std::lock_guard<std::mutex> lock(mu_);
  std::uint32_t id = next_request_++;
  RequestAccount acc;
  acc.id = id;
  acc.text = std::string(text);
  acc.begin_us = t;
  accounts_.emplace(id, std::move(acc));
  account_order_.push_back(id);
  // Evict the oldest finished account once over budget; active accounts are
  // only sacrificed when nothing finished remains.
  while (accounts_.size() > opts_.max_requests) {
    auto victim = account_order_.end();
    for (auto it = account_order_.begin(); it != account_order_.end(); ++it) {
      auto* acc_p = find_locked(*it);
      if (acc_p == nullptr || acc_p->outcome != Outcome::Active) {
        victim = it;
        break;
      }
    }
    if (victim == account_order_.end()) victim = account_order_.begin();
    accounts_.erase(*victim);
    account_order_.erase(victim);
  }
  Event ev = make_event(EventKind::RequestBegin, static_cast<std::uint64_t>(t));
  ev.request = id;
  set_detail(ev, text);
  push_locked(ev);
  return id;
}

void Recorder::end_request(std::uint32_t id, Outcome outcome,
                           std::string_view note) {
  if (!enabled() || id == 0) return;
  double t = now_us();
  RequestAccount snapshot;
  double slow_ms = 0;
  std::uint64_t slow_conflicts = 0;
  bool dump_abnormal = false;
  bool export_metrics = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    RequestAccount* acc = find_locked(id);
    if (acc == nullptr || acc->outcome != Outcome::Active) return;
    acc->end_us = t;
    acc->outcome = outcome;
    acc->note = std::string(note);
    slow_ms = opts_.slow_ms;
    slow_conflicts = opts_.slow_conflicts;
    acc->slow =
        (slow_ms > 0 && acc->seconds() * 1000.0 >= slow_ms) ||
        (slow_conflicts > 0 && acc->rollup.conflicts >= slow_conflicts);
    dump_abnormal = opts_.dump_abnormal &&
                    (outcome == Outcome::Error || outcome == Outcome::Budget);
    export_metrics = opts_.export_metrics;
    snapshot = *acc;
    Event ev = make_event(EventKind::RequestEnd, static_cast<std::uint64_t>(t));
    ev.request = id;
    ev.a = static_cast<std::int64_t>(acc->seconds() * 1e6);
    ev.b = static_cast<std::int64_t>(acc->rollup.conflicts);
    set_detail(ev, outcome_name(outcome));
    push_locked(ev);
  }
  if (export_metrics) {
    auto& m = trace::Tracer::global().metrics();
    m.add("flight.requests");
    m.add("flight.requests." + std::string(outcome_name(outcome)));
    if (snapshot.slow) m.add("flight.slow_requests");
    m.observe("flight.request/seconds", snapshot.seconds());
    m.observe("flight.request/conflicts",
              static_cast<double>(snapshot.rollup.conflicts));
    for (std::size_t i = 0; i < kNumPhases; ++i) {
      if (snapshot.phase_seconds[i] > 0) {
        m.observe("flight.phase/" +
                      std::string(phase_name(static_cast<Phase>(i))) +
                      ".seconds",
                  snapshot.phase_seconds[i]);
      }
    }
  }
  if (snapshot.slow || dump_abnormal) {
    std::string path =
        auto_dump_path(snapshot, snapshot.slow ? "slow" : "abnormal");
    if (!path.empty()) {
      std::ofstream out(path);
      if (out) {
        out << dump_request_json(id, snapshot.slow ? "slow" : "abnormal")
                   .dump_pretty()
            << "\n";
      }
      if (!out) {
        std::fprintf(stderr,
                     "splice: warning: cannot write flight dump to \"%s\"\n",
                     path.c_str());
      }
    }
  }
}

std::string Recorder::auto_dump_path(const RequestAccount& acc,
                                     std::string_view stem) const {
  if (opts_.dump_dir.empty()) return {};
  std::string path = opts_.dump_dir;
  if (path.back() != '/') path.push_back('/');
  path += "flight-";
  path += std::string(stem);
  path += "-";
  path += std::to_string(acc.id);
  path += "-";
  path += slugify(acc.text);
  path += ".json";
  return path;
}

void Recorder::add_rollup(std::uint32_t id, const Rollup& r) {
  if (!enabled() || id == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  RequestAccount* acc = find_locked(id);
  if (acc == nullptr) return;
  acc->rollup.conflicts += r.conflicts;
  acc->rollup.decisions += r.decisions;
  acc->rollup.propagations += r.propagations;
  acc->rollup.restarts += r.restarts;
  acc->rollup.models += r.models;
  acc->rollup.loop_nogoods += r.loop_nogoods;
  acc->rollup.ground_rules += r.ground_rules;
  acc->rollup.ground_atoms += r.ground_atoms;
  acc->rollup.sat_vars += r.sat_vars;
  acc->rollup.sat_clauses += r.sat_clauses;
}

void Recorder::add_solution(std::uint32_t id, std::uint64_t builds,
                            std::uint64_t reused, std::uint64_t splices) {
  if (!enabled() || id == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  RequestAccount* acc = find_locked(id);
  if (acc == nullptr) return;
  acc->builds += builds;
  acc->reused += reused;
  acc->splices += splices;
}

std::uint64_t Recorder::total_events() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_seq_;
}

std::vector<Event> Recorder::events_locked() const {
  std::vector<Event> out;
  std::uint64_t n = std::min<std::uint64_t>(next_seq_, ring_.size());
  out.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t seq = next_seq_ - n; seq < next_seq_; ++seq) {
    out.push_back(ring_[seq & (ring_.size() - 1)]);
  }
  return out;
}

std::vector<Event> Recorder::events() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_locked();
}

std::vector<RequestAccount> Recorder::requests() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<RequestAccount> out;
  out.reserve(account_order_.size());
  for (std::uint32_t id : account_order_) {
    auto it = accounts_.find(id);
    if (it != accounts_.end()) out.push_back(it->second);
  }
  return out;
}

std::optional<RequestAccount> Recorder::request(std::uint32_t id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = accounts_.find(id);
  if (it == accounts_.end()) return std::nullopt;
  return it->second;
}

void Recorder::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  ring_.assign(ring_.size(), Event{});
  next_seq_ = 0;
  accounts_.clear();
  account_order_.clear();
  span_totals_.assign(span_totals_.size(), SpanTotals{});
  kind_counts_.fill(0);
}

// ---- span tree -------------------------------------------------------------

json::Value span_tree(const std::vector<Event>& events, std::uint32_t request,
                      const std::vector<std::string>& names) {
  struct Node {
    std::string name;
    double t_us = 0;
    double dur_us = 0;
    std::vector<Node> children;
  };
  // Per-thread stacks of open phases; unmatched PhaseEnd events (their
  // PhaseBegin fell off the ring) are dropped rather than mis-nested.
  std::map<std::uint16_t, std::vector<Node>> stacks;
  std::vector<Node> roots;
  auto close = [&](std::vector<Node>& stack, double t_us) {
    Node n = std::move(stack.back());
    stack.pop_back();
    n.dur_us = t_us - n.t_us;
    if (stack.empty()) {
      roots.push_back(std::move(n));
    } else {
      stack.back().children.push_back(std::move(n));
    }
  };
  for (const Event& ev : events) {
    if (request != 0 && ev.request != request) continue;
    if (ev.kind == EventKind::PhaseBegin) {
      Node n;
      auto id = static_cast<std::size_t>(ev.b);
      n.name = id < names.size() ? names[id] : std::string(ev.detail_view());
      n.t_us = static_cast<double>(ev.t_us);
      stacks[ev.tid].push_back(std::move(n));
    } else if (ev.kind == EventKind::PhaseEnd) {
      auto& stack = stacks[ev.tid];
      if (!stack.empty()) close(stack, static_cast<double>(ev.t_us));
    }
  }
  // Phases still open (request active, or PhaseEnd beyond the snapshot)
  // close at their own start time: visible, zero-length.
  for (auto& [tid, stack] : stacks) {
    while (!stack.empty()) close(stack, stack.back().t_us);
  }
  std::sort(roots.begin(), roots.end(),
            [](const Node& x, const Node& y) { return x.t_us < y.t_us; });
  std::function<json::Value(const Node&)> to_json = [&](const Node& n) {
    json::Object o;
    o["name"] = n.name;
    o["t_us"] = n.t_us;
    o["dur_us"] = n.dur_us;
    if (!n.children.empty()) {
      json::Array kids;
      for (const Node& c : n.children) kids.push_back(to_json(c));
      o["children"] = json::Value(std::move(kids));
    }
    return json::Value(std::move(o));
  };
  json::Array out;
  for (const Node& n : roots) out.push_back(to_json(n));
  return json::Value(std::move(out));
}

// ---- exports ---------------------------------------------------------------

json::Value Recorder::dump(std::string_view reason,
                           std::uint32_t only_request) const {
  std::vector<Event> events;
  std::vector<RequestAccount> accounts;
  std::vector<std::string> names;
  json::Object doc;
  {
    std::lock_guard<std::mutex> lock(mu_);
    events = events_locked();
    names = span_names_;
    for (std::uint32_t id : account_order_) {
      auto it = accounts_.find(id);
      if (it != accounts_.end() && (only_request == 0 || id == only_request)) {
        accounts.push_back(it->second);
      }
    }
    doc["schema"] = "splice-flight-v1";
    doc["reason"] = reason;
    doc["capacity"] = static_cast<std::int64_t>(ring_.size());
    doc["total_events"] = static_cast<std::int64_t>(next_seq_);
    std::uint64_t dropped =
        next_seq_ > ring_.size() ? next_seq_ - ring_.size() : 0;
    doc["dropped_events"] = static_cast<std::int64_t>(dropped);
    doc["slow_ms"] = opts_.slow_ms;
    doc["slow_conflicts"] = static_cast<std::int64_t>(opts_.slow_conflicts);
  }
  json::Array reqs;
  for (const RequestAccount& acc : accounts) {
    json::Value r = acc.to_json();
    r["spans"] = span_tree(events, acc.id, names);
    reqs.push_back(std::move(r));
  }
  doc["requests"] = json::Value(std::move(reqs));
  json::Array evs;
  for (const Event& ev : events) {
    if (only_request != 0 && ev.request != only_request) continue;
    json::Value j = ev.to_json();
    auto id = static_cast<std::size_t>(ev.b);
    bool span = ev.kind == EventKind::PhaseBegin ||
                ev.kind == EventKind::PhaseEnd;
    if (span && id < names.size()) j["detail"] = names[id];
    evs.push_back(std::move(j));
  }
  doc["events"] = json::Value(std::move(evs));
  return json::Value(std::move(doc));
}

json::Value Recorder::dump_json(std::string_view reason) const {
  return dump(reason, 0);
}

json::Value Recorder::dump_request_json(std::uint32_t id,
                                        std::string_view reason) const {
  return dump(reason, id);
}

bool Recorder::write_dump(const std::string& path,
                          std::string_view reason) const {
  return write_json_file(path, dump_json(reason));
}

json::Value Recorder::chrome_trace() const {
  return flight::chrome_trace(dump_json("manual"));
}

json::Value Recorder::stats_json() const {
  std::vector<std::string> names;
  std::vector<SpanTotals> totals;
  std::array<std::uint64_t, kNumKinds> counts{};
  {
    std::lock_guard<std::mutex> lock(mu_);
    names = span_names_;
    totals = span_totals_;
    counts = kind_counts_;
  }
  json::Object spans;
  for (std::size_t id = 0; id < totals.size(); ++id) {
    const SpanTotals& t = totals[id];
    if (t.count == 0) continue;
    json::Object o;
    o["count"] = t.count;
    o["total_seconds"] = t.total;
    o["mean_seconds"] = t.total / static_cast<double>(t.count);
    o["min_seconds"] = t.min;
    o["max_seconds"] = t.max;
    spans[names[id]] = json::Value(std::move(o));
  }
  json::Object events;
  // Request and span begin/end pairs are counted by the spans table and
  // the request accounts; every other kind is a point event.
  for (std::size_t k = static_cast<std::size_t>(EventKind::SatRestart);
       k < kNumKinds; ++k) {
    if (counts[k] > 0) {
      events[std::string(kind_name(static_cast<EventKind>(k)))] = counts[k];
    }
  }
  json::Object doc;
  doc["schema"] = "splice-stats-v1";
  doc["spans"] = json::Value(std::move(spans));
  doc["events"] = json::Value(std::move(events));
  doc["metrics"] = trace::Tracer::global().metrics().to_json();
  return json::Value(std::move(doc));
}

namespace {

double num(const json::Value& obj, const char* key) {
  const json::Value* v = obj.find(key);
  return v != nullptr && v->is_number() ? v->as_double() : 0;
}

std::int64_t integer(const json::Value& obj, const char* key) {
  return static_cast<std::int64_t>(num(obj, key));
}

std::string str(const json::Value& obj, const char* key) {
  const json::Value* v = obj.find(key);
  return v != nullptr && v->is_string() ? v->as_string() : "";
}

json::Value chrome_event(std::string name, std::string category,
                         const char* phase, double ts_us, std::int64_t tid,
                         json::Object args) {
  json::Object e;
  e["name"] = std::move(name);
  if (!category.empty()) e["cat"] = std::move(category);
  e["ph"] = phase;
  e["ts"] = ts_us;
  e["pid"] = 1;
  e["tid"] = tid;
  if (!args.empty()) e["args"] = json::Value(std::move(args));
  return json::Value(std::move(e));
}

json::Value complete_event(std::string name, std::string category,
                           double begin_us, double end_us, std::int64_t tid,
                           json::Object args = {}) {
  json::Value v = chrome_event(std::move(name), std::move(category), "X",
                               begin_us, tid, std::move(args));
  v["dur"] = end_us > begin_us ? end_us - begin_us : 0.0;
  return v;
}

}  // namespace

json::Value chrome_trace(const json::Value& recording) {
  static const json::Array kNone;
  const json::Value* reqs = recording.find("requests");
  const json::Value* evs = recording.find("events");
  const json::Array& requests =
      reqs != nullptr && reqs->is_array() ? reqs->as_array() : kNone;
  const json::Array& events =
      evs != nullptr && evs->is_array() ? evs->as_array() : kNone;
  std::map<std::int64_t, std::string> texts;  // request id -> request text
  for (const json::Value& r : requests) {
    texts[integer(r, "id")] = str(r, "request");
  }
  std::map<std::int64_t, const json::Value*> begins;  // request id -> begin
  json::Array out;
  for (const json::Value& ev : events) {
    std::string kind = str(ev, "kind");
    double t = num(ev, "t_us");
    std::int64_t tid = integer(ev, "tid");
    std::int64_t req = integer(ev, "req");
    if (kind == "request.begin") {
      begins[req] = &ev;
    } else if (kind == "request.end") {
      auto it = begins.find(req);
      if (it == begins.end()) continue;  // begin fell off the ring
      auto text = texts.find(req);
      out.push_back(complete_event(
          "request " + std::to_string(req) + ": " +
              (text != texts.end() ? text->second : str(*it->second, "detail")),
          "flight", num(*it->second, "t_us"), t, integer(*it->second, "tid")));
    } else if (kind == "phase.end") {
      std::string name = str(ev, "detail");
      std::string category;
      if (std::size_t slash = name.find('/'); slash != std::string::npos) {
        category = name.substr(0, slash);
        name.erase(0, slash + 1);
      }
      json::Object args;
      if (req != 0) args["req"] = req;
      out.push_back(complete_event(std::move(name), std::move(category),
                                   num(ev, "a"), t, tid, std::move(args)));
    } else if (kind != "phase.begin") {
      json::Object args;
      args["req"] = req;
      args["a"] = integer(ev, "a");
      args["b"] = integer(ev, "b");
      if (std::string detail = str(ev, "detail"); !detail.empty()) {
        args["detail"] = std::move(detail);
      }
      json::Value inst =
          chrome_event(kind, "flight", "i", t, tid, std::move(args));
      inst["s"] = "t";  // thread-scoped
      out.push_back(std::move(inst));
    }
  }
  json::Object other;
  other["dropped_events"] = integer(recording, "dropped_events");
  json::Object doc;
  doc["displayTimeUnit"] = "ms";
  doc["traceEvents"] = json::Value(std::move(out));
  doc["otherData"] = json::Value(std::move(other));
  return json::Value(std::move(doc));
}

// ---- watchdog --------------------------------------------------------------

void Recorder::start_watchdog(double ms) {
  if (ms <= 0) return;
  bool expected = false;
  if (!watchdog_running_.compare_exchange_strong(expected, true)) return;
  std::thread([this, ms] {
    std::uint32_t last_dumped = 0;
    for (;;) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(static_cast<std::int64_t>(ms) / 4 + 1));
      if (!enabled()) continue;
      double now = now_us();
      std::uint32_t overdue = 0;
      std::string dir;
      {
        std::lock_guard<std::mutex> lock(mu_);
        dir = opts_.dump_dir;
        for (std::uint32_t id : account_order_) {
          auto it = accounts_.find(id);
          if (it == accounts_.end()) continue;
          const RequestAccount& acc = it->second;
          if (acc.outcome == Outcome::Active && id > last_dumped &&
              (now - acc.begin_us) * 1e-3 >= ms) {
            overdue = id;
            break;
          }
        }
      }
      if (overdue == 0 || dir.empty()) continue;
      last_dumped = overdue;
      std::string path = dir;
      if (path.back() != '/') path.push_back('/');
      path += "flight-watchdog-" + std::to_string(overdue) + ".json";
      std::ofstream out(path);
      if (out) out << dump_json("watchdog").dump_pretty() << "\n";
    }
  }).detach();
}

// ---- crash handler ---------------------------------------------------------

namespace {

char g_crash_path[512] = {};

extern "C" void flight_crash_handler(int sig) {
  // Best effort: ofstream/malloc are not async-signal-safe, but on the way
  // to process death after SIGSEGV a recovered dump beats no dump.  The
  // handler re-raises with default disposition either way.
  std::signal(sig, SIG_DFL);
  if (g_crash_path[0] != '\0') {
    Recorder::global().write_dump(g_crash_path, "signal");
  }
  std::raise(sig);
}

}  // namespace

void Recorder::install_crash_handler(std::string path) {
  std::size_t n = std::min(path.size(), sizeof(g_crash_path) - 1);
  std::memcpy(g_crash_path, path.data(), n);
  g_crash_path[n] = '\0';
  for (int sig : {SIGSEGV, SIGBUS, SIGFPE, SIGILL, SIGABRT}) {
    std::signal(sig, flight_crash_handler);
  }
}

// ---- RequestScope / Span ---------------------------------------------------

RequestScope::RequestScope(std::string_view text, Recorder& recorder)
    : uncaught_(std::uncaught_exceptions()) {
  if (!recorder.enabled()) return;
  rec_ = &recorder;
  id_ = recorder.begin_request(text);
  prev_rec_ = t_current.rec;
  prev_id_ = t_current.id;
  t_current.rec = rec_;
  t_current.id = id_;
}

RequestScope::~RequestScope() {
  if (rec_ == nullptr) return;
  finish(std::uncaught_exceptions() > uncaught_ ? Outcome::Error : Outcome::Ok,
         std::uncaught_exceptions() > uncaught_ ? "uncaught exception" : "");
  t_current.rec = prev_rec_;
  t_current.id = prev_id_;
}

void RequestScope::finish(Outcome outcome, std::string_view note) {
  if (rec_ == nullptr || finished_) return;
  finished_ = true;
  rec_->end_request(id_, outcome, note);
}

Span::Span(std::string_view name, std::string_view category, Phase phase,
           Recorder& recorder)
    : phase_(phase), start_(std::chrono::steady_clock::now()) {
  if (!recorder.enabled()) return;
  rec_ = &recorder;
  begin_us_ = recorder.to_us(start_);
  std::string key(category);
  if (!key.empty()) key += '/';
  key += name;
  name_id_ = recorder.begin_span(key, phase, begin_us_);
}

double Span::seconds() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start_)
      .count();
}

void Span::end() {
  if (rec_ == nullptr) return;
  auto now = std::chrono::steady_clock::now();
  rec_->end_span(name_id_, phase_, begin_us_, rec_->to_us(now),
                 std::chrono::duration<double>(now - start_).count());
  rec_ = nullptr;
}

}  // namespace splice::flight
