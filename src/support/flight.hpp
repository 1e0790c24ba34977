// The flight recorder: the one event store of the concretization pipeline.
//
// Every instrumented layer records into one fixed-capacity ring of compact
// POD events, and every exporter reads from it:
//
//   * Recorder — a thread-safe ring buffer of 64-byte events (request
//     begin/end, span begin/end, CDCL progress snapshots, splice verdicts,
//     install/rewire steps).  It is ON by default in every binary linking
//     splice_support; old events are overwritten, so memory is bounded and
//     the last window of activity is always reconstructible.  Alongside the
//     ring it keeps exact running aggregates (per-span count/total/min/max,
//     per-kind event counts) that survive wraparound.
//   * Span — the one RAII scope type.  It records begin/end into the ring
//     and, when given a Phase, accumulates its duration into the current
//     request's account.
//   * Per-request accounting — RequestScope gives each concretization (or
//     audit group, or explain probe) a stable numeric id; phase durations,
//     solver stat rollups and the outcome accumulate into a bounded table
//     of RequestAccounts.
//   * Exports — `splice-flight-v1` dumps (whole ring or one request with its
//     span tree), Chrome trace-event JSON derived from a dump (chrome_trace,
//     loadable in chrome://tracing and Perfetto) and `splice-stats-v1`
//     (stats_json: the span aggregates, event counts and the metrics
//     registry).
//   * Slow-request log — a request whose latency or conflict count crosses
//     a configurable threshold automatically dumps its account, its event
//     slice and the derived span tree.
//   * Watchdog / abnormal-exit dumps — an optional watchdog thread dumps
//     the ring when a request overstays its budget; fatal-signal and
//     at-exit hooks flush it to disk so crashes and hangs are diagnosable
//     after the fact.
//
// Overhead contract: with recording enabled at default capacity the
// aggregate cost on bench_asp_core stays ≤2% versus the recorder compiled
// out (-DSPLICE_FLIGHT=OFF defines SPLICE_FLIGHT_DISABLED and every hook
// below collapses to nothing); see bench_logs/FLIGHT_OVERHEAD.md.
//
// Environment hooks (any binary linking splice_support):
//   SPLICE_FLIGHT=off                disable recording at startup
//   SPLICE_FLIGHT_CAPACITY=<n>       ring capacity in events (default 16384)
//   SPLICE_FLIGHT_SLOW_MS=<n>        slow-request latency threshold
//   SPLICE_FLIGHT_SLOW_CONFLICTS=<n> slow-request conflict threshold
//   SPLICE_FLIGHT_DIR=<dir>          where automatic dumps are written
//   SPLICE_FLIGHT_EXIT=<file>        dump the full ring at process exit
//   SPLICE_FLIGHT_CRASH=<file>       dump on SIGSEGV/SIGBUS/SIGABRT/...
//   SPLICE_FLIGHT_WATCHDOG_MS=<n>    dump requests still active after n ms
//   SPLICE_TRACE=<file>              record, and write the Chrome trace at exit
//   SPLICE_TRACE_STATS=<file>        record, and write splice-stats-v1 at exit
// Malformed values warn once on stderr and fall back to the default; they
// are never silently dropped.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <deque>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "src/support/json.hpp"

namespace splice::flight {

/// What an event records.  kind_name gives the JSON name ("sat.restart",
/// "asp.bound", ...), which is also the event's key in splice-stats-v1.
enum class EventKind : std::uint8_t {
  RequestBegin,   ///< detail = request text (truncated)
  RequestEnd,     ///< a = latency us, b = conflicts, detail = outcome
  PhaseBegin,     ///< span opened (b = span name id, detail = span name)
  PhaseEnd,       ///< span closed (a = its begin t_us, b = span name id)
  SatRestart,     ///< CDCL restart (a = cumulative conflicts)
  SatConflicts,   ///< conflict batch tick (a = cumulative conflicts)
  ModelFound,     ///< candidate stable model (a = models, b = conflicts)
  LoopNogood,     ///< unfounded-set refutation (a = cumulative conflicts)
  BoundImproved,  ///< optimization bound improved (a = cost, b = priority)
  LevelDone,      ///< #minimize level finished (a = cost, b = priority)
  GroundDone,     ///< grounding finished (a = possible atoms, b = rules)
  SpliceVerdict,  ///< executed splice (detail = "parent->replacement")
  InstallStep,    ///< binary written (a = bytes, detail = package)
  RewireStep,     ///< binary rewired (a = bytes, detail = package)
  Mark,           ///< free-form point annotation
};

inline constexpr std::size_t kNumKinds =
    static_cast<std::size_t>(EventKind::Mark) + 1;

std::string_view kind_name(EventKind k);

/// Pipeline phase an event (or an accounted duration) belongs to.
enum class Phase : std::uint8_t {
  None,
  Compile,
  Ground,
  Solve,
  Extract,
  Explain,
  Audit,
  Install,
};

inline constexpr std::size_t kNumPhases = 8;

std::string_view phase_name(Phase p);

/// How a request ended.  Budget = the solver gave up after its model budget
/// (unsat-after-budget); Error covers thrown exceptions.
enum class Outcome : std::uint8_t { Active, Ok, Unsat, Error, Budget };

std::string_view outcome_name(Outcome o);

/// One ring slot: a compact, trivially-copyable record.  64 bytes.
struct Event {
  std::uint64_t seq = 0;   ///< global sequence number (monotonic, never wraps)
  std::uint64_t t_us = 0;  ///< microseconds since the recorder's epoch
  std::int64_t a = 0;      ///< kind-specific payload (see EventKind)
  std::int64_t b = 0;      ///< kind-specific payload
  std::uint32_t request = 0;  ///< owning request id; 0 = unattributed
  EventKind kind = EventKind::Mark;
  Phase phase = Phase::None;
  std::uint16_t tid = 0;   ///< small consecutive per-thread id
  char detail[24] = {};    ///< NUL-terminated, truncated label

  std::string_view detail_view() const {
    return {detail, ::strnlen(detail, sizeof(detail))};
  }
  json::Value to_json() const;
};

static_assert(std::is_trivially_copyable_v<Event>, "ring slots must be PODs");
static_assert(sizeof(Event) == 64, "keep the ring slot cache-line sized");

/// Numeric per-request rollups pushed by the pipeline (plain numbers so the
/// support layer stays below src/asp in the dependency order).
struct Rollup {
  std::uint64_t conflicts = 0;
  std::uint64_t decisions = 0;
  std::uint64_t propagations = 0;
  std::uint64_t restarts = 0;
  std::uint64_t models = 0;
  std::uint64_t loop_nogoods = 0;
  std::uint64_t ground_rules = 0;
  std::uint64_t ground_atoms = 0;
  std::uint64_t sat_vars = 0;
  std::uint64_t sat_clauses = 0;
};

/// The per-request accounting record.
struct RequestAccount {
  std::uint32_t id = 0;
  std::string text;        ///< the request, in user language
  double begin_us = 0;
  double end_us = 0;       ///< 0 while the request is active
  Outcome outcome = Outcome::Active;
  std::string note;        ///< outcome detail (error message, unsat reason)
  std::array<double, kNumPhases> phase_seconds{};
  Rollup rollup;
  std::uint64_t builds = 0;
  std::uint64_t reused = 0;
  std::uint64_t splices = 0;
  bool slow = false;       ///< crossed a slow-request threshold

  double seconds() const {
    return end_us > begin_us ? (end_us - begin_us) * 1e-6 : 0;
  }
  /// Sum of the accounted per-phase durations.
  double phase_sum_seconds() const;
  json::Value to_json() const;
};

struct RecorderOptions {
  /// Ring capacity in events; rounded up to a power of two.
  std::size_t capacity = 16384;
  /// Finished request accounts retained (oldest dropped first).
  std::size_t max_requests = 256;
  /// >0: requests at least this slow auto-dump their slice on end_request.
  double slow_ms = 0;
  /// >0: requests with at least this many conflicts auto-dump too.
  std::uint64_t slow_conflicts = 0;
  /// Directory automatic dumps are written to.
  std::string dump_dir = ".";
  /// Also auto-dump requests ending in Error/Budget outcomes.
  bool dump_abnormal = false;
  /// Roll finished requests into Tracer::global().metrics() (request
  /// latency/conflict histograms, outcome counters) for metrics_text().
  bool export_metrics = true;
  bool enabled = true;
};

/// The process-wide ring buffer + request table.  All pipeline hooks record
/// into `Recorder::global()`; tests construct private instances.
class Recorder {
 public:
  explicit Recorder(RecorderOptions opts = {});

  /// The singleton.  First access honours the environment hooks listed at
  /// the top of this file.
  static Recorder& global();

  bool enabled() const {
#if defined(SPLICE_FLIGHT_DISABLED)
    return false;
#else
    return enabled_.load(std::memory_order_relaxed);
#endif
  }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  const RecorderOptions& options() const { return opts_; }
  /// Replace the configuration; drops all recorded events, accounts and
  /// aggregates.
  void configure(RecorderOptions opts);

  /// Microseconds since this recorder's epoch.
  double now_us() const;

  // -- request lifecycle (prefer RequestScope) ------------------------------

  /// Open a request account; returns its stable id (0 when disabled).
  std::uint32_t begin_request(std::string_view text);
  /// Close a request: records the outcome, applies the slow-request policy
  /// (threshold check, metrics rollup, automatic dump).
  void end_request(std::uint32_t id, Outcome outcome,
                   std::string_view note = {});
  void add_rollup(std::uint32_t id, const Rollup& r);
  void add_solution(std::uint32_t id, std::uint64_t builds,
                    std::uint64_t reused, std::uint64_t splices);
  void add_phase_seconds(std::uint32_t id, Phase p, double seconds);

  // -- event emission -------------------------------------------------------

  /// Record one event, attributed to the calling thread's current request
  /// (see RequestScope).  Compiles away under SPLICE_FLIGHT_DISABLED; a
  /// disabled recorder pays one relaxed atomic load.
  void emit(EventKind kind, std::int64_t a = 0, std::int64_t b = 0,
            std::string_view detail = {}, Phase phase = Phase::None) {
    if (!enabled()) return;
    do_emit(kind, a, b, detail, phase);
  }

  /// The calling thread's current request id on this recorder (0 if none).
  std::uint32_t current_request() const;

  // -- introspection --------------------------------------------------------

  std::uint64_t total_events() const;  ///< ever emitted (ring may have less)
  std::size_t capacity() const { return ring_.size(); }
  /// Ring snapshot, oldest event first.
  std::vector<Event> events() const;
  /// Account snapshot, oldest first (active requests included).
  std::vector<RequestAccount> requests() const;
  std::optional<RequestAccount> request(std::uint32_t id) const;

  // -- exports --------------------------------------------------------------

  /// Whole-ring dump (`splice-flight-v1`): every retained account + the full
  /// event window.
  json::Value dump_json(std::string_view reason) const;
  /// Single-request dump: that account, its event slice and span tree.
  json::Value dump_request_json(std::uint32_t id,
                                std::string_view reason) const;
  bool write_dump(const std::string& path, std::string_view reason) const;

  /// chrome_trace() of the whole-ring dump.
  json::Value chrome_trace() const;
  /// `splice-stats-v1`: every span aggregated by name since the last clear
  /// (count, total/mean/min/max seconds; exact even after the ring wraps),
  /// per-kind counts of the other events, and the global metrics registry.
  json::Value stats_json() const;

  /// Start a daemon watchdog: any request still active after `ms`
  /// milliseconds triggers one whole-ring dump into options().dump_dir.
  void start_watchdog(double ms);

  /// Install fatal-signal handlers (SEGV/BUS/FPE/ILL/ABRT) on the global
  /// recorder that flush the ring to `path` before re-raising.
  static void install_crash_handler(std::string path);

  /// Drop all events, accounts and aggregates (not the configuration).
  void clear();

 private:
  friend class RequestScope;
  friend class Span;

  /// Exact running aggregate of one span name.
  struct SpanTotals {
    std::uint64_t count = 0;
    double total = 0, min = 0, max = 0;
  };

  void do_emit(EventKind kind, std::int64_t a, std::int64_t b,
               std::string_view detail, Phase phase);
  /// Whole microseconds from this recorder's epoch to `t` (0 if earlier).
  std::uint64_t to_us(std::chrono::steady_clock::time_point t) const;
  Event make_event(EventKind kind, std::uint64_t t_us) const;
  void push_locked(Event ev);
  std::uint32_t begin_span(std::string_view name, Phase phase,
                           std::uint64_t t_us);
  void end_span(std::uint32_t name_id, Phase phase, std::uint64_t begin_us,
                std::uint64_t end_us, double seconds);
  std::vector<Event> events_locked() const;
  /// The dump behind dump_json (only_request 0) and dump_request_json.
  json::Value dump(std::string_view reason, std::uint32_t only_request) const;
  RequestAccount* find_locked(std::uint32_t id);
  /// Dump-file path for an automatic dump; "" when dumping is off.
  std::string auto_dump_path(const RequestAccount& acc,
                             std::string_view stem) const;

  RecorderOptions opts_;
  std::atomic<bool> enabled_{true};
  std::chrono::steady_clock::time_point epoch_;

  mutable std::mutex mu_;
  std::vector<Event> ring_;       ///< capacity slots, seq % capacity
  std::uint64_t next_seq_ = 0;    ///< total events ever emitted
  std::uint32_t next_request_ = 1;
  std::map<std::uint32_t, RequestAccount> accounts_;
  std::deque<std::uint32_t> account_order_;
  /// Span names by id ("category/name"); never cleared, so ids stay valid.
  std::vector<std::string> span_names_;
  std::map<std::string, std::uint32_t, std::less<>> span_ids_;
  std::vector<SpanTotals> span_totals_;       ///< by span name id
  std::array<std::uint64_t, kNumKinds> kind_counts_{};
  std::atomic<bool> watchdog_running_{false};
};

/// RAII request account: begins on construction, binds the calling thread's
/// subsequent emissions to the request, and finishes at scope exit — with
/// Outcome::Error when unwinding an exception, Outcome::Ok otherwise.
/// finish() overrides the outcome explicitly (idempotent).
class RequestScope {
 public:
  explicit RequestScope(std::string_view text,
                        Recorder& recorder = Recorder::global());
  ~RequestScope();

  RequestScope(const RequestScope&) = delete;
  RequestScope& operator=(const RequestScope&) = delete;

  void finish(Outcome outcome, std::string_view note = {});
  std::uint32_t id() const { return id_; }

 private:
  Recorder* rec_ = nullptr;  ///< null when recording was off at construction
  std::uint32_t id_ = 0;
  Recorder* prev_rec_ = nullptr;
  std::uint32_t prev_id_ = 0;
  int uncaught_ = 0;
  bool finished_ = false;
};

/// RAII timed scope, the one span type.  Records a phase.begin event at
/// construction and a phase.end event (carrying the begin time, so a span
/// whose begin fell off the ring still exports whole) at destruction or
/// end().  Its duration folds into the recorder's span aggregate for
/// "category/name" and, when `phase` is not None, into the current
/// request's phase account.  seconds() works whether or not recording is on.
class Span {
 public:
  explicit Span(std::string_view name, std::string_view category = "",
                Phase phase = Phase::None,
                Recorder& recorder = Recorder::global());
  ~Span() { end(); }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Wall-clock seconds since construction.
  double seconds() const;
  /// End the span now instead of at scope exit.  Idempotent.
  void end();

 private:
  Recorder* rec_ = nullptr;  ///< null when recording is off
  Phase phase_ = Phase::None;
  std::uint32_t name_id_ = 0;
  std::uint64_t begin_us_ = 0;
  std::chrono::steady_clock::time_point start_;
};

/// Parse a numeric SPLICE_FLIGHT_* environment value.  A set-but-malformed
/// value (empty, non-numeric, trailing junk) emits one stderr warning naming
/// the variable and the bad value, then returns `fallback`; unset (nullptr)
/// returns `fallback` silently.
std::uint64_t env_u64(const char* var, const char* value,
                      std::uint64_t fallback);
double env_double(const char* var, const char* value, double fallback);

/// Derive the nested span tree for one request from its PhaseBegin/PhaseEnd
/// event slice (per-thread stacks; unmatched events from ring wraparound are
/// tolerated).  Nodes are named from `names` (the recorder's span names, by
/// id), falling back to the event detail.  Returns an array of
/// {name, t_us, dur_us, children}.
json::Value span_tree(const std::vector<Event>& events, std::uint32_t request,
                      const std::vector<std::string>& names = {});

/// Chrome trace-event JSON from a `splice-flight-v1` document: each span
/// becomes a complete ("X") event on the thread that ran it, each finished
/// request a complete event on the thread that began it, every other event
/// a thread-scoped instant ("i") whose args carry its payload.
/// otherData.dropped_events reports how many events fell off the ring.
json::Value chrome_trace(const json::Value& recording);

}  // namespace splice::flight
