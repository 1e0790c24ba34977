// Process metrics: named counters, gauges and histograms (with nearest-rank
// percentiles), for quantities that aggregate rather than nest
// (per-predicate ground-atom counts, rewire bytes written, pool request
// latencies).  Zero-dependency: the in-tree JSON DOM and a mutex.
//
// Events and spans are not recorded here: they go to the flight recorder
// (flight.hpp), which also owns the Chrome trace and splice-stats-v1
// exports and the SPLICE_TRACE / SPLICE_TRACE_STATS environment hooks.  The
// stats export embeds this registry; `metrics_text` renders it as
// Prometheus text.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "src/support/json.hpp"

namespace splice::trace {

/// Counters, gauges and histograms keyed by name.  Thread-safe; all
/// operations are cheap enough for per-solve (not per-propagation) use.
class MetricsRegistry {
 public:
  void add(const std::string& name, std::int64_t delta = 1);
  void set_gauge(const std::string& name, double value);
  void observe(const std::string& name, double sample);

  std::int64_t counter(const std::string& name) const;
  double gauge(const std::string& name) const;

  struct HistSummary {
    std::size_t count = 0;
    double min = 0, max = 0, mean = 0;
    double p50 = 0, p90 = 0, p95 = 0, p99 = 0;
  };
  /// Nearest-rank percentiles over everything observed so far.
  HistSummary histogram(const std::string& name) const;

  /// {"counters": {...}, "gauges": {...}, "histograms": {name: summary}}.
  json::Value to_json() const;

  /// Prometheus text exposition (version 0.0.4): counters and gauges become
  /// samples, histograms become summaries with p50/p95/p99 quantiles plus
  /// `_sum`/`_count`.  Metric names are prefixed and sanitized to the
  /// `[a-zA-Z_:][a-zA-Z0-9_:]*` grammar; everything after a name's first
  /// '/' becomes a `key="..."` label, so families like `ground.atoms/<sig>`
  /// expose one series per signature.
  std::string metrics_text(std::string_view prefix = "splice_") const;

  void clear();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::int64_t> counters_;
  std::map<std::string, double> gauges_;
  std::map<std::string, std::vector<double>> histograms_;
};

/// Holder of the process-wide metrics registry.
class Tracer {
 public:
  /// The singleton used by the instrumented pipeline.
  static Tracer& global();

  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }

 private:
  MetricsRegistry metrics_;
};

/// True when `value` names a usable export path for environment hook `var`.
/// A set-but-blank value (empty or all-whitespace) emits one stderr warning
/// naming the variable instead of being silently dropped; unset (nullptr)
/// is silently false.  Used by flight::Recorder::global() for SPLICE_TRACE /
/// SPLICE_TRACE_STATS; exposed for tests.
bool env_export_path_ok(const char* var, const char* value);

}  // namespace splice::trace
