#include "src/support/trace.hpp"

#include <algorithm>
#include <cstdio>

namespace splice::trace {

// ---- MetricsRegistry -------------------------------------------------------

void MetricsRegistry::add(const std::string& name, std::int64_t delta) {
  std::lock_guard<std::mutex> lock(mu_);
  counters_[name] += delta;
}

void MetricsRegistry::set_gauge(const std::string& name, double value) {
  std::lock_guard<std::mutex> lock(mu_);
  gauges_[name] = value;
}

void MetricsRegistry::observe(const std::string& name, double sample) {
  std::lock_guard<std::mutex> lock(mu_);
  histograms_[name].push_back(sample);
}

std::int64_t MetricsRegistry::counter(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

double MetricsRegistry::gauge(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  return it == gauges_.end() ? 0 : it->second;
}

namespace {

/// Nearest-rank percentile over a sorted sample vector.
double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  auto rank = static_cast<std::size_t>(
      p / 100.0 * static_cast<double>(sorted.size()) + 0.5);
  if (rank == 0) rank = 1;
  if (rank > sorted.size()) rank = sorted.size();
  return sorted[rank - 1];
}

MetricsRegistry::HistSummary summarize(std::vector<double> samples) {
  MetricsRegistry::HistSummary s;
  s.count = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  s.min = samples.front();
  s.max = samples.back();
  for (double x : samples) s.mean += x;
  s.mean /= static_cast<double>(samples.size());
  s.p50 = percentile(samples, 50);
  s.p90 = percentile(samples, 90);
  s.p95 = percentile(samples, 95);
  s.p99 = percentile(samples, 99);
  return s;
}

json::Value hist_json(const MetricsRegistry::HistSummary& s) {
  json::Object o;
  o["count"] = static_cast<std::int64_t>(s.count);
  o["min"] = s.min;
  o["max"] = s.max;
  o["mean"] = s.mean;
  o["p50"] = s.p50;
  o["p90"] = s.p90;
  o["p95"] = s.p95;
  o["p99"] = s.p99;
  return json::Value(std::move(o));
}

}  // namespace

MetricsRegistry::HistSummary MetricsRegistry::histogram(
    const std::string& name) const {
  std::vector<double> samples;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = histograms_.find(name);
    if (it != histograms_.end()) samples = it->second;
  }
  return summarize(std::move(samples));
}

json::Value MetricsRegistry::to_json() const {
  std::map<std::string, std::int64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, std::vector<double>> histograms;
  {
    std::lock_guard<std::mutex> lock(mu_);
    counters = counters_;
    gauges = gauges_;
    histograms = histograms_;
  }
  json::Object out;
  json::Object jc;
  for (const auto& [k, v] : counters) jc[k] = v;
  out["counters"] = json::Value(std::move(jc));
  json::Object jg;
  for (const auto& [k, v] : gauges) jg[k] = v;
  out["gauges"] = json::Value(std::move(jg));
  json::Object jh;
  for (auto& [k, v] : histograms) jh[k] = hist_json(summarize(std::move(v)));
  out["histograms"] = json::Value(std::move(jh));
  return json::Value(std::move(out));
}

void MetricsRegistry::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
}

// ---- Prometheus text exposition --------------------------------------------

namespace {

/// Clamp a metric name to the Prometheus grammar [a-zA-Z_:][a-zA-Z0-9_:]*.
std::string sanitize_family(std::string_view name) {
  std::string out;
  out.reserve(name.size());
  for (char c : name) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
              c == ':' || (!out.empty() && c >= '0' && c <= '9');
    out.push_back(ok ? c : '_');
  }
  if (out.empty()) out = "_";
  return out;
}

/// Escape a label value: backslash, double quote and newline.
std::string escape_label(std::string_view v) {
  std::string out;
  for (char c : v) {
    if (c == '\\' || c == '"') {
      out.push_back('\\');
      out.push_back(c);
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out.push_back(c);
    }
  }
  return out;
}

std::string format_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

/// One exposition family: the split of a registry name at its first '/'
/// (family part prefixed + sanitized, remainder a `key` label).
struct SeriesName {
  std::string family;
  std::string key;  ///< empty = no label
};

SeriesName split_series(std::string_view prefix, const std::string& name) {
  SeriesName out;
  std::size_t slash = name.find('/');
  std::string head = std::string(prefix) +
                     (slash == std::string::npos ? name : name.substr(0, slash));
  out.family = sanitize_family(head);
  if (slash != std::string::npos) out.key = name.substr(slash + 1);
  return out;
}

std::string series_ref(const SeriesName& s,
                       const std::string& extra_label = {}) {
  std::string out = s.family;
  std::vector<std::string> labels;
  if (!s.key.empty()) labels.push_back("key=\"" + escape_label(s.key) + "\"");
  if (!extra_label.empty()) labels.push_back(extra_label);
  if (!labels.empty()) {
    out.push_back('{');
    for (std::size_t i = 0; i < labels.size(); ++i) {
      if (i > 0) out.push_back(',');
      out += labels[i];
    }
    out.push_back('}');
  }
  return out;
}

}  // namespace

std::string MetricsRegistry::metrics_text(std::string_view prefix) const {
  std::map<std::string, std::int64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, std::vector<double>> histograms;
  {
    std::lock_guard<std::mutex> lock(mu_);
    counters = counters_;
    gauges = gauges_;
    histograms = histograms_;
  }
  // Group series by family so each family gets exactly one # TYPE line;
  // a family name claimed by an earlier metric kind gets a disambiguating
  // suffix rather than a second, contradictory TYPE.
  std::map<std::string, std::string> family_type;
  auto family_for = [&](SeriesName& s, const char* type) {
    while (true) {
      auto it = family_type.find(s.family);
      if (it == family_type.end()) {
        family_type.emplace(s.family, type);
        return true;  // first series of this family: emit # TYPE
      }
      if (it->second == type) return false;
      s.family += "_";  // cross-kind collision: rename, keep both families
    }
  };
  std::string out;
  for (const auto& [name, value] : counters) {
    SeriesName s = split_series(prefix, name);
    if (family_for(s, "counter")) {
      out += "# TYPE " + s.family + " counter\n";
    }
    out += series_ref(s) + " " + std::to_string(value) + "\n";
  }
  for (const auto& [name, value] : gauges) {
    SeriesName s = split_series(prefix, name);
    if (family_for(s, "gauge")) out += "# TYPE " + s.family + " gauge\n";
    out += series_ref(s) + " " + format_double(value) + "\n";
  }
  for (auto& [name, samples] : histograms) {
    SeriesName s = split_series(prefix, name);
    if (family_for(s, "summary")) out += "# TYPE " + s.family + " summary\n";
    HistSummary sum = summarize(std::move(samples));
    out += series_ref(s, "quantile=\"0.5\"") + " " + format_double(sum.p50) +
           "\n";
    out += series_ref(s, "quantile=\"0.9\"") + " " + format_double(sum.p90) +
           "\n";
    out += series_ref(s, "quantile=\"0.95\"") + " " + format_double(sum.p95) +
           "\n";
    out += series_ref(s, "quantile=\"0.99\"") + " " + format_double(sum.p99) +
           "\n";
    SeriesName s_sum = s, s_count = s;
    s_sum.family += "_sum";
    s_count.family += "_count";
    out += series_ref(s_sum) + " " +
           format_double(sum.mean * static_cast<double>(sum.count)) + "\n";
    out += series_ref(s_count) + " " + std::to_string(sum.count) + "\n";
  }
  return out;
}

// ---- Tracer ----------------------------------------------------------------

bool env_export_path_ok(const char* var, const char* value) {
  if (value == nullptr) return false;
  std::string_view v(value);
  if (v.find_first_not_of(" \t\r\n") == std::string_view::npos) {
    std::fprintf(stderr,
                 "splice: warning: ignoring blank %s=\"%s\" "
                 "(expected an output file path)\n",
                 var, value);
    return false;
  }
  return true;
}

Tracer& Tracer::global() {
  // Never destroyed: usable from atexit handlers.
  static Tracer* tracer = new Tracer();
  return *tracer;
}

}  // namespace splice::trace
