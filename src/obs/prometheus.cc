#include "obs/prometheus.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <utility>
#include <vector>

namespace vadasa::obs {

namespace {

std::string FormatDouble(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

/// Splits a `serve.op.<verb>.latency_ms` histogram name into its verb, or
/// returns empty when the name is not part of the labelled family.
std::string ServeOpVerb(const std::string& name) {
  const std::string prefix = "serve.op.";
  const std::string suffix = ".latency_ms";
  if (name.size() <= prefix.size() + suffix.size()) return "";
  if (name.rfind(prefix, 0) != 0) return "";
  if (name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0) {
    return "";
  }
  return name.substr(prefix.size(), name.size() - prefix.size() - suffix.size());
}

void AppendSummary(const std::string& family, const std::string& labels,
                   const HistogramStats& stats, std::string* out) {
  const std::string quantile_open =
      labels.empty() ? "{quantile=\"" : "{" + labels + ",quantile=\"";
  *out += family + quantile_open + "0.5\"} " + FormatDouble(stats.p50) + "\n";
  *out += family + quantile_open + "0.9\"} " + FormatDouble(stats.p90) + "\n";
  *out += family + quantile_open + "0.99\"} " + FormatDouble(stats.p99) + "\n";
  const std::string label_block = labels.empty() ? "" : "{" + labels + "}";
  *out += family + "_sum" + label_block + " " + FormatDouble(stats.sum) + "\n";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%llu",
                static_cast<unsigned long long>(stats.count));
  *out += family + "_count" + label_block + " " + buf + "\n";
}

}  // namespace

std::string PrometheusMetricName(const std::string& name) {
  std::string out = "vadasa_";
  out.reserve(out.size() + name.size());
  for (const char c : name) {
    const bool valid = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                       (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += valid ? c : '_';
  }
  return out;
}

std::string ToPrometheusText(const MetricsRegistry& registry) {
  std::string out;
  for (const auto& [name, value] : registry.CounterValues()) {
    const std::string prom = PrometheusMetricName(name);
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(value));
    out += "# TYPE " + prom + " counter\n" + prom + " " + buf + "\n";
  }
  for (const auto& [name, value] : registry.GaugeValues()) {
    const std::string prom = PrometheusMetricName(name);
    out += "# TYPE " + prom + " gauge\n" + prom + " " + FormatDouble(value) + "\n";
  }

  // Histograms: the per-op serve latency metrics fold into one labelled
  // summary family; everything else becomes its own summary.
  std::vector<std::pair<std::string, HistogramStats>> serve_ops;
  std::vector<std::pair<std::string, HistogramStats>> plain;
  for (auto& [name, stats] : registry.HistogramValues()) {
    const std::string verb = ServeOpVerb(name);
    if (!verb.empty()) {
      serve_ops.emplace_back(verb, stats);
    } else {
      plain.emplace_back(name, stats);
    }
  }
  for (const auto& [name, stats] : plain) {
    const std::string prom = PrometheusMetricName(name);
    out += "# TYPE " + prom + " summary\n";
    AppendSummary(prom, "", stats, &out);
    out += "# TYPE " + prom + "_min gauge\n" + prom + "_min " +
           FormatDouble(stats.min) + "\n";
    out += "# TYPE " + prom + "_max gauge\n" + prom + "_max " +
           FormatDouble(stats.max) + "\n";
  }
  if (!serve_ops.empty()) {
    const std::string family = "vadasa_serve_op_latency_ms";
    out += "# TYPE " + family + " summary\n";
    for (const auto& [verb, stats] : serve_ops) {
      AppendSummary(family, "op=\"" + verb + "\"", stats, &out);
    }
    out += "# TYPE " + family + "_min gauge\n";
    for (const auto& [verb, stats] : serve_ops) {
      out += family + "_min{op=\"" + verb + "\"} " + FormatDouble(stats.min) + "\n";
    }
    out += "# TYPE " + family + "_max gauge\n";
    for (const auto& [verb, stats] : serve_ops) {
      out += family + "_max{op=\"" + verb + "\"} " + FormatDouble(stats.max) + "\n";
    }
  }
  return out;
}

bool WritePrometheus(const MetricsRegistry& registry, const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  out << ToPrometheusText(registry);
  return static_cast<bool>(out);
}

}  // namespace vadasa::obs
