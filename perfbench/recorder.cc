#include <algorithm>
#include <fstream>

#include "bench.h"

namespace perfbench {

using vadasa::Json;

namespace {

Json SummaryJson(const Summary& s) {
  Json::Object out;
  out["n"] = static_cast<int64_t>(s.n);
  out["median"] = s.median;
  out["q1"] = s.q1;
  out["q3"] = s.q3;
  out["min"] = s.min;
  out["max"] = s.max;
  if (s.has_tail) {
    out["tail"] = Json::Object{{"pct", Json(s.tail_pct)},
                               {"value", Json(s.tail_value)},
                               {"beyond", Json(static_cast<int64_t>(s.tail_beyond))}};
  }
  return Json(std::move(out));
}

}  // namespace

void Recorder::Op(const std::string& op_class, double ms, const std::string& error) {
  std::lock_guard<std::mutex> lock(mutex_);
  Class& c = classes_[op_class];
  ++c.attempted;
  if (error.empty()) {
    c.ms.push_back(ms);
    return;
  }
  ++c.failed;
  if (c.errors.size() < 5) c.errors.push_back(error);
}

void Recorder::Check(const std::string& what, const std::string& error) {
  Op("check." + what, 0.0, error);
}

void Recorder::Metric(const std::string& name, double value, const std::string& unit,
                      const Summary* spread) {
  Json::Object entry;
  entry["value"] = value;
  entry["unit"] = unit;
  if (spread != nullptr) entry["spread"] = SummaryJson(*spread);
  std::lock_guard<std::mutex> lock(mutex_);
  metrics_[name] = Json(std::move(entry));
}

void Recorder::LatencyMetric(const std::string& name, const std::string& op_class) {
  const Summary s = Summarize(Samples(op_class));
  if (s.n == 0) return;  // Every op of the class failed: no latency to state.
  Metric(name, s.median, "ms", &s);
}

void Recorder::Layer(const std::string& name, double value, const std::string& unit) {
  std::lock_guard<std::mutex> lock(mutex_);
  Series& series = layers_[name];
  series.unit = unit;
  series.values.push_back(value);
}

void Recorder::Note(const std::string& key, Json value) {
  std::lock_guard<std::mutex> lock(mutex_);
  notes_[key] = std::move(value);
}

const std::vector<double>& Recorder::Samples(const std::string& op_class) const {
  static const std::vector<double> kEmpty;
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = classes_.find(op_class);
  return it == classes_.end() ? kEmpty : it->second.ms;
}

namespace {

bool IsCheck(const std::string& name) { return name.rfind("check.", 0) == 0; }

}  // namespace

size_t Recorder::attempted() const {
  std::lock_guard<std::mutex> lock(mutex_);
  size_t n = 0;
  for (const auto& [name, c] : classes_) n += IsCheck(name) ? 0 : c.attempted;
  return n;
}

size_t Recorder::failed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  size_t n = 0;
  for (const auto& [name, c] : classes_) n += IsCheck(name) ? 0 : c.failed;
  return n;
}

size_t Recorder::checks_failed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  size_t n = 0;
  for (const auto& [name, c] : classes_) n += IsCheck(name) ? c.failed : 0;
  return n;
}

Json Recorder::ToJson() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Json::Object classes;
  for (const auto& [name, c] : classes_) {
    Json::Object entry;
    entry["attempted"] = static_cast<int64_t>(c.attempted);
    entry["failed"] = static_cast<int64_t>(c.failed);
    if (!c.ms.empty() && !IsCheck(name)) {
      entry["ms"] = SummaryJson(Summarize(c.ms));
      entry["samples_ms"] = Json::Array(c.ms.begin(), c.ms.end());
    }
    if (!c.errors.empty()) {
      entry["errors"] = Json::Array(c.errors.begin(), c.errors.end());
    }
    classes[name] = Json(std::move(entry));
  }
  Json::Object layers;
  for (const auto& [name, series] : layers_) {
    const Summary s = Summarize(series.values);
    Json::Object entry;
    entry["value"] = s.median;
    entry["unit"] = series.unit;
    entry["spread"] = SummaryJson(s);
    layers[name] = Json(std::move(entry));
  }
  Json::Object out;
  out["classes"] = std::move(classes);
  out["metrics"] = Json::Object(metrics_.begin(), metrics_.end());
  out["layers"] = std::move(layers);
  out["notes"] = notes_;
  return Json(std::move(out));
}

int64_t Tracer::NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

long Tracer::Begin(const std::string& name, long parent, uint64_t op) {
  const int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back({name, now, now, parent, op});
  return static_cast<long>(spans_.size()) - 1;
}

double Tracer::End(long id) {
  const int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mutex_);
  Span& span = spans_[static_cast<size_t>(id)];
  span.end_ns = now;
  return static_cast<double>(span.end_ns - span.start_ns) / 1e6;
}

long Tracer::Add(const std::string& name, int64_t start_ns, int64_t end_ns,
                 long parent, uint64_t op) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back({name, start_ns, end_ns, parent, op});
  return static_cast<long>(spans_.size()) - 1;
}

long Tracer::Add(const std::string& name, Clock::time_point start, double ms,
                 uint64_t op) {
  const int64_t start_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(start.time_since_epoch())
          .count();
  return Add(name, start_ns, start_ns + static_cast<int64_t>(ms * 1e6), -1, op);
}

double Tracer::SelfMs(long id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const Span& span = spans_[static_cast<size_t>(id)];
  std::vector<std::pair<int64_t, int64_t>> children;
  for (const Span& s : spans_) {
    if (s.parent == id) {
      children.emplace_back(std::max(s.start_ns, span.start_ns),
                            std::min(s.end_ns, span.end_ns));
    }
  }
  std::sort(children.begin(), children.end());
  int64_t covered = 0;
  int64_t reach = span.start_ns;
  for (const auto& [start, end] : children) {
    const int64_t from = std::max(start, reach);
    if (end > from) {
      covered += end - from;
      reach = end;
    }
  }
  return static_cast<double>(span.end_ns - span.start_ns - covered) / 1e6;
}

vadasa::Status Tracer::Write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  Json::Array events;
  events.reserve(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    Json::Object event;
    event["name"] = s.name;
    event["ph"] = "X";
    event["ts"] = static_cast<double>(s.start_ns) / 1e3;
    event["dur"] = static_cast<double>(s.end_ns - s.start_ns) / 1e3;
    event["pid"] = 1;
    event["tid"] = static_cast<int64_t>(s.op);
    event["args"] = Json::Object{{"id", Json(static_cast<int64_t>(i))},
                                 {"parent", Json(static_cast<int64_t>(s.parent))},
                                 {"op", Json(s.op)}};
    events.emplace_back(std::move(event));
  }
  std::ofstream out(path);
  out << Json(Json::Object{{"traceEvents", Json(std::move(events))}}).Dump() << "\n";
  if (!out) return vadasa::Status::IoError("cannot write " + path);
  return vadasa::Status::OK();
}

}  // namespace perfbench
