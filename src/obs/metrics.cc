#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

namespace vadasa::obs {

namespace {

/// Nearest rank over n retained samples, as a 0-based index into their
/// sorted order: rank = ceil(p/100 * n), 1-based, with p clamped to
/// [0, 100] and p = 0 reading the smallest sample. n > 0.
size_t NearestRankIndex(double p, size_t n) {
  p = std::min(100.0, std::max(0.0, p));
  const auto rank = static_cast<size_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
  return std::clamp<size_t>(rank, 1, n) - 1;
}

}  // namespace

void Gauge::Add(double delta) {
  double cur = value_.load(std::memory_order_relaxed);
  while (!value_.compare_exchange_weak(cur, cur + delta, std::memory_order_relaxed)) {
  }
}

uint64_t Histogram::NextRandomLocked() {
  // xorshift64*; state is never 0 (seeded non-zero, bijective updates).
  uint64_t x = rng_state_;
  x ^= x >> 12;
  x ^= x << 25;
  x ^= x >> 27;
  rng_state_ = x;
  return x * 0x2545f4914f6cdd1dULL;
}

void Histogram::RetainLocked(double v) {
  if (samples_.size() < kMaxRetainedSamples) {
    samples_.push_back(v);
    return;
  }
  // Algorithm R: the count_-th sample replaces a random retained slot with
  // probability cap/count_, keeping the reservoir a uniform sample.
  const uint64_t slot = NextRandomLocked() % count_;
  if (slot < kMaxRetainedSamples) samples_[slot] = v;
}

void Histogram::Record(double v) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (count_ == 0) {
    min_ = max_ = v;
  } else {
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }
  ++count_;
  sum_ += v;
  RetainLocked(v);
}

size_t Histogram::count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return count_;
}

double Histogram::sum() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return sum_;
}

double Histogram::min() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return min_;
}

double Histogram::max() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return max_;
}

double Histogram::Percentile(double p) const {
  std::vector<double> values = samples();
  if (values.empty()) return 0.0;
  const auto nth = values.begin() + NearestRankIndex(p, values.size());
  std::nth_element(values.begin(), nth, values.end());
  return *nth;
}

HistogramStats Histogram::Summary() const {
  HistogramStats stats;
  std::vector<double> values;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stats.count = count_;
    stats.sum = sum_;
    stats.min = min_;
    stats.max = max_;
    values = samples_;
  }
  if (values.empty()) return stats;
  // Ascending ranks: each selection leaves every value before its rank no
  // greater than every value after it, so the next one searches the tail.
  auto from = values.begin();
  for (auto [p, out] : {std::pair{50.0, &stats.p50}, std::pair{90.0, &stats.p90},
                        std::pair{99.0, &stats.p99}}) {
    const auto nth = values.begin() + NearestRankIndex(p, values.size());
    std::nth_element(from, nth, values.end());
    *out = *nth;
    from = nth;
  }
  return stats;
}

std::vector<double> Histogram::samples() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return samples_;
}

void Histogram::Reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  samples_.clear();
  count_ = 0;
  sum_ = min_ = max_ = 0.0;
  rng_state_ = 0x9e3779b97f4a7c15ULL;
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter* MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* MetricsRegistry::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return slot.get();
}

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, c] : counters_) {
    (void)name;
    c->Reset();
  }
  for (auto& [name, g] : gauges_) {
    (void)name;
    g->Reset();
  }
  for (auto& [name, h] : histograms_) {
    (void)name;
    h->Reset();
  }
}

std::vector<std::pair<std::string, double>> MetricsRegistry::Snapshot() const {
  std::vector<std::pair<std::string, double>> out;
  for (const auto& [name, value] : CounterValues()) {
    out.emplace_back(name, static_cast<double>(value));
  }
  for (const auto& [name, value] : GaugeValues()) out.emplace_back(name, value);
  for (const auto& [name, stats] : HistogramValues()) {
    out.emplace_back(name + ".count", static_cast<double>(stats.count));
    out.emplace_back(name + ".sum", stats.sum);
    out.emplace_back(name + ".min", stats.min);
    out.emplace_back(name + ".max", stats.max);
    out.emplace_back(name + ".p50", stats.p50);
    out.emplace_back(name + ".p90", stats.p90);
    out.emplace_back(name + ".p99", stats.p99);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::pair<std::string, uint64_t>> MetricsRegistry::CounterValues() const {
  std::vector<std::pair<std::string, uint64_t>> out;
  std::lock_guard<std::mutex> lock(mutex_);
  out.reserve(counters_.size());
  for (const auto& [name, c] : counters_) out.emplace_back(name, c->value());
  return out;
}

std::vector<std::pair<std::string, double>> MetricsRegistry::GaugeValues() const {
  std::vector<std::pair<std::string, double>> out;
  std::lock_guard<std::mutex> lock(mutex_);
  out.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) out.emplace_back(name, g->value());
  return out;
}

std::vector<std::pair<std::string, HistogramStats>> MetricsRegistry::HistogramValues()
    const {
  // Handles are never erased, so they outlive the lock that finds them.
  std::vector<std::pair<std::string, const Histogram*>> handles;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    handles.reserve(histograms_.size());
    for (const auto& [name, h] : histograms_) handles.emplace_back(name, h.get());
  }
  std::vector<std::pair<std::string, HistogramStats>> out;
  out.reserve(handles.size());
  for (const auto& [name, h] : handles) out.emplace_back(name, h->Summary());
  return out;
}

size_t MetricsRegistry::MetricCount() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return counters_.size() + gauges_.size() + histograms_.size();
}

std::string MetricsRegistry::ToJson() const {
  const auto snapshot = Snapshot();
  std::string out = "{";
  char buf[32];
  for (size_t i = 0; i < snapshot.size(); ++i) {
    if (i > 0) out += ", ";
    std::snprintf(buf, sizeof(buf), "%.12g", snapshot[i].second);
    out += "\"" + snapshot[i].first + "\": " + buf;
  }
  out += "}";
  return out;
}

bool MetricsRegistry::WriteJson(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << ToJson() << "\n";
  return static_cast<bool>(out);
}

}  // namespace vadasa::obs
