#ifndef VADASA_OBS_METRICS_H_
#define VADASA_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace vadasa::obs {

/// A monotonically increasing counter. Relaxed atomics: counters are
/// statistics, not synchronization, and increments from ParallelFor shards
/// are folded by the final read.
class Counter {
 public:
  void Add(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// A last-value gauge (e.g. "total_seconds", "num_patterns").
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  void Add(double delta);
  double value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// One consistent reading of a histogram (Histogram::Summary).
struct HistogramStats {
  size_t count = 0;
  double sum = 0.0, min = 0.0, max = 0.0;
  double p50 = 0.0, p90 = 0.0, p99 = 0.0;
};

/// A sample-recording histogram with exact nearest-rank percentiles under a
/// bounded memory cap.
///
/// The first kMaxRetainedSamples samples are retained verbatim, so
/// percentiles are exact below the cap (test-pinned). Past the cap the
/// retained set becomes a uniform reservoir (Algorithm R with a fixed-seed
/// per-histogram generator, so identical record sequences retain identical
/// samples): count/sum/min/max stay exact forever, percentiles become an
/// unbiased estimate over 2^16 samples — and a serve process that records
/// millions of request latencies holds at most 512 KiB per histogram.
class Histogram {
 public:
  static constexpr size_t kMaxRetainedSamples = 1 << 16;

  void Record(double v);

  size_t count() const;
  double sum() const;
  double min() const;  ///< 0 when empty.
  double max() const;  ///< 0 when empty.

  /// Nearest-rank percentile over the retained samples: the smallest
  /// retained value v such that at least p% of samples are <= v. Exact while
  /// count() <= kMaxRetainedSamples. p is clamped to [0, 100]; returns 0
  /// when empty.
  double Percentile(double p) const;

  /// count, sum, min, max and Percentile(50/90/99), read under one lock so
  /// they describe one instant. The percentiles select from one copy of the
  /// retained samples, taken under the lock and searched after it.
  HistogramStats Summary() const;

  std::vector<double> samples() const;
  void Reset();

 private:
  /// Reservoir retention step for one sample; caller holds mutex_ and has
  /// already updated count_/sum_/min_/max_.
  void RetainLocked(double v);
  uint64_t NextRandomLocked();

  mutable std::mutex mutex_;
  std::vector<double> samples_;
  size_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  /// xorshift64* state for the reservoir; fixed seed => deterministic.
  uint64_t rng_state_ = 0x9e3779b97f4a7c15ULL;
};

/// A named collection of counters, gauges and histograms.
///
/// `MetricsRegistry::Global()` accumulates process-wide telemetry
/// (group-index rebuilds, risk-cache hits, engine rounds, each completed
/// anonymization cycle under "cycle.") and is what the exporters serialize.
/// A local instance is private to its owner and never exported; tests build
/// them to check the registry in isolation.
///
/// Metric handles returned by counter()/gauge()/histogram() are stable for
/// the registry's lifetime; the lookup itself takes a lock, so hot paths
/// should capture the handle once (see VADASA_METRIC_* in trace.h).
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  static MetricsRegistry& Global();

  Counter* counter(const std::string& name);
  Gauge* gauge(const std::string& name);
  Histogram* histogram(const std::string& name);

  /// Zeroes every registered metric (handles stay valid).
  void Reset();

  /// Flat name->value view, sorted by name. Histograms expand into
  /// `<name>.count/.sum/.min/.max/.p50/.p90/.p99` from one Summary each.
  std::vector<std::pair<std::string, double>> Snapshot() const;

  /// Typed views for encoders that must distinguish metric kinds (the
  /// Prometheus exposition): name-sorted values per kind. HistogramValues
  /// holds the registry lock only while it collects the handles and
  /// summarizes them after releasing it, so counter()/histogram() lookups
  /// never wait for the summaries.
  std::vector<std::pair<std::string, uint64_t>> CounterValues() const;
  std::vector<std::pair<std::string, double>> GaugeValues() const;
  std::vector<std::pair<std::string, HistogramStats>> HistogramValues() const;

  /// Number of registered metrics (counters + gauges + histograms) — the
  /// cheap cardinality probe the telemetry sampler records.
  size_t MetricCount() const;

  /// The flat snapshot as a single JSON object, `{"name": value, ...}`.
  std::string ToJson() const;

  /// Writes ToJson() to `path`. Returns false on I/O failure.
  bool WriteJson(const std::string& path) const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace vadasa::obs

#endif  // VADASA_OBS_METRICS_H_
