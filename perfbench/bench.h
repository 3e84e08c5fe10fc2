#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "api/vadasa.h"
#include "common/json.h"
#include "stats.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// The risk threshold T of every policy the benchmark runs.
inline constexpr double kThreshold = 0.5;

/// The session policy `measure` with parameter `k` at threshold kThreshold.
inline vadasa::api::SessionOptions Policy(const std::string& measure, int k,
                                          bool declarative = false) {
  vadasa::api::SessionOptions options;
  options.risk_measure = measure;
  options.k = k;
  options.threshold = kThreshold;
  options.declarative = declarative;
  return options;
}

inline double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

/// What one invocation of perfbench runs.
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  /// Directory for generated inputs, the socket and the span dump; relative
  /// to the working directory (the checkout), so socket paths stay short.
  std::string work_dir;
  std::string serve_binary;
};

/// Run-level bookkeeping shared by the workloads: per-class latency samples
/// and failure accounting, end-to-end metrics, per-layer samples, and the
/// dataset shapes and notes that go into the record. Thread-safe (the serve
/// workload records from two client threads).
class Recorder {
 public:
  /// One attempted operation of `op_class`; `error` empty means it passed
  /// every output check. Only passing operations contribute a latency.
  void Op(const std::string& op_class, double ms, const std::string& error = "");
  /// An output check outside any single timed op (e.g. the differential).
  void Check(const std::string& what, const std::string& error);

  /// A finished end-to-end metric (named in perfbench/manifest.py).
  void Metric(const std::string& name, double value, const std::string& unit,
              const Summary* spread = nullptr);
  /// End-to-end latency metric from a class's samples (median, n, quartiles).
  void LatencyMetric(const std::string& name, const std::string& op_class);

  /// One sample of a per-layer metric; the record reports the median.
  void Layer(const std::string& name, double value, const std::string& unit);

  void Note(const std::string& key, vadasa::Json value);

  const std::vector<double>& Samples(const std::string& op_class) const;
  /// Timed operations attempted / failed (warm-up and checks excluded).
  size_t attempted() const;
  size_t failed() const;
  /// Output checks outside the timed ops (warm-up, replays, differential).
  size_t checks_failed() const;

  /// The full record: provenance is added by main.cc.
  vadasa::Json ToJson() const;

 private:
  struct Class {
    size_t attempted = 0;
    size_t failed = 0;
    std::vector<double> ms;
    std::vector<std::string> errors;  ///< The first few, for diagnosis.
  };
  struct Series {
    std::string unit;
    std::vector<double> values;
  };
  mutable std::mutex mutex_;
  std::map<std::string, Class> classes_;
  std::map<std::string, vadasa::Json> metrics_;
  std::map<std::string, Series> layers_;
  vadasa::Json::Object notes_;
};

/// The benchmark's own span recorder for the traced run: one span per call
/// into a layer's public function, kept in memory and written at exit.
class Tracer {
 public:
  struct Span {
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    long parent = -1;
    uint64_t op = 0;
  };

  /// Opens a span; returns its id.
  long Begin(const std::string& name, long parent, uint64_t op);
  /// Closes a span; returns its duration in ms.
  double End(long id);
  /// Records an interval measured elsewhere (the server's queue/run times).
  long Add(const std::string& name, int64_t start_ns, int64_t end_ns, long parent,
           uint64_t op);
  /// A root span for a call timed outside the tracer (the untraced facade
  /// call the replay is compared with).
  long Add(const std::string& name, Clock::time_point start, double ms, uint64_t op);

  /// The span's duration minus the part of it its children cover.
  double SelfMs(long id) const;

  static int64_t NowNs();

  /// Writes every span as Chrome trace_event JSON.
  vadasa::Status Write(const std::string& path) const;

 private:
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// Times one call as a span and returns the call's result.
template <typename F>
auto Traced(Tracer* tracer, const std::string& name, long parent, uint64_t op,
            double* ms, F&& call) {
  const long id = tracer->Begin(name, parent, op);
  auto result = call();
  *ms = tracer->End(id);
  return result;
}

int RunReleaseWorkload(const RunConfig& config, Recorder* recorder, Tracer* tracer);
int RunServeWorkload(const RunConfig& config, Recorder* recorder, Tracer* tracer);

/// Writes `table` as CSV under the work directory and returns its path.
std::string WriteDatasetCsv(const RunConfig& config, const std::string& stem,
                            const std::string& csv_text);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
