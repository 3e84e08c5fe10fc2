#ifndef VADASA_OBS_TRACE_H_
#define VADASA_OBS_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.h"

/// Low-overhead scoped tracing for the reasoning engine and the anonymization
/// cycle.
///
/// Usage: brace a region with `obs::Span span("cycle.risk_eval");`. When
/// tracing is off (the default) a span costs one relaxed atomic load; when on
/// it costs two steady_clock reads and an append to a thread-local buffer.
/// Span context crosses ThreadPool::ParallelFor: shard work run on worker
/// threads is parented to the span open on the submitting thread, so a
/// Perfetto view attributes parallel sections to the phase that spawned them.
///
/// Instrumentation must never alter computation: a run with tracing enabled
/// is bit-identical to one with tracing off (test-enforced).

namespace vadasa::obs {

/// One completed span, timestamps in nanoseconds on the tracer's
/// steady-clock timeline.
struct SpanEvent {
  const char* name = nullptr;  ///< Static string (span sites use literals).
  uint64_t id = 0;
  uint64_t parent = 0;  ///< 0 = root.
  uint64_t trace = 0;   ///< Request trace id the span ran under (0 = none).
  uint32_t tid = 0;     ///< Stable per-thread index (0 = first seen thread).
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

// --- Request trace ids ------------------------------------------------------
//
// A TraceId is a 64-bit token minted once per protocol request (vadasa_serve
// mints one per request line) and installed on the handling thread with
// ScopedTraceId. Every Span opened while a trace id is installed records it,
// and ThreadPool::ParallelFor carries it to worker shards alongside the span
// context — so one Chrome-trace export groups queue-wait, warmup and cycle
// phases by request. Trace ids never alter computation, and the protocol
// echoes them whether or not tracing is recording.

/// Mints a fresh non-zero trace id. The sequence is seeded from
/// VADASA_TRACE_SEED when set (deterministic under test), else from the
/// steady clock at first use.
uint64_t MintTraceId();

/// Re-seeds the mint sequence (tests). Subsequent MintTraceId calls replay
/// the same ids for the same seed.
void SeedTraceIds(uint64_t seed);

/// The trace id installed on this thread; 0 when none.
uint64_t CurrentTraceId();

/// 16 lowercase hex digits, the wire spelling of a trace id.
std::string TraceIdToHex(uint64_t id);
/// Parses TraceIdToHex output; 0 on malformed input.
uint64_t TraceIdFromHex(const std::string& hex);

/// Installs `id` as this thread's current trace id for the scope's lifetime.
class ScopedTraceId {
 public:
  explicit ScopedTraceId(uint64_t id);
  ~ScopedTraceId();

  ScopedTraceId(const ScopedTraceId&) = delete;
  ScopedTraceId& operator=(const ScopedTraceId&) = delete;

 private:
  uint64_t previous_ = 0;
};

/// Is tracing currently recording? One relaxed load; callers may use it to
/// gate timing work that only feeds the trace.
bool TracingEnabled();

/// Clears recorded spans and starts recording. Registers the ParallelFor
/// context hooks on first use.
void StartTracing();

/// Stops recording (spans stay buffered for export).
void StopTracing();

/// All spans completed since StartTracing, in per-thread completion order.
std::vector<SpanEvent> CollectSpans();

/// Serializes the recorded spans as a Chrome trace_event JSON document
/// (`{"traceEvents": [...]}`), loadable in chrome://tracing and Perfetto.
/// Timestamps are microseconds relative to StartTracing.
std::string ToChromeTraceJson();

/// Writes ToChromeTraceJson() to `path`. Returns false on I/O failure.
bool WriteChromeTrace(const std::string& path);

/// Records an already-timed span (start/end in steady_clock nanoseconds, the
/// tracer's timeline) on the calling thread, parented to the thread's open
/// span and stamped with its trace id. Used for phases measured outside an
/// RAII scope — e.g. the scheduler's queue-wait, whose endpoints live on
/// different threads. No-op when tracing is off.
void EmitSpan(const char* name, int64_t start_ns, int64_t end_ns);

/// RAII scoped span. Must be destroyed on the thread that created it
/// (automatic for stack objects), which guarantees per-thread stack nesting.
class Span {
 public:
  explicit Span(const char* name);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_ = nullptr;
  uint64_t id_ = 0;
  uint64_t parent_ = 0;
  uint64_t trace_ = 0;
  int64_t start_ns_ = 0;
};

/// `--trace=PATH` / `--metrics=PATH` / `--prom=PATH` handling shared by the
/// CLI and the benchmark binaries: ExtractTraceArgs strips the flags from
/// argv (so google-benchmark and positional parsing never see them) and
/// ExportRequested writes the requested files after the run.
struct TraceArgs {
  std::string trace_path;    ///< Chrome trace_event output, empty = off.
  std::string metrics_path;  ///< Flat metrics JSON output, empty = off.
  std::string prom_path;     ///< Prometheus text exposition, empty = off.
  bool tracing_requested() const { return !trace_path.empty(); }
  bool any() const {
    return !trace_path.empty() || !metrics_path.empty() || !prom_path.empty();
  }
};

TraceArgs ExtractTraceArgs(int* argc, char** argv);

/// Writes the trace and/or metrics files named in `args` (no-op for empty
/// paths). Returns false if any write failed.
bool ExportRequested(const TraceArgs& args);

}  // namespace vadasa::obs

/// Hot-path global counter: resolves the handle once per call site, then
/// pays one relaxed atomic add.
#define VADASA_METRIC_COUNT(metric_name, delta)                      \
  do {                                                               \
    static ::vadasa::obs::Counter* vadasa_metric_counter_ =          \
        ::vadasa::obs::MetricsRegistry::Global().counter(metric_name); \
    vadasa_metric_counter_->Add(delta);                              \
  } while (0)

#endif  // VADASA_OBS_TRACE_H_
