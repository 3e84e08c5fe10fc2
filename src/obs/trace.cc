#include "obs/trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <mutex>

#include "common/thread_pool.h"
#include "obs/prometheus.h"

namespace vadasa::obs {

// --- Trace ids ---------------------------------------------------------------

namespace {

/// The trace id installed on this thread (ScopedTraceId); 0 = none.
thread_local uint64_t t_current_trace = 0;

/// Finalizer of splitmix64 — a cheap bijective mixer, so sequential seeds
/// yield well-spread ids.
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::atomic<uint64_t>& TraceIdState() {
  static std::atomic<uint64_t>* state = [] {
    uint64_t seed = 0;
    if (const char* env = std::getenv("VADASA_TRACE_SEED")) {
      char* end = nullptr;
      seed = std::strtoull(env, &end, 10);
      if (end == env) seed = 0;
    } else {
      seed = static_cast<uint64_t>(
          std::chrono::steady_clock::now().time_since_epoch().count());
    }
    return new std::atomic<uint64_t>(seed);
  }();
  return *state;
}

}  // namespace

uint64_t MintTraceId() {
  uint64_t id = 0;
  while (id == 0) {
    id = Mix64(TraceIdState().fetch_add(1, std::memory_order_relaxed));
  }
  return id;
}

void SeedTraceIds(uint64_t seed) {
  TraceIdState().store(seed, std::memory_order_relaxed);
}

uint64_t CurrentTraceId() { return t_current_trace; }

std::string TraceIdToHex(uint64_t id) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(id));
  return buf;
}

uint64_t TraceIdFromHex(const std::string& hex) {
  if (hex.size() != 16) return 0;
  uint64_t id = 0;
  for (const char c : hex) {
    uint64_t digit;
    if (c >= '0' && c <= '9') digit = static_cast<uint64_t>(c - '0');
    else if (c >= 'a' && c <= 'f') digit = static_cast<uint64_t>(c - 'a' + 10);
    else return 0;
    id = (id << 4) | digit;
  }
  return id;
}

ScopedTraceId::ScopedTraceId(uint64_t id) : previous_(t_current_trace) {
  t_current_trace = id;
}

ScopedTraceId::~ScopedTraceId() { t_current_trace = previous_; }

namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Per-thread span buffer. Owned jointly by the thread (thread_local
/// shared_ptr) and the global registry, so spans survive thread exit until
/// export. The mutex is uncontended except during CollectSpans.
struct ThreadBuffer {
  uint32_t tid = 0;
  std::mutex mutex;
  std::vector<SpanEvent> events;
};

struct TracerState {
  std::atomic<bool> enabled{false};
  std::atomic<uint64_t> next_span_id{1};
  std::atomic<int64_t> epoch_ns{0};
  std::atomic<uint32_t> next_tid{0};
  std::mutex registry_mutex;
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
};

TracerState& State() {
  static TracerState* state = new TracerState();
  return *state;
}

/// The innermost open span on this thread; parent of new spans and the
/// context token ParallelFor carries to its workers.
thread_local uint64_t t_current_span = 0;

ThreadBuffer& LocalBuffer() {
  thread_local std::shared_ptr<ThreadBuffer> buffer = [] {
    auto b = std::make_shared<ThreadBuffer>();
    TracerState& st = State();
    b->tid = st.next_tid.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(st.registry_mutex);
    st.buffers.push_back(b);
    return b;
  }();
  return *buffer;
}

// --- ParallelFor context propagation ---------------------------------------

ThreadPool::TaskContext CaptureContext() {
  return {t_current_span, t_current_trace};
}

ThreadPool::TaskContext InstallContext(ThreadPool::TaskContext context) {
  const ThreadPool::TaskContext previous{t_current_span, t_current_trace};
  t_current_span = context.span;
  t_current_trace = context.trace;
  return previous;
}

void RestoreContext(ThreadPool::TaskContext previous) {
  t_current_span = previous.span;
  t_current_trace = previous.trace;
}

void RegisterPoolHooksOnce() {
  static const bool registered = [] {
    ThreadPool::SetContextHooks(&CaptureContext, &InstallContext, &RestoreContext);
    return true;
  }();
  (void)registered;
}

}  // namespace

bool TracingEnabled() { return State().enabled.load(std::memory_order_relaxed); }

void StartTracing() {
  RegisterPoolHooksOnce();
  TracerState& st = State();
  {
    std::lock_guard<std::mutex> lock(st.registry_mutex);
    for (const auto& buffer : st.buffers) {
      std::lock_guard<std::mutex> buffer_lock(buffer->mutex);
      buffer->events.clear();
    }
  }
  st.next_span_id.store(1, std::memory_order_relaxed);
  st.epoch_ns.store(NowNs(), std::memory_order_relaxed);
  st.enabled.store(true, std::memory_order_release);
}

void StopTracing() { State().enabled.store(false, std::memory_order_release); }

std::vector<SpanEvent> CollectSpans() {
  TracerState& st = State();
  std::vector<SpanEvent> out;
  std::lock_guard<std::mutex> lock(st.registry_mutex);
  for (const auto& buffer : st.buffers) {
    std::lock_guard<std::mutex> buffer_lock(buffer->mutex);
    out.insert(out.end(), buffer->events.begin(), buffer->events.end());
  }
  return out;
}

Span::Span(const char* name) {
  if (!TracingEnabled()) return;
  name_ = name;
  id_ = State().next_span_id.fetch_add(1, std::memory_order_relaxed);
  parent_ = t_current_span;
  trace_ = t_current_trace;
  t_current_span = id_;
  start_ns_ = NowNs();
}

Span::~Span() {
  if (id_ == 0) return;
  const int64_t end_ns = NowNs();
  t_current_span = parent_;
  // Record even if tracing stopped mid-span: a started span is completed so
  // the per-thread stream stays well-formed.
  ThreadBuffer& buffer = LocalBuffer();
  std::lock_guard<std::mutex> lock(buffer.mutex);
  buffer.events.push_back(
      SpanEvent{name_, id_, parent_, trace_, buffer.tid, start_ns_, end_ns});
}

void EmitSpan(const char* name, int64_t start_ns, int64_t end_ns) {
  if (!TracingEnabled()) return;
  const uint64_t id = State().next_span_id.fetch_add(1, std::memory_order_relaxed);
  ThreadBuffer& buffer = LocalBuffer();
  std::lock_guard<std::mutex> lock(buffer.mutex);
  buffer.events.push_back(SpanEvent{name, id, t_current_span, t_current_trace,
                                    buffer.tid, start_ns, end_ns});
}

std::string ToChromeTraceJson() {
  const std::vector<SpanEvent> spans = CollectSpans();
  const int64_t epoch = State().epoch_ns.load(std::memory_order_relaxed);
  std::string out = "{\"traceEvents\": [";
  char buf[320];
  bool first = true;
  // Thread-name metadata so Perfetto labels the pool lanes.
  uint32_t max_tid = 0;
  for (const SpanEvent& s : spans) max_tid = std::max(max_tid, s.tid);
  for (uint32_t tid = 0; tid <= max_tid && !spans.empty(); ++tid) {
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, "
                  "\"tid\": %u, \"args\": {\"name\": \"%s-%u\"}}",
                  first ? "\n  " : ",\n  ", tid, tid == 0 ? "main" : "worker", tid);
    out += buf;
    first = false;
  }
  for (const SpanEvent& s : spans) {
    // The trace id travels as a hex string: 64-bit ids do not survive the
    // JSON double round-trip as numbers.
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %u, "
                  "\"ts\": %.3f, \"dur\": %.3f, "
                  "\"args\": {\"id\": %llu, \"parent\": %llu, \"trace\": \"%s\"}}",
                  first ? "\n  " : ",\n  ", s.name, s.tid,
                  static_cast<double>(s.start_ns - epoch) / 1000.0,
                  static_cast<double>(s.end_ns - s.start_ns) / 1000.0,
                  static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent),
                  TraceIdToHex(s.trace).c_str());
    out += buf;
    first = false;
  }
  out += "\n]}\n";
  return out;
}

bool WriteChromeTrace(const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  out << ToChromeTraceJson();
  return static_cast<bool>(out);
}

TraceArgs ExtractTraceArgs(int* argc, char** argv) {
  TraceArgs args;
  const std::string trace_prefix = "--trace=";
  const std::string metrics_prefix = "--metrics=";
  const std::string prom_prefix = "--prom=";
  int kept = 1;
  for (int i = 1; i < *argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind(trace_prefix, 0) == 0) {
      args.trace_path = arg.substr(trace_prefix.size());
    } else if (arg.rfind(metrics_prefix, 0) == 0) {
      args.metrics_path = arg.substr(metrics_prefix.size());
    } else if (arg.rfind(prom_prefix, 0) == 0) {
      args.prom_path = arg.substr(prom_prefix.size());
    } else {
      argv[kept++] = argv[i];
    }
  }
  *argc = kept;
  return args;
}

bool ExportRequested(const TraceArgs& args) {
  bool ok = true;
  if (!args.trace_path.empty()) {
    StopTracing();
    ok = WriteChromeTrace(args.trace_path) && ok;
  }
  if (!args.metrics_path.empty()) {
    ok = MetricsRegistry::Global().WriteJson(args.metrics_path) && ok;
  }
  if (!args.prom_path.empty()) {
    ok = WritePrometheus(MetricsRegistry::Global(), args.prom_path) && ok;
  }
  return ok;
}

}  // namespace vadasa::obs
