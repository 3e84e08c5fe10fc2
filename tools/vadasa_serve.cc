// vadasa_serve — the long-lived anonymization job service (docs/serving.md):
//
//   vadasa_serve --listen=unix:PATH|tcp:HOST:PORT
//                [--workers=N] [--max-queue=N]
//                [--cache-mb=N] [--no-cache]
//                [--trace=out.json] [--metrics=out.json]
//                [--prom=out.prom] [--slow-log=out.ndjson] [--slow-ms=MS]
//                [--sample-ms=MS] [--drain-ms=MS] [--max-in-flight=N]
//                [--submit-rate=R] [--max-line-bytes=N] [--watchdog-ms=MS]
//
// Speaks newline-delimited JSON over a Unix domain or TCP socket: submit /
// status / result / cancel / metrics / telemetry / shutdown / apply_delta
// (see src/serve/protocol.h for the wire format). Datasets are loaded once by
// the registry and shared across jobs, with one warm state per dataset
// version: its group index is built once, by the first job that needs it, and
// an apply_delta patches it into the next version instead of rebuilding. The
// scheduler bounds admission and honors per-job priorities and deadlines;
// every worker pops one shared ready queue, so any idle worker takes the next
// job whatever its dataset. Repeated (dataset, policy) requests are answered
// from a bounded LRU result cache (--cache-mb budget, --no-cache disables;
// responses carry "cached":true) keyed on the generation of the dataset
// snapshot, so a payload is served only for the snapshot that computed it:
// never after a delta, and never for another dataset with the same bytes.
// Telemetry (docs/observability.md): every request line gets a trace id echoed
// in its responses, --slow-log appends NDJSON lines for jobs slower than
// --slow-ms, --sample-ms runs the background gauge sampler (0 = off), and on
// shutdown --trace/--metrics/--prom export.
//
// Robustness (docs/robustness.md): --max-in-flight/--submit-rate meter each
// connection (over-quota submits get Unavailable + retry_after_ms),
// --max-line-bytes bounds a request line, the watchdog (scanning every
// --watchdog-ms) flags jobs running past three times their deadline, and
// SIGTERM/SIGINT trigger a graceful drain: admission stops, in-flight work
// gets up to --drain-ms to finish (whatever remains is cancelled), telemetry
// flushes, and the process exits 0.
//
// Exit codes: 0 clean shutdown (including signal-driven drain), 1 runtime
// failure, 2 usage/flag error.

#include <csignal>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>

#include "api/flags.h"
#include "obs/metrics.h"
#include "obs/request_log.h"
#include "obs/sampler.h"
#include "obs/trace.h"
#include "serve/dataset_registry.h"
#include "serve/protocol.h"
#include "serve/result_cache.h"
#include "serve/scheduler.h"
#include "serve/server.h"

namespace {

// Signal handlers may only touch lock-free atomics; the main loop polls this
// between short condition-variable waits.
std::atomic<int> g_signal{0};

void OnSignal(int sig) { g_signal.store(sig, std::memory_order_relaxed); }

}  // namespace

int main(int argc, char** argv) {
  using namespace vadasa;

  api::FlagParser parser;
  parser.Path("listen", "listen spec: unix:PATH or tcp:HOST:PORT (0 = ephemeral)")
      .Int("workers", "executor threads", 1, 256)
      .Int("max-queue", "admission queue bound (reject beyond)", 1, 1 << 20)
      .Int("cache-mb", "result-cache byte budget, MiB", 1, 1 << 20)
      .Bool("no-cache", "disable the result cache")
      .Path("trace", "write a Chrome trace_event JSON file at shutdown")
      .Path("metrics", "write a metrics registry JSON dump at shutdown")
      .Path("prom", "write a Prometheus text exposition at shutdown")
      .Path("slow-log", "append slow-request NDJSON lines to this file")
      .Double("slow-ms", "slow-log threshold, milliseconds", 0.0, 1e9)
      .Int("sample-ms", "telemetry sampler interval, 0 disables", 0, 3600000)
      .Int("drain-ms", "graceful-shutdown drain budget, milliseconds", 0,
           3600000)
      .Int("max-in-flight", "per-connection unfinished-job cap, 0 disables", 0,
           1 << 20)
      .Double("submit-rate", "per-connection submits/second cap, 0 disables",
              0.0, 1e9)
      .Int("max-line-bytes", "longest request line accepted, bytes", 1,
           1 << 30)
      .Int("watchdog-ms", "overdue-job watchdog interval, 0 disables", 0,
           3600000);

  auto flags = parser.Parse(argc, argv, /*first=*/1);
  if (!flags.ok() || !flags->Has("listen") || !flags->positional().empty()) {
    if (!flags.ok()) {
      std::fprintf(stderr, "error: %s\n", flags.status().message().c_str());
    }
    std::fprintf(stderr,
                 "usage: vadasa_serve --listen=unix:PATH|tcp:HOST:PORT "
                 "[options]\noptions:\n%s",
                 parser.Help().c_str());
    return 2;
  }
  auto listen_spec = serve::ParseListenSpec(flags->GetString("listen", ""));
  if (!listen_spec.ok()) {
    std::fprintf(stderr, "error: %s\n", listen_spec.status().message().c_str());
    return 2;
  }

  obs::TraceArgs trace_args;
  trace_args.trace_path = flags->GetString("trace", "");
  trace_args.metrics_path = flags->GetString("metrics", "");
  trace_args.prom_path = flags->GetString("prom", "");
  if (trace_args.tracing_requested()) obs::StartTracing();

  std::unique_ptr<obs::RequestLog> slow_log;
  if (flags->Has("slow-log")) {
    slow_log = std::make_unique<obs::RequestLog>(
        flags->GetString("slow-log", ""), flags->GetDouble("slow-ms", 0.0));
    if (!slow_log->ok()) {
      std::fprintf(stderr, "error: cannot open --slow-log file\n");
      return 2;
    }
  }

  const int sample_ms = static_cast<int>(flags->GetInt("sample-ms", 100));
  if (sample_ms > 0) obs::TelemetrySampler::Global().Start(sample_ms);

  // The cache outlives the registry and scheduler that point at it.
  std::unique_ptr<serve::ResultCache> cache;
  if (!flags->GetBool("no-cache")) {
    serve::ResultCacheOptions cache_options;
    cache_options.byte_budget =
        static_cast<size_t>(flags->GetInt("cache-mb", 64)) << 20;
    cache = std::make_unique<serve::ResultCache>(cache_options);
  }
  serve::DatasetRegistry registry;
  registry.set_result_cache(cache.get());
  serve::SchedulerOptions scheduler_options;
  scheduler_options.workers = static_cast<size_t>(flags->GetInt("workers", 2));
  scheduler_options.max_queue =
      static_cast<size_t>(flags->GetInt("max-queue", 64));
  scheduler_options.result_cache = cache.get();
  scheduler_options.slow_log = slow_log.get();
  scheduler_options.watchdog_interval_ms =
      static_cast<int>(flags->GetInt("watchdog-ms", 1000));
  serve::JobScheduler scheduler(scheduler_options);
  serve::Protocol protocol(&registry, &scheduler);

  serve::ServerOptions server_options;
  server_options.listen = *listen_spec;
  server_options.quota.max_in_flight =
      static_cast<size_t>(flags->GetInt("max-in-flight", 0));
  server_options.quota.submits_per_second =
      flags->GetDouble("submit-rate", 0.0);
  server_options.max_line_bytes =
      static_cast<size_t>(flags->GetInt("max-line-bytes", 4 << 20));
  serve::Server server(&protocol, server_options);
  const Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "error: %s\n", started.ToString().c_str());
    return 1;
  }

  const int drain_ms = static_cast<int>(flags->GetInt("drain-ms", 5000));
  // Exported so operators (vadasa_top, the telemetry verb) can see the
  // configured drain budget alongside the quarantine/watchdog counters.
  obs::MetricsRegistry::Global().gauge("serve.drain_ms")
      ->Set(static_cast<double>(drain_ms));

  std::signal(SIGTERM, OnSignal);
  std::signal(SIGINT, OnSignal);

  // Print the resolved endpoint (an ephemeral tcp:HOST:0 bind resolves to
  // its real port) so harnesses can scrape it from stderr.
  std::fprintf(stderr,
               "vadasa_serve: listening on %s (%zu workers, queue %zu, cache %s)\n",
               server.listen_spec().ToString().c_str(), scheduler_options.workers,
               scheduler_options.max_queue,
               cache != nullptr
                   ? (std::to_string(cache->byte_budget() >> 20) + " MiB").c_str()
                   : "off");

  // Wait for either {"op":"shutdown"} from a client or SIGTERM/SIGINT. The
  // handler cannot notify a condition variable, so poll its flag between
  // short waits.
  int signal_seen = 0;
  for (;;) {
    if (server.AwaitShutdownFor(std::chrono::milliseconds(50))) break;
    signal_seen = g_signal.load(std::memory_order_relaxed);
    if (signal_seen != 0) break;
  }
  if (signal_seen != 0) {
    std::fprintf(stderr, "vadasa_serve: signal %d, draining (up to %d ms)\n",
                 signal_seen, drain_ms);
  }

  // Graceful drain: admission closes immediately, queued + running jobs get
  // the budget to finish, the remainder is cancelled. Blocked `result` waits
  // unblock as their jobs reach terminal states, which lets Stop() join the
  // connection threads.
  const bool drained =
      scheduler.ShutdownWithin(std::chrono::milliseconds(drain_ms));
  obs::MetricsRegistry::Global().gauge("serve.drain.clean")
      ->Set(drained ? 1.0 : 0.0);
  if (!drained) {
    std::fprintf(stderr,
                 "vadasa_serve: drain budget exhausted, cancelled remaining jobs\n");
  }
  server.Stop();
  if (sample_ms > 0) obs::TelemetrySampler::Global().Stop();

  if (!obs::ExportRequested(trace_args)) {
    std::fprintf(stderr,
                 "error: failed to write --trace/--metrics/--prom output\n");
    return 1;
  }
  return 0;
}
