// The `serve` workload: a spawned vadasa_serve driven over two persistent
// unix-socket connections from two client threads, each a closed loop that
// owns one dataset. See NOTES.md for the load shape and why it exists.

#include <algorithm>
#include <barrier>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/vadasa.h"
#include "client.h"
#include "common/csv.h"
#include "common/json.h"
#include "core/datagen.h"
#include "core/delta.h"
#include "bench.h"
#include "script.h"
#include "serve/dataset_registry.h"
#include "serve/protocol.h"
#include "serve/result_cache.h"
#include "serve/scheduler.h"

namespace perfbench {

namespace {

using vadasa::Json;
using vadasa::Result;
using vadasa::Status;
using vadasa::api::Session;
using vadasa::api::SessionOptions;
namespace core = vadasa::core;

constexpr size_t kPublishedRows = 25000;
constexpr size_t kFeedRows = 50000;
/// Nominal cost of one aligned analyst + feed step on the reference machine.
constexpr double kNominalStepSeconds = 0.16;
/// Aligned steps per ops_per_s window: each window holds one cold release.
constexpr size_t kWindowSteps = 5;
/// Aligned steps per round. Every round runs on a fresh server, whose
/// memory and per-op latency grow with each delta (defect 3): a longer run
/// repeats rounds instead of lengthening the feed.
constexpr size_t kRoundSteps = 60;

std::string SubmitLine(const std::string& dataset, const std::string& action,
                       const std::string& measure, int k, uint64_t seed) {
  Json::Object request{{"op", Json("submit")},       {"v", Json(2)},
                       {"dataset", Json(dataset)},   {"action", Json(action)},
                       {"measure", Json(measure)},   {"k", Json(k)},
                       {"threshold", Json(kThreshold)},   {"seed", Json(seed)},
                       {"explain", Json(false)}};
  return Json(std::move(request)).Dump();
}

/// One submit + result round trip, timed from the submit's first byte to
/// the result's last byte.
struct Exchange {
  double ms = 0.0;
  int64_t start_ns = 0;
  std::string line;  ///< The result response.
  Json result;
  std::string error;
};

Exchange SubmitAndWait(LineClient* client, const std::string& submit) {
  Exchange ex;
  ex.start_ns = Tracer::NowNs();
  const auto start = Clock::now();
  auto accepted = client->RoundTrip(submit);
  Result<std::string> line = accepted.status();
  Json ack;
  if (accepted.ok()) {
    auto parsed = Json::Parse(*accepted);
    if (parsed.ok() && ResponseOk(*parsed) && parsed->Has("id")) {
      ack = std::move(*parsed);
      line = client->RoundTrip("{\"op\":\"result\",\"v\":2,\"id\":" +
                               std::to_string(ack.GetInt("id", 0)) + "}");
    } else {
      ex.error = "submit refused: " + accepted->substr(0, 300);
    }
  }
  ex.ms = MsSince(start);
  if (!ex.error.empty()) return ex;
  if (!line.ok()) {
    ex.error = line.status().ToString();
    return ex;
  }
  ex.line = std::move(*line);
  auto parsed = Json::Parse(ex.line);
  if (!parsed.ok()) {
    ex.error = "unparseable result: " + parsed.status().ToString();
  } else if (!ResponseOk(*parsed) || parsed->GetString("state", "") != "done") {
    ex.error = "result not done: " + ex.line.substr(0, 300);
  } else {
    ex.result = std::move(*parsed);
  }
  return ex;
}

/// The tuple-risk vector of an in-process risk report, serialized the way
/// the wire serializes it.
std::string RiskVectorJson(const std::vector<double>& risks) {
  return Json(Json::Array(risks.begin(), risks.end())).Dump();
}

std::string AnonymizePayload(const vadasa::api::AnonymizeResponse& response) {
  return "csv:" + vadasa::WriteCsv(response.table.ToCsv()) +
         "\naudit:" + response.ToText();
}

/// A server counter from {"op":"metrics"}.
double Counter(const Json& metrics, const std::string& name) {
  return metrics["metrics"].GetDouble(name, 0.0);
}

/// The server's latest sampled RSS from {"op":"telemetry"}.
double ServerRssMb(LineClient* client) {
  auto line = client->RoundTrip("{\"op\":\"telemetry\",\"v\":2}");
  if (!line.ok()) return 0.0;
  auto parsed = Json::Parse(*line);
  if (!parsed.ok()) return 0.0;
  const Json::Array& rss = (*parsed)["series"]["rss_mb"].AsArray();
  return rss.empty() ? 0.0 : rss.back().AsDouble();
}

Result<Json> Metrics(LineClient* client) {
  VADASA_ASSIGN_OR_RETURN(const std::string line,
                          client->RoundTrip("{\"op\":\"metrics\",\"v\":2}"));
  return Json::Parse(line);
}

/// Everything the checks compare served outputs against, computed in
/// process before timing starts.
struct References {
  std::string published_risks;           ///< Wire form of the tuple risks.
  std::string policy_payload[3];         ///< Per kHitPolicies entry.
  std::vector<std::string> feed_risks;   ///< Per feed version, from v1.
};

std::string CheckRisk(const Exchange& ex, const std::string& expected) {
  if (!ex.error.empty()) return ex.error;
  if (ex.result["risk"]["tuple_risks"].Dump() != expected) {
    return "tuple risks differ from the in-process reference";
  }
  return "";
}

}  // namespace

int RunServeWorkload(const RunConfig& config, Recorder* recorder, Tracer* tracer) {
  if (config.serve_binary.empty()) {
    std::fprintf(stderr, "serve: --serve-bin is required\n");
    return 2;
  }
  const core::MicrodataTable published_table = core::GenerateInflationGrowth(
      "R25A4U", kPublishedRows, 4, core::DistributionKind::kUnbalanced, config.seed);
  const core::MicrodataTable feed_table = core::GenerateInflationGrowth(
      "R50A4U", kFeedRows, 4, core::DistributionKind::kUnbalanced, config.seed + 1);
  const vadasa::CsvTable feed_csv = feed_table.ToCsv();
  const std::string tag = std::to_string(config.seed);
  const std::string published =
      WriteDatasetCsv(config, "published-" + tag, vadasa::WriteCsv(published_table.ToCsv()));
  const std::string feed = WriteDatasetCsv(config, "feed-" + tag, vadasa::WriteCsv(feed_csv));
  const std::string socket = config.work_dir + "/serve-" + tag + ".sock";
  recorder->Note("datasets",
                 Json::Array{Json::Object{{"name", Json("published")},
                                          {"shape", Json("R25A4U")},
                                          {"rows", Json(static_cast<int64_t>(kPublishedRows))},
                                          {"seed", Json(config.seed)}},
                             Json::Object{{"name", Json("feed")},
                                          {"shape", Json("R50A4U")},
                                          {"rows", Json(static_cast<int64_t>(kFeedRows))},
                                          {"seed", Json(config.seed + 1)}}});

  const size_t steps = kRoundSteps;
  const size_t rounds = std::max<size_t>(
      1, static_cast<size_t>(static_cast<double>(config.seconds) /
                             (kNominalStepSeconds * static_cast<double>(steps))));
  const std::vector<AnalystStep> script = MakeAnalystScript(config.seed, steps);
  const std::vector<FeedBatch> batches = MakeFeedBatches(feed_csv, config.seed, steps + 1);
  recorder->Note("rounds", static_cast<int64_t>(rounds));
  recorder->Note("steps_per_round", static_cast<int64_t>(steps));
  recorder->Note("server", "vadasa_serve --workers=2, result cache on (default 64 MiB), "
                           "VADASA_THREADS=2");
  recorder->Note("clients", "2 client threads, one persistent unix-socket connection "
                            "each, closed loops aligned by a barrier after every step");
  recorder->Note("warmup", "1 untimed step per connection per round: risk, 2 hits, "
                           "release; delta, fresh_risk");
  recorder->Note("feed_batch", "100 ops per batch (0.2% of rows): 60 updates, "
                               "20 deletes, 20 appends");

  // ---- references, in process --------------------------------------------
  References refs;
  {
    auto session = Session::Open(published, Policy("k-anonymity", 2));
    if (!session.ok()) {
      std::fprintf(stderr, "serve: %s\n", session.status().ToString().c_str());
      return 1;
    }
    auto risk = session->Risk(-1.0, /*explain=*/false);
    if (risk.ok()) refs.published_risks = RiskVectorJson(risk->tuple_risks);
    for (int p = 0; p < 3; ++p) {
      auto policy = Session::FromShared(
          session->shared_table(), nullptr,
          Policy(kHitPolicies[p].measure, kHitPolicies[p].k));
      auto released = policy->Anonymize();
      if (released.ok()) refs.policy_payload[p] = AnonymizePayload(*released);
    }
  }
  {
    auto session = Session::Open(feed, Policy("k-anonymity", 2));
    if (!session.ok()) {
      std::fprintf(stderr, "serve: %s\n", session.status().ToString().c_str());
      return 1;
    }
    for (int rep = 0; rep < (config.trace ? 3 : 1); ++rep) {
      auto cold = Session::FromShared(session->shared_table(), nullptr, session->options());
      const auto start = Clock::now();
      (void)cold->Warm();
      if (config.trace) recorder->Layer("api.session.warm_ms", MsSince(start), "ms");
    }
    (void)session->Warm();
    auto risk = session->Risk(-1.0, false);
    refs.feed_risks.push_back(risk.ok() ? RiskVectorJson(risk->tuple_risks) : "");
    Session current = *session;
    for (const FeedBatch& batch : batches) {
      auto delta = ToDeltaBatch(batch, feed_csv.header.size());
      if (!delta.ok()) {
        std::fprintf(stderr, "serve: %s\n", delta.status().ToString().c_str());
        return 1;
      }
      if (config.trace) {
        double ms = 0.0;
        Traced(tracer, "core.delta.apply", -1, 0, &ms, [&] {
          return core::ApplyDeltaToTable(current.table(), *delta).ok();
        });
        recorder->Layer("core.delta.apply_ms", ms, "ms");
      }
      const auto start = Clock::now();
      auto next = current.Apply(*delta);
      if (config.trace) recorder->Layer("api.session.apply_ms", MsSince(start), "ms");
      if (!next.ok()) {
        std::fprintf(stderr, "serve: %s\n", next.status().ToString().c_str());
        return 1;
      }
      current = std::move(*next);
      auto fresh = current.Risk(-1.0, false);
      refs.feed_risks.push_back(fresh.ok() ? RiskVectorJson(fresh->tuple_risks) : "");
    }
  }

  // ---- set-up: spawn, load + categorize + warm both datasets, fill the
  // three cached policies. One set-up before the rounds, one per round (its
  // server is the one measured) and one after them, so setup_s samples the
  // whole run rather than its first seconds. --------------------------------
  std::string fills[3];
  std::vector<double> setup_seconds;
  const std::vector<std::string> server_args = {"--listen=unix:" + socket,
                                                "--workers=2"};
  auto set_up = [&](ServerProcess* process) -> std::string {
    const auto start = Clock::now();
    Status status = process->Start(config.serve_binary, server_args, socket);
    LineClient a, f;
    if (status.ok()) status = a.Connect(socket);
    if (status.ok()) status = f.Connect(socket);
    if (!status.ok()) return status.ToString();
    Exchange risk =
        SubmitAndWait(&a, SubmitLine(published, "risk", "k-anonymity", 2, kFillSeed));
    std::string error = CheckRisk(risk, refs.published_risks);
    Exchange fresh =
        SubmitAndWait(&f, SubmitLine(feed, "risk", "k-anonymity", 2, kFillSeed));
    if (error.empty()) error = CheckRisk(fresh, refs.feed_risks[0]);
    for (int p = 0; p < 3 && error.empty(); ++p) {
      Exchange fill = SubmitAndWait(
          &a, SubmitLine(published, "anonymize", kHitPolicies[p].measure,
                         kHitPolicies[p].k, kFillSeed));
      if (!fill.error.empty()) {
        error = fill.error;
      } else if (ResultPayload(fill.result) != refs.policy_payload[p]) {
        error = "cache fill differs from in-process Session::Anonymize";
      } else {
        fills[p] = ResultPayload(fill.result);
      }
    }
    setup_seconds.push_back(MsSince(start) / 1e3);
    return error;
  };

  // ---- the steps of the two closed loops -------------------------------
  struct ClassStats {
    std::vector<double> traced, untraced;
  };
  std::mutex layer_mutex;
  std::map<std::string, ClassStats> overhead;
  std::vector<size_t> completed(steps + 1, 0);  ///< Passing timed ops per step.
  size_t op_base = 0;  ///< Span op ids of this round: op_base + step.
  // An untimed step records a failed check under `untimed` (warm-up or the
  // feed stretch); a timed one records an op.
  auto record = [&](const std::string& op_class, const Exchange& ex, bool timed,
                    const std::string& error, size_t step,
                    const std::string& untimed = "warmup") {
    if (!timed) {
      if (!error.empty()) recorder->Check(untimed + "." + op_class, error);
      return;
    }
    recorder->Op(op_class, ex.ms, error);
    if (error.empty()) {
      std::lock_guard<std::mutex> lock(layer_mutex);
      ++completed[step];
    }
    if (!config.trace || !error.empty()) return;
    // Odd steps carry spans, even steps do not: their medians give the
    // tracing overhead of this run.
    const bool traced = step % 2 == 1;
    {
      std::lock_guard<std::mutex> lock(layer_mutex);
      (traced ? overhead[op_class].traced : overhead[op_class].untraced).push_back(ex.ms);
    }
    if (!traced) return;
    // One client span per request; the server's queue and run intervals are
    // its children, so the span's self time is the wire time.
    const auto end_ns = ex.start_ns + static_cast<int64_t>(ex.ms * 1e6);
    const uint64_t op = op_base + step;
    const long span = tracer->Add("serve." + op_class, ex.start_ns, end_ns, -1, op);
    recorder->Layer("serve.response_kb." + op_class,
                    static_cast<double>(ex.line.size()) / 1024.0, "KiB");
    if (!ex.result.Has("queued_ns")) return;  // apply_delta runs no job.
    const auto queued_ns = ex.result.GetInt("queued_ns", 0);
    const auto run_ns = ex.result.GetInt("run_ns", 0);
    tracer->Add("server.queued", ex.start_ns, ex.start_ns + queued_ns, span, op);
    tracer->Add("server.run", ex.start_ns + queued_ns, ex.start_ns + queued_ns + run_ns,
                span, op);
    recorder->Layer("serve.queue_ms." + op_class, static_cast<double>(queued_ns) / 1e6, "ms");
    recorder->Layer("serve.run_ms." + op_class, static_cast<double>(run_ns) / 1e6, "ms");
    recorder->Layer("serve.wire_ms." + op_class, tracer->SelfMs(span), "ms");
  };

  auto analyst_step = [&](LineClient* client, size_t i, bool timed) {
    const AnalystStep& step = script[i];
    Exchange risk = SubmitAndWait(client, SubmitLine(published, "risk", "k-anonymity",
                                                     2, step.risk_seed));
    std::string error = CheckRisk(risk, refs.published_risks);
    if (error.empty() && risk.result["cached"].AsBool(true)) error = "fresh risk was cached";
    record("risk", risk, timed, error, i);
    for (int h : step.hit) {
      Exchange hit = SubmitAndWait(
          client, SubmitLine(published, "anonymize", kHitPolicies[h].measure,
                             kHitPolicies[h].k, kFillSeed));
      error = hit.error;
      if (error.empty() && !hit.result["cached"].AsBool(false)) error = "hit was not cached";
      if (error.empty() && ResultPayload(hit.result) != fills[h]) {
        error = "hit payload differs from its fill";
      }
      record("hit", hit, timed, error, i);
    }
    if (step.release) {
      const ServePolicy& policy = kHitPolicies[step.release_policy];
      Exchange release = SubmitAndWait(
          client, SubmitLine(published, "anonymize", policy.measure, policy.k,
                             step.release_seed));
      error = release.error;
      if (error.empty() && release.result["cached"].AsBool(true)) {
        error = "fresh release was cached";
      }
      if (error.empty() &&
          ResultPayload(release.result) != refs.policy_payload[step.release_policy]) {
        error = "served release differs from in-process Session::Anonymize";
      }
      record("release", release, timed, error, i);
    }
  };
  auto feed_step = [&](LineClient* client, size_t i, bool timed,
                       const std::string& untimed = "warmup") {
    Exchange delta;
    delta.start_ns = Tracer::NowNs();
    const std::string request = DeltaRequestLine(feed, batches[i]);
    const auto start = Clock::now();
    auto line = client->RoundTrip(request);
    delta.ms = MsSince(start);
    std::string error;
    if (!line.ok()) {
      error = line.status().ToString();
    } else {
      delta.line = *line;
      auto parsed = Json::Parse(*line);
      if (!parsed.ok() || !ResponseOk(*parsed)) {
        error = "apply_delta refused: " + line->substr(0, 300);
      } else if (parsed->GetInt("version", 0) != static_cast<int64_t>(i) + 2 ||
                 parsed->GetInt("rows", 0) != static_cast<int64_t>(kFeedRows)) {
        error = "unexpected dataset version or row count after apply_delta";
      }
    }
    record("delta", delta, timed, error, i, untimed);
    if (timed && config.trace) {
      auto started = Clock::now();
      (void)Json::Parse(request);
      recorder->Layer("common.json.parse_ms", MsSince(started), "ms");
    }
    Exchange fresh =
        SubmitAndWait(client, SubmitLine(feed, "risk", "k-anonymity", 2, kFillSeed));
    error = CheckRisk(fresh, refs.feed_risks[i + 1]);
    if (error.empty() && fresh.result["cached"].AsBool(true)) error = "fresh read was cached";
    record("fresh_risk", fresh, timed, error, i, untimed);
  };

  // serve.rss_per_delta_mb: the server's RSS growth over a stretch of feed
  // steps (delta + fresh_risk) with no analyst traffic, so only what the
  // feed leaves behind (defect 3) is charged to deltas. It runs on the
  // first set-up server, so no server a round measures carries its deltas.
  const size_t stretch_steps = std::min<size_t>(12, batches.size());
  auto feed_stretch = [&]() -> std::string {
    LineClient client;
    if (!client.Connect(socket).ok()) return "cannot connect to vadasa_serve";
    // The server samples its RSS every 100 ms; wait for a fresh sample.
    const auto settle = std::chrono::milliseconds(300);
    std::this_thread::sleep_for(settle);
    const double before = ServerRssMb(&client);
    for (size_t i = 0; i < stretch_steps; ++i) feed_step(&client, i, false, "stretch");
    std::this_thread::sleep_for(settle);
    const double after = ServerRssMb(&client);
    recorder->Note("feed_stretch", Json::Object{
                                       {"steps", Json(static_cast<int64_t>(stretch_steps))},
                                       {"server_rss_mb_before", Json(before)},
                                       {"server_rss_mb_after", Json(after)}});
    if (before <= 0.0 || after <= 0.0) return "server RSS was not sampled";
    if (config.trace) {
      recorder->Layer("serve.rss_per_delta_mb",
                      (after - before) / static_cast<double>(stretch_steps), "MiB");
    }
    return "";
  };
  auto set_up_and_stop = [&](bool stretch) -> std::string {
    ServerProcess process;
    std::string error = set_up(&process);
    if (error.empty() && stretch) error = feed_stretch();
    const Status stopped = process.Stop();
    return error.empty() && !stopped.ok() ? stopped.ToString() : error;
  };

  std::string error = set_up_and_stop(/*stretch=*/true);
  if (!error.empty()) {
    std::fprintf(stderr, "serve: set-up failed: %s\n", error.c_str());
    return 1;
  }

  // ---- the rounds: a fresh server each, driven by the two closed loops --
  std::vector<double> window_rates;
  Json::Array rss_after_rounds;
  double hits = 0.0, misses = 0.0, warmups = 0.0;
  for (size_t round = 0; round < rounds; ++round) {
    ServerProcess server;
    LineClient analyst, feeder;
    error = set_up(&server);
    if (error.empty() && (!analyst.Connect(socket).ok() || !feeder.Connect(socket).ok())) {
      error = "cannot connect to vadasa_serve";
    }
    if (!error.empty()) {
      std::fprintf(stderr, "serve: set-up failed: %s\n", error.c_str());
      return 1;
    }
    op_base = round * (steps + 1);
    std::fill(completed.begin(), completed.end(), 0);
    analyst_step(&analyst, 0, false);
    feed_step(&feeder, 0, false);
    auto before = Metrics(&analyst);

    std::barrier align(2);
    std::vector<Clock::time_point> step_end(steps + 1);
    step_end[0] = Clock::now();
    std::thread feed_thread([&] {
      for (size_t i = 1; i <= steps; ++i) {
        feed_step(&feeder, i, true);
        align.arrive_and_wait();
      }
    });
    for (size_t i = 1; i <= steps; ++i) {
      analyst_step(&analyst, i, true);
      align.arrive_and_wait();
      step_end[i] = Clock::now();  // Both connections have finished step i.
    }
    feed_thread.join();

    // ops_per_s: per window of kWindowSteps aligned steps, the ops both
    // connections completed over the window's wall; the median over windows.
    for (size_t first = 1; first + kWindowSteps - 1 <= steps; first += kWindowSteps) {
      size_t ops = 0;
      for (size_t i = first; i < first + kWindowSteps; ++i) ops += completed[i];
      const double wall_s = std::chrono::duration<double>(
                                step_end[first + kWindowSteps - 1] - step_end[first - 1])
                                .count();
      window_rates.push_back(static_cast<double>(ops) / wall_s);
    }
    auto after = Metrics(&analyst);
    rss_after_rounds.push_back(Json(ServerRssMb(&analyst)));
    const bool counted = before.ok() && after.ok() && ResponseOk(*before) && ResponseOk(*after);
    recorder->Check("metrics_verb", counted ? "" : "metrics verb failed");
    if (counted) {
      auto delta = [&](const char* name) { return Counter(*after, name) - Counter(*before, name); };
      hits += delta("serve.cache.hits");
      misses += delta("serve.cache.misses");
      warmups += delta("serve.batch.warmups");
    }
    const Status stopped = server.Stop();
    recorder->Check("shutdown", stopped.ok() ? "" : stopped.ToString());
  }

  for (const char* c : {"risk", "hit", "release", "delta", "fresh_risk"}) {
    recorder->LatencyMetric(std::string(c) + "_ms", c);
  }
  for (const char* c : {"risk", "hit"}) {
    const Summary s = Summarize(recorder->Samples(c));
    if (s.has_tail) {
      recorder->Metric(std::string(c) + "_tail_ms", s.tail_value, "ms", &s);
    }
  }
  const Summary throughput = Summarize(window_rates);
  recorder->Metric("ops_per_s", throughput.median, "1/s", &throughput);
  recorder->Note("server_rss_mb_after_rounds", std::move(rss_after_rounds));

  if (config.trace) {
    recorder->Layer("serve.cache.hit_share", hits + misses > 0 ? hits / (hits + misses) : 0,
                    "ratio");
    recorder->Layer("serve.warmups_per_delta",
                    warmups / static_cast<double>(steps * rounds), "ratio");
    for (const auto& [op_class, halves] : overhead) {
      const double untraced = Summarize(halves.untraced).median;
      if (untraced > 0 && !halves.traced.empty()) {
        recorder->Layer("trace.overhead." + op_class + "_ms",
                        (Summarize(halves.traced).median - untraced) / untraced, "ratio");
      }
    }
  }

  recorder->Check("setup", set_up_and_stop(/*stretch=*/false));
  const Summary setup = Summarize(setup_seconds);
  recorder->Metric("setup_s", setup.median, "s", &setup);
  // The largest reaped child: the measured server (set-up servers hold less).
  recorder->Metric("peak_rss_mb", PeakRssMb(/*children=*/true), "MiB");
  if (!config.trace) return 0;

  // ---- in-process layer probes (after the loops, outside timing) --------
  for (int rep = 0; rep < 3; ++rep) {
    auto start = Clock::now();
    auto csv = vadasa::ReadCsvFile(feed);
    recorder->Layer("common.csv.read_ms", MsSince(start), "ms");
    start = Clock::now();
    const std::string text = vadasa::WriteCsv(feed_csv);
    recorder->Layer("common.csv.write_ms", MsSince(start), "ms");
    start = Clock::now();
    (void)vadasa::serve::FingerprintTable(feed_table);
    recorder->Layer("serve.fingerprint_ms", MsSince(start), "ms");
  }
  {
    // serve::Protocol::Handle of a cache hit's `result` line, in process.
    vadasa::serve::ResultCache cache;
    vadasa::serve::DatasetRegistry registry;
    registry.set_result_cache(&cache);
    vadasa::serve::SchedulerOptions options;
    options.workers = 2;
    options.result_cache = &cache;
    vadasa::serve::JobScheduler scheduler(options);
    vadasa::serve::Protocol protocol(&registry, &scheduler);
    const std::string submit = SubmitLine(published, "anonymize", kHitPolicies[0].measure,
                                          kHitPolicies[0].k, kFillSeed);
    for (int rep = 0; rep < 6; ++rep) {
      bool shutdown = false;
      auto ack = Json::Parse(protocol.Handle(submit, &shutdown));
      if (!ack.ok()) break;
      const std::string result_line =
          "{\"op\":\"result\",\"v\":2,\"id\":" + std::to_string(ack->GetInt("id", 0)) + "}";
      const auto start = Clock::now();
      const std::string response = protocol.Handle(result_line, &shutdown);
      const double ms = MsSince(start);
      auto parsed = Json::Parse(response);
      if (rep == 0 || !parsed.ok()) continue;  // The first submit fills the cache.
      recorder->Check("handle.hit", (*parsed)["cached"].AsBool(false) &&
                                            ResultPayload(*parsed) == fills[0]
                                        ? ""
                                        : "in-process hit differs from its fill");
      recorder->Layer("serve.handle_ms.hit", ms, "ms");
      const auto dump_start = Clock::now();
      (void)parsed->Dump();
      recorder->Layer("common.json.dump_ms", MsSince(dump_start), "ms");
    }
    scheduler.Shutdown();
  }
  return 0;
}

}  // namespace perfbench
