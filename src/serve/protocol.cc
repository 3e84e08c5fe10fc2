#include "serve/protocol.h"

#include <chrono>
#include <cstdio>
#include <optional>
#include <utility>

#include "common/csv.h"
#include "core/delta.h"
#include "obs/metrics.h"
#include "obs/prometheus.h"
#include "obs/sampler.h"
#include "obs/trace.h"
#include "serve/result_cache.h"

namespace vadasa::serve {

namespace {

/// The protocol version this server speaks, echoed as "v" in every response.
/// v2 added dataset versioning and the "apply_delta" verb.
constexpr int64_t kProtocolVersion = 2;

/// Every response line echoes the trace id installed on the handling thread,
/// joining it to the request's spans and slow-log line.
std::string OkLine(Json::Object fields) {
  Json::Object object = std::move(fields);
  object["ok"] = true;
  object["v"] = kProtocolVersion;
  object["trace_id"] = obs::TraceIdToHex(obs::CurrentTraceId());
  return Json(std::move(object)).Dump();
}

std::string ErrorLine(const Status& status, Json::Object extra = {}) {
  Json::Object object = std::move(extra);
  object["ok"] = false;
  object["v"] = kProtocolVersion;
  object["error"] = status.message();
  object["code"] = std::string(StatusCodeToString(status.code()));
  object["trace_id"] = obs::TraceIdToHex(obs::CurrentTraceId());
  return Json(std::move(object)).Dump();
}

/// 16-hex-digit rendering of a content fingerprint (same shape as trace ids).
std::string FingerprintHex(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return std::string(buf, 16);
}

/// Latency histograms keyed by verb. Only known verbs get a metric —
/// arbitrary op strings must not mint unbounded registry entries.
bool IsKnownOp(const std::string& op) {
  return op == "ping" || op == "datasets" || op == "submit" || op == "status" ||
         op == "result" || op == "cancel" || op == "apply_delta" ||
         op == "metrics" || op == "telemetry" || op == "shutdown";
}

Json RiskJson(const api::RiskReport& report) {
  Json::Object risk;
  Json::Array tuple_risks;
  tuple_risks.reserve(report.tuple_risks.size());
  for (double r : report.tuple_risks) tuple_risks.emplace_back(r);
  risk["tuple_risks"] = std::move(tuple_risks);
  risk["threshold"] = report.threshold;
  if (report.inferred_threshold >= 0.0) {
    risk["inferred_threshold"] = report.inferred_threshold;
  }
  Json::Array risky;
  risky.reserve(report.risky.size());
  for (const api::RiskyTuple& tuple : report.risky) {
    Json::Object entry;
    entry["row"] = static_cast<int64_t>(tuple.row);
    entry["risk"] = tuple.risk;
    if (!tuple.explanation.empty()) entry["explanation"] = tuple.explanation;
    risky.push_back(std::move(entry));
  }
  risk["risky"] = std::move(risky);
  Json::Object global;
  global["expected_reidentifications"] = report.global.expected_reidentifications;
  global["global_risk_rate"] = report.global.global_risk_rate;
  global["tuples_over_threshold"] =
      static_cast<int64_t>(report.global.tuples_over_threshold);
  global["max_risk"] = report.global.max_risk;
  global["sample_uniques"] = static_cast<int64_t>(report.global.sample_uniques);
  risk["global"] = std::move(global);
  return Json(std::move(risk));
}

/// Decodes the SessionOptions fields of a submit request; unknown measure
/// names and out-of-range k/threshold are caught by ValidateSessionOptions
/// inside Session construction.
api::SessionOptions OptionsFrom(const Json& request) {
  api::SessionOptions options;
  options.risk_measure = request.GetString("measure", options.risk_measure);
  options.k = static_cast<int>(request.GetInt("k", options.k));
  options.threshold = request.GetDouble("threshold", options.threshold);
  options.standard_nulls =
      request.GetBool("standard_nulls", options.standard_nulls);
  options.single_step = request.GetBool("single_step", options.single_step);
  options.declarative = request.GetBool("declarative", options.declarative);
  options.posterior_draws =
      static_cast<int>(request.GetInt("posterior_draws", options.posterior_draws));
  options.seed = static_cast<uint64_t>(request.GetInt("seed", static_cast<int64_t>(options.seed)));
  return options;
}

}  // namespace

std::string Protocol::ErrorResponse(const Status& status) {
  return ErrorLine(status);
}

std::string Protocol::Handle(const std::string& line, bool* shutdown_requested,
                             ClientQuota* quota) {
  // The server installs a freshly minted trace id per request line; when the
  // protocol is embedded directly (tests, tools) Handle mints its own so
  // every response still carries one.
  std::optional<obs::ScopedTraceId> minted;
  if (obs::CurrentTraceId() == 0) minted.emplace(obs::MintTraceId());
  obs::Span span("serve.request");
  const auto start = std::chrono::steady_clock::now();
  std::string op;
  std::string response = Dispatch(line, shutdown_requested, &op, quota);
  const double ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                start)
          .count();
  auto& registry = obs::MetricsRegistry::Global();
  registry.counter("serve.requests")->Add(1);
  registry.histogram("serve.op." + (IsKnownOp(op) ? op : "invalid") +
                     ".latency_ms")
      ->Record(ms);
  return response;
}

std::string Protocol::Dispatch(const std::string& line, bool* shutdown_requested,
                               std::string* op_out, ClientQuota* quota) {
  auto parsed = Json::Parse(line);
  if (!parsed.ok()) {
    return ErrorLine(parsed.status());
  }
  const Json& request = *parsed;
  const std::string op = request.GetString("op", "");
  *op_out = op;
  if (op.empty()) {
    return ErrorLine(Status::InvalidArgument("request has no \"op\" field"));
  }

  // Version negotiation: no "v" means v1 (every pre-delta verb is accepted);
  // a "v" the server does not speak fails loudly, before any verb runs.
  int64_t version = 1;
  if (request.Has("v")) {
    if (!request["v"].is_number()) {
      return ErrorLine(
          Status::InvalidArgument("\"v\" must be a protocol version number"));
    }
    version = request.GetInt("v", 1);
    if (version < 1 || version > kProtocolVersion) {
      return ErrorLine(
          Status::InvalidArgument(
              "unsupported protocol version " + std::to_string(version) +
              " (this server speaks 1.." + std::to_string(kProtocolVersion) +
              ")"),
          {{"supported_max", kProtocolVersion}});
    }
  }

  if (op == "ping") {
    return OkLine({{"op", Json("ping")}});
  }
  if (op == "datasets") {
    Json::Array names;
    for (const std::string& name : registry_->Catalog()) names.emplace_back(name);
    return OkLine({{"datasets", Json(std::move(names))}});
  }
  if (op == "submit") {
    return HandleSubmit(request, quota);
  }
  if (op == "apply_delta") {
    if (version < 2) {
      return ErrorLine(Status::InvalidArgument(
          "\"apply_delta\" requires protocol v2: send \"v\":2"));
    }
    return HandleApplyDelta(request);
  }
  if (op == "metrics") {
    auto metrics = Json::Parse(obs::MetricsRegistry::Global().ToJson());
    if (!metrics.ok()) return ErrorLine(metrics.status());
    return OkLine({{"metrics", std::move(*metrics)}});
  }
  if (op == "telemetry") {
    // One scrape: the Prometheus exposition plus the sampler's time series
    // (vadasa_top polls this; serve_smoke validates the exposition).
    auto series =
        Json::Parse(obs::TelemetrySampler::Global().TimeSeriesJson());
    if (!series.ok()) return ErrorLine(series.status());
    return OkLine(
        {{"prometheus", Json(obs::ToPrometheusText(obs::MetricsRegistry::Global()))},
         {"series", std::move(*series)},
         {"sampler_running", Json(obs::TelemetrySampler::Global().running())}});
  }
  if (op == "shutdown") {
    if (shutdown_requested != nullptr) *shutdown_requested = true;
    return OkLine({});
  }

  // The remaining operations address a job by id.
  if (op != "status" && op != "result" && op != "cancel") {
    return ErrorLine(Status::InvalidArgument("unknown op \"" + op + "\""));
  }
  if (!request.Has("id") || !request["id"].is_number()) {
    return ErrorLine(
        Status::InvalidArgument("op \"" + op + "\" requires a numeric \"id\""));
  }
  const uint64_t id = static_cast<uint64_t>(request.GetInt("id", 0));
  if (op == "status") {
    auto state = scheduler_->State(id);
    if (!state.ok()) return ErrorLine(state.status());
    auto snapshot = scheduler_->Peek(id);
    if (!snapshot.ok()) return ErrorLine(snapshot.status());
    return OkLine({{"id", Json(id)},
                   {"state", Json(JobStateToString(*state))},
                   {"queue_seconds", Json(snapshot->queue_seconds)},
                   {"run_seconds", Json(snapshot->run_seconds)},
                   {"queued_ns", Json(snapshot->queued_ns)},
                   {"run_ns", Json(snapshot->run_ns)},
                   {"job_trace_id", Json(obs::TraceIdToHex(snapshot->trace))}});
  }
  if (op == "result") {
    return HandleResult(id);
  }
  // op == "cancel"
  Status status = scheduler_->Cancel(id);
  if (!status.ok()) return ErrorLine(status);
  return OkLine({{"id", Json(id)}});
}

std::string Protocol::HandleSubmit(const Json& request, ClientQuota* quota) {
  const std::string dataset = request.GetString("dataset", "");
  if (dataset.empty()) {
    return ErrorLine(Status::InvalidArgument("submit requires a \"dataset\""));
  }
  const std::string action = request.GetString("action", "anonymize");
  if (action != "risk" && action != "anonymize") {
    return ErrorLine(Status::InvalidArgument(
        "unknown action \"" + action + "\" (want \"risk\" or \"anonymize\")"));
  }
  // Quota admission runs before any per-request work (the session open parses
  // CSV on a cold cache) so an abusive client cannot buy compute with
  // rejected submits. Unavailable rejections carry a backoff hint.
  const auto retry_hint = [this] {
    return Json(RetryAfterMs(scheduler_->queue_depth(),
                             scheduler_->options().workers));
  };
  if (quota != nullptr) {
    Status admitted = quota->Admit();
    if (!admitted.ok()) {
      return ErrorLine(admitted, {{"retry_after_ms", retry_hint()}});
    }
  }
  // Load first (not OpenSession) so the dataset's content fingerprint is in
  // hand for the cache key; the session still shares the same snapshot.
  auto loaded = registry_->Load(dataset);
  if (!loaded.ok()) {
    if (quota != nullptr) quota->Release();
    return ErrorLine(loaded.status());
  }
  auto session = api::Session::FromShared((*loaded)->table,
                                          (*loaded)->dictionary,
                                          OptionsFrom(request), (*loaded)->warm);
  if (!session.ok()) {
    if (quota != nullptr) quota->Release();
    return ErrorLine(session.status());
  }

  JobRequest job;
  job.session = std::move(*session);
  job.label = dataset;
  job.action = action == "risk" ? JobAction::kRisk : JobAction::kAnonymize;
  job.quantile = request.GetDouble("quantile", -1.0);
  job.explain = request.GetBool("explain", false);
  if (scheduler_->options().result_cache != nullptr) {
    // Keyed on the *validated* options (JSON field order and spelled-out
    // defaults canonicalize away) plus the dataset's content bytes.
    job.cache_key = ResultCacheKey(
        (*loaded)->fingerprint,
        CanonicalPolicyKey(job.session.options(), job.action, job.quantile,
                           job.explain));
  }
  JobOptions options;
  options.priority = static_cast<int>(request.GetInt("priority", 0));
  options.timeout_seconds = request.GetDouble("timeout_seconds", 0.0);
  if (quota != nullptr) options.quota_slot = quota->in_flight_cell();
  auto id = scheduler_->Submit(std::move(job), options);
  if (!id.ok()) {
    // The scheduler never saw the job (full queue, drain, injected fault):
    // hand the in-flight slot back — FinishLocked will not run for it.
    if (quota != nullptr) quota->Release();
    if (id.status().code() == StatusCode::kUnavailable) {
      return ErrorLine(id.status(), {{"retry_after_ms", retry_hint()}});
    }
    return ErrorLine(id.status());
  }
  return OkLine({{"id", Json(*id)}, {"state", Json("queued")}});
}

std::string Protocol::HandleApplyDelta(const Json& request) {
  const std::string dataset = request.GetString("dataset", "");
  if (dataset.empty()) {
    return ErrorLine(
        Status::InvalidArgument("apply_delta requires a \"dataset\""));
  }
  if (!request.Has("ops") || !request["ops"].is_array()) {
    return ErrorLine(
        Status::InvalidArgument("apply_delta requires an \"ops\" array"));
  }
  // The current snapshot pins the expected row width. All validation — op
  // shape here, arity in the builder, row bounds and weight types in
  // ApplyDeltaToTable — completes before any registry state changes.
  auto loaded = registry_->Load(dataset);
  if (!loaded.ok()) return ErrorLine(loaded.status());
  core::DeltaBatchBuilder builder((*loaded)->table->num_columns());
  for (const Json& op_json : request["ops"].AsArray()) {
    const std::string kind = op_json.GetString("kind", "");
    if (kind != "append" && kind != "update" && kind != "delete") {
      return ErrorLine(Status::InvalidArgument(
          "unknown delta op kind \"" + kind +
          "\" (want \"append\", \"update\" or \"delete\")"));
    }
    uint32_t row = 0;
    if (kind != "append") {
      if (!op_json.Has("row") || !op_json["row"].is_number() ||
          op_json.GetInt("row", -1) < 0) {
        return ErrorLine(Status::InvalidArgument(
            "delta op \"" + kind +
            "\" requires a non-negative numeric \"row\""));
      }
      row = static_cast<uint32_t>(op_json.GetInt("row", 0));
    }
    std::vector<Value> values;
    if (kind != "delete") {
      if (!op_json.Has("values") || !op_json["values"].is_array()) {
        return ErrorLine(Status::InvalidArgument(
            "delta op \"" + kind + "\" requires a \"values\" array"));
      }
      for (const Json& cell : op_json["values"].AsArray()) {
        if (!cell.is_string()) {
          return ErrorLine(Status::InvalidArgument(
              "delta cells are CSV-format strings (e.g. \"12\", \"Roma\", "
              "\"NULL_3\")"));
        }
        values.push_back(CellToValue(cell.AsString()));
      }
    }
    if (kind == "append") {
      builder.Append(std::move(values));
    } else if (kind == "update") {
      builder.Update(row, std::move(values));
    } else {
      builder.Delete(row);
    }
  }
  auto batch = builder.Build();
  if (!batch.ok()) return ErrorLine(batch.status());
  auto applied = registry_->ApplyDelta(dataset, *batch);
  if (!applied.ok()) return ErrorLine(applied.status());
  return OkLine(
      {{"dataset", Json(dataset)},
       {"version", Json((*applied)->version)},
       {"rows", Json(static_cast<int64_t>((*applied)->table->num_rows()))},
       {"fingerprint", Json(FingerprintHex((*applied)->fingerprint))}});
}

std::string Protocol::HandleResult(uint64_t id) {
  auto result = scheduler_->Wait(id);
  if (!result.ok()) return ErrorLine(result.status());
  Json::Object fields;
  fields["id"] = Json(id);
  fields["state"] = JobStateToString(result->state);
  fields["queue_seconds"] = result->queue_seconds;
  fields["run_seconds"] = result->run_seconds;
  fields["queued_ns"] = Json(result->queued_ns);
  fields["run_ns"] = Json(result->run_ns);
  fields["job_trace_id"] = obs::TraceIdToHex(result->trace);
  if (result->state == JobState::kDone) {
    // Whether the payload came from the result cache. Cached or cold, the
    // bytes below are serialized by the same code from the same structs —
    // the cached-result-bit-identical property holds the two identical.
    fields["cached"] = Json(result->from_cache);
    if (result->action == JobAction::kRisk) {
      fields["risk"] = RiskJson(result->risk);
    } else {
      fields["csv"] = WriteCsv(result->anonymize.table.ToCsv());
      fields["audit"] = result->anonymize.ToText();
    }
  } else {
    fields["error"] = result->status.message();
    fields["code"] = std::string(StatusCodeToString(result->status.code()));
  }
  return OkLine(std::move(fields));
}

}  // namespace vadasa::serve
