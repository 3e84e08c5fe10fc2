#include "serve/protocol.h"

#include <chrono>
#include <cmath>
#include <limits>
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

/// Latency histograms keyed by verb. Only known verbs get a metric —
/// arbitrary op strings must not mint unbounded registry entries.
bool IsKnownOp(const std::string& op) {
  return op == "ping" || op == "datasets" || op == "submit" || op == "status" ||
         op == "result" || op == "cancel" || op == "apply_delta" ||
         op == "metrics" || op == "telemetry" || op == "shutdown";
}

/// The members a job's `status` and `result` lines share: id, state, the
/// phase timings and the submitting request's trace id.
Json::Object JobFields(const JobResult& job) {
  return {{"id", Json(job.id)},
          {"state", Json(JobStateToString(job.state))},
          {"queue_seconds", Json(static_cast<double>(job.queued_ns) / 1e9)},
          {"run_seconds", Json(static_cast<double>(job.run_ns) / 1e9)},
          {"queued_ns", Json(job.queued_ns)},
          {"run_ns", Json(job.run_ns)},
          {"job_trace_id", Json(obs::TraceIdToHex(job.trace))}};
}

/// 2^53: every integer up to it is exactly a double, so a seed or job id in
/// range names one value, not the nearest of several.
constexpr int64_t kMaxExactInteger = int64_t{1} << 53;

/// An integer member of a request: `fallback` when absent, else its value
/// when it is a number holding an integer in [lo, hi]. Anything else — a
/// fraction, a number out of range (including 1e400, read as infinity), a
/// string — is InvalidArgument, never a silently truncated or narrowed value.
Result<int64_t> IntegerField(const Json& request, const std::string& key,
                             int64_t fallback, int64_t lo, int64_t hi) {
  if (!request.Has(key)) return fallback;
  const Json& value = request[key];
  if (!value.IsIntegerIn(lo, hi)) {
    return Status::InvalidArgument("\"" + key + "\" must be an integer in [" +
                                   std::to_string(lo) + ", " + std::to_string(hi) +
                                   "], got " + value.Dump());
  }
  return value.AsInt();
}

/// IntegerField over the range of `int`.
Result<int> IntField(const Json& request, const std::string& key, int fallback) {
  VADASA_ASSIGN_OR_RETURN(
      const int64_t value,
      IntegerField(request, key, fallback, std::numeric_limits<int>::min(),
                   std::numeric_limits<int>::max()));
  return static_cast<int>(value);
}

/// Decodes the SessionOptions fields of a submit request; unknown measure
/// names and out-of-range k/threshold are caught by ValidateSessionOptions
/// inside Session construction.
Result<api::SessionOptions> OptionsFrom(const Json& request) {
  api::SessionOptions options;
  options.risk_measure = request.GetString("measure", options.risk_measure);
  VADASA_ASSIGN_OR_RETURN(options.k, IntField(request, "k", options.k));
  options.threshold = request.GetDouble("threshold", options.threshold);
  options.standard_nulls =
      request.GetBool("standard_nulls", options.standard_nulls);
  options.single_step = request.GetBool("single_step", options.single_step);
  options.declarative = request.GetBool("declarative", options.declarative);
  VADASA_ASSIGN_OR_RETURN(options.posterior_draws,
                          IntField(request, "posterior_draws", options.posterior_draws));
  VADASA_ASSIGN_OR_RETURN(
      const int64_t seed,
      IntegerField(request, "seed", static_cast<int64_t>(options.seed), 0,
                   kMaxExactInteger));
  options.seed = static_cast<uint64_t>(seed);
  return options;
}

/// Decodes the scheduling knobs of a submit request and applies the
/// scheduler's own check (ValidateJobOptions): a `timeout_seconds` must be a
/// JSON number, never a string read as "no deadline".
Result<JobOptions> JobOptionsFrom(const Json& request) {
  JobOptions options;
  VADASA_ASSIGN_OR_RETURN(options.priority, IntField(request, "priority", 0));
  if (request.Has("timeout_seconds")) {
    const Json& timeout = request["timeout_seconds"];
    if (!timeout.is_number()) {
      return Status::InvalidArgument("\"timeout_seconds\" must be a number, got " +
                                     timeout.Dump());
    }
    options.timeout_seconds = timeout.AsDouble();
  }
  VADASA_RETURN_NOT_OK(ValidateJobOptions(options));
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
    const double v = request["v"].AsDouble(std::nan(""));
    if (!std::isfinite(v) || v != std::trunc(v)) {
      return ErrorLine(Status::InvalidArgument(
          "\"v\" must be an integer protocol version, got " + request["v"].Dump()));
    }
    version = request["v"].AsInt();
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
  auto id_field = IntegerField(request, "id", 0, 0, kMaxExactInteger);
  if (!id_field.ok()) return ErrorLine(id_field.status());
  const uint64_t id = static_cast<uint64_t>(*id_field);
  if (op == "status") {
    // One snapshot: the state and timings are read under one lock.
    auto job = scheduler_->Peek(id);
    if (!job.ok()) return ErrorLine(job.status());
    return OkLine(JobFields(*job));
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
  // Every field is decoded before the dataset loads, so a malformed request
  // never parses, categorizes or registers a CSV.
  auto session_options = OptionsFrom(request);
  auto options = JobOptionsFrom(request);
  if (!session_options.ok() || !options.ok()) {
    if (quota != nullptr) quota->Release();
    return ErrorLine(!session_options.ok() ? session_options.status() : options.status());
  }
  // Load first (not OpenSession) so the snapshot's generation is in hand for
  // the cache key; the session shares the same snapshot.
  auto loaded = registry_->Load(dataset);
  if (!loaded.ok()) {
    if (quota != nullptr) quota->Release();
    return ErrorLine(loaded.status());
  }
  auto session = api::Session::FromShared((*loaded)->table,
                                          (*loaded)->dictionary,
                                          std::move(*session_options), (*loaded)->warm);
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
    // defaults canonicalize away) plus the snapshot the session reads.
    job.cache_key = ResultCacheKey(
        (*loaded)->generation,
        CanonicalPolicyKey(job.session.options(), job.action, job.quantile,
                           job.explain));
  }
  if (quota != nullptr) options->quota_slot = quota->in_flight_cell();
  auto id = scheduler_->Submit(std::move(job), *options);
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
      if (!op_json.Has("row")) {
        return ErrorLine(Status::InvalidArgument(
            "delta op \"" + kind + "\" requires a \"row\""));
      }
      auto row_field = IntegerField(op_json, "row", 0, 0,
                                    std::numeric_limits<uint32_t>::max());
      if (!row_field.ok()) return ErrorLine(row_field.status());
      row = static_cast<uint32_t>(*row_field);
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
       {"rows", Json(static_cast<int64_t>((*applied)->table->num_rows()))}});
}

std::string Protocol::HandleResult(uint64_t id) {
  auto result = scheduler_->Wait(id);
  if (!result.ok()) return ErrorLine(result.status());
  Json::Object fields = JobFields(*result);
  if (result->state != JobState::kDone) {
    fields["error"] = result->status.message();
    fields["code"] = std::string(StatusCodeToString(result->status.code()));
    return OkLine(std::move(fields));
  }
  // Whether the payload came from the result cache. Cached or cold, the
  // payload is the bytes the job encoded once when it ran; they are spliced
  // in before the envelope's closing brace, never re-serialized.
  fields["cached"] = Json(result->from_cache);
  std::string line = OkLine(std::move(fields));
  // Room for the payload, its closing brace and the newline the server ends
  // every response line with, so no byte of a release is copied twice.
  line.reserve(line.size() + result->payload->size() + 2);
  line.back() = ',';
  line += *result->payload;
  line += '}';
  return line;
}

}  // namespace vadasa::serve
