#ifndef VADASA_SERVE_PROTOCOL_H_
#define VADASA_SERVE_PROTOCOL_H_

#include <string>

#include "common/json.h"
#include "serve/dataset_registry.h"
#include "serve/quota.h"
#include "serve/scheduler.h"

namespace vadasa::serve {

/// The newline-delimited JSON request/response protocol of vadasa_serve
/// (docs/serving.md). Each request is one JSON object on one line; each
/// response is one JSON object on one line with an "ok" bool — protocol-level
/// failures carry "error" and "code", job-level failures arrive as terminal
/// job states inside an ok:true envelope.
///
/// Versioning: every response states the server's protocol version as "v"
/// (currently 2). Requests may carry "v"; absent means 1 (the pre-delta
/// protocol, fully accepted). A "v" the server does not speak is rejected
/// with a structured InvalidArgument carrying "supported_max", so old servers
/// fail new clients loudly instead of mis-parsing their requests. The
/// "apply_delta" verb is v2-only: a request must say "v":2 (or higher, up to
/// the server's version) to use it.
///
/// Operations:
///   {"op":"ping"}
///   {"op":"datasets"}
///   {"op":"submit","dataset":PATH,"action":"risk"|"anonymize", ...options}
///   {"op":"status","id":N}
///   {"op":"result","id":N}        — blocks until the job is terminal
///   {"op":"cancel","id":N}
///   {"op":"apply_delta","v":2,"dataset":PATH,"ops":[...]}
///       — streams a DeltaBatch into the registry (docs/serving.md:
///         "Streaming deltas"). Each element of "ops" is
///         {"kind":"append","values":[CELLS]} |
///         {"kind":"update","row":N,"values":[CELLS]} |
///         {"kind":"delete","row":N}, cells in the CSV cell format
///         ("12", "3.5", "Roma", "NULL_7"). Responds with the "dataset", its
///         new monotonic "version" and its "rows"; in-flight jobs keep
///         serving the pre-delta snapshot bit-identically.
///   {"op":"metrics"}              — serve.* / cycle.* metrics snapshot
///   {"op":"telemetry"}            — Prometheus exposition + sampler series
///   {"op":"shutdown"}
///
/// Telemetry (docs/observability.md): every response echoes the request's
/// trace id as `"trace_id"` (16 hex digits) — minted per connection line by
/// the server, or by Handle itself when none is installed — and each known
/// verb meters its handling latency into `serve.op.<verb>.latency_ms`.
///
/// The class is stateless beyond its two collaborators and safe to call from
/// concurrent connection threads.
class Protocol {
 public:
  Protocol(DatasetRegistry* registry, JobScheduler* scheduler)
      : registry_(registry), scheduler_(scheduler) {}

  /// Handles one request line, returning the response line (no trailing
  /// newline). Sets *shutdown_requested on {"op":"shutdown"}; never throws.
  /// `quota` is the calling connection's admission quota (null = unmetered,
  /// the embedded-use default): over-quota submits are rejected with
  /// Unavailable plus a "retry_after_ms" backoff hint scaled by the
  /// scheduler's backlog (docs/robustness.md).
  std::string Handle(const std::string& line, bool* shutdown_requested,
                     ClientQuota* quota = nullptr);

  /// One response line for a failure detected outside Handle (e.g. an
  /// oversized request line the server refuses to buffer further).
  static std::string ErrorResponse(const Status& status);

 private:
  std::string Dispatch(const std::string& line, bool* shutdown_requested,
                       std::string* op_out, ClientQuota* quota);
  std::string HandleSubmit(const Json& request, ClientQuota* quota);
  std::string HandleApplyDelta(const Json& request);
  std::string HandleResult(uint64_t id);

  DatasetRegistry* registry_;
  JobScheduler* scheduler_;
};

}  // namespace vadasa::serve

#endif  // VADASA_SERVE_PROTOCOL_H_
