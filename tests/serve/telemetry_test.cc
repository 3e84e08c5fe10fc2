// End-to-end telemetry through the serving stack: trace-id echo and
// propagation into spans, the telemetry verb, nanosecond job timings, and the
// slow-request log — plus the invariant that none of it changes results.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "core/datagen.h"
#include "obs/metrics.h"
#include "obs/request_log.h"
#include "obs/trace.h"
#include "serve/protocol.h"

namespace vadasa::serve {
namespace {

bool IsTraceHex(const std::string& s) {
  if (s.size() != 16) return false;
  for (const char c : s) {
    const bool ok = (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f');
    if (!ok) return false;
  }
  return true;
}

class ServeTelemetryTest : public ::testing::Test {
 protected:
  ServeTelemetryTest()
      : scheduler_(SchedulerOptions{}), protocol_(&registry_, &scheduler_) {
    EXPECT_TRUE(registry_.Register("fig5", core::Figure5Microdata()).ok());
  }

  Json Call(const std::string& line) {
    bool shutdown = false;
    auto parsed = Json::Parse(protocol_.Handle(line, &shutdown));
    EXPECT_TRUE(parsed.ok());
    return parsed.ok() ? *parsed : Json();
  }

  /// Submits a job and blocks for its terminal result.
  Json SubmitAndWait(const std::string& action) {
    const Json submitted = Call(R"({"op":"submit","dataset":"fig5","action":")" +
                                action + R"("})");
    EXPECT_TRUE(submitted.GetBool("ok", false)) << submitted.Dump();
    return Call(R"({"op":"result","id":)" +
                std::to_string(submitted.GetInt("id", 0)) + "}");
  }

  DatasetRegistry registry_;
  JobScheduler scheduler_;
  Protocol protocol_;
};

TEST_F(ServeTelemetryTest, EveryResponseEchoesATraceId) {
  for (const char* line :
       {R"({"op":"ping"})", R"({"op":"datasets"})", R"({"op":"metrics"})",
        R"({"op":"telemetry"})", R"({"op":"frobnicate"})", "not json"}) {
    const Json response = Call(line);
    EXPECT_TRUE(IsTraceHex(response.GetString("trace_id", "")))
        << line << " -> " << response.Dump();
    EXPECT_NE(response.GetString("trace_id", ""), "0000000000000000") << line;
  }
}

TEST_F(ServeTelemetryTest, InstalledTraceIdIsEchoedVerbatim) {
  const uint64_t trace = obs::MintTraceId();
  obs::ScopedTraceId scope(trace);
  const Json response = Call(R"({"op":"ping"})");
  EXPECT_EQ(response.GetString("trace_id", ""), obs::TraceIdToHex(trace));
}

TEST_F(ServeTelemetryTest, JobCarriesSubmitTraceIntoStatusAndResult) {
  const uint64_t trace = obs::MintTraceId();
  std::string id;
  {
    obs::ScopedTraceId scope(trace);
    const Json submitted =
        Call(R"({"op":"submit","dataset":"fig5","action":"risk"})");
    ASSERT_TRUE(submitted.GetBool("ok", false));
    id = std::to_string(submitted.GetInt("id", 0));
  }
  // Queried from a different (un-traced) context: the job still reports the
  // trace it was submitted under.
  const Json result = Call(R"({"op":"result","id":)" + id + "}");
  ASSERT_TRUE(result.GetBool("ok", false)) << result.Dump();
  EXPECT_EQ(result.GetString("job_trace_id", ""), obs::TraceIdToHex(trace));
  EXPECT_GE(result.GetInt("queued_ns", -1), 0);
  EXPECT_GT(result.GetInt("run_ns", -1), 0);
  const Json status = Call(R"({"op":"status","id":)" + id + "}");
  EXPECT_EQ(status.GetString("job_trace_id", ""), obs::TraceIdToHex(trace));
  EXPECT_GT(status.GetInt("run_ns", -1), 0);
}

TEST_F(ServeTelemetryTest, TelemetryVerbServesPrometheusAndSeries) {
  Call(R"({"op":"ping"})");  // Ensure at least one op latency exists.
  const Json response = Call(R"({"op":"telemetry"})");
  ASSERT_TRUE(response.GetBool("ok", false)) << response.Dump();
  const std::string prom = response.GetString("prometheus", "");
  EXPECT_NE(prom.find("# TYPE "), std::string::npos);
  EXPECT_NE(prom.find("vadasa_serve_op_latency_ms{op=\"ping\""),
            std::string::npos);
  ASSERT_TRUE(response["series"].is_object()) << response.Dump();
  EXPECT_TRUE(response["series"]["t_ms"].is_array());
  EXPECT_TRUE(response["series"]["queue_depth"].is_array());
}

TEST_F(ServeTelemetryTest, OnlyKnownOpsMintLatencyMetrics) {
  Call(R"({"op":"ping"})");
  Call(R"({"op":"frobnicate_xyz"})");
  bool saw_ping = false, saw_invalid = false, saw_frobnicate = false;
  for (const auto& [name, value] :
       obs::MetricsRegistry::Global().Snapshot()) {
    (void)value;
    if (name == "serve.op.ping.latency_ms.count") saw_ping = true;
    if (name == "serve.op.invalid.latency_ms.count") saw_invalid = true;
    if (name.find("frobnicate") != std::string::npos) saw_frobnicate = true;
  }
  EXPECT_TRUE(saw_ping);
  EXPECT_TRUE(saw_invalid);
  EXPECT_FALSE(saw_frobnicate);  // Unknown verbs fold into "invalid".
}

TEST_F(ServeTelemetryTest, SlowLogRecordsTerminalJobs) {
  const std::string path =
      testing::TempDir() + "/serve_slowlog_" + std::to_string(::getpid()) + ".ndjson";
  obs::RequestLog log(path, /*threshold_ms=*/0.0);
  ASSERT_TRUE(log.ok());
  SchedulerOptions options;
  options.slow_log = &log;
  JobScheduler scheduler(options);
  Protocol protocol(&registry_, &scheduler);
  bool shutdown = false;
  auto submitted = Json::Parse(protocol.Handle(
      R"({"op":"submit","dataset":"fig5","action":"risk"})", &shutdown));
  ASSERT_TRUE(submitted.ok());
  protocol.Handle(R"({"op":"result","id":)" +
                      std::to_string(submitted->GetInt("id", 0)) + "}",
                  &shutdown);
  EXPECT_EQ(log.lines_written(), 1u);
  std::ifstream in(path);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  auto entry = Json::Parse(line);
  ASSERT_TRUE(entry.ok()) << line;
  EXPECT_EQ(entry->GetString("op", ""), "risk");
  EXPECT_EQ(entry->GetString("dataset", ""), "fig5");
  EXPECT_EQ(entry->GetString("outcome", ""), "done");
  EXPECT_TRUE(IsTraceHex(entry->GetString("trace_id", "")));
  std::remove(path.c_str());
}

TEST_F(ServeTelemetryTest, ConcurrentRequestsKeepTraceIdsDistinct) {
  // N concurrent clients, each with its own minted trace id: every job span
  // recorded by the scheduler must carry exactly the trace of the request
  // that submitted it, and every request must see its own id echoed.
  constexpr int kClients = 8;
  obs::StartTracing();
  std::vector<std::string> echoed(kClients);
  std::vector<std::string> expected(kClients);
  {
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (int i = 0; i < kClients; ++i) {
      clients.emplace_back([this, i, &echoed, &expected] {
        const uint64_t trace = obs::MintTraceId();
        expected[i] = obs::TraceIdToHex(trace);
        obs::ScopedTraceId scope(trace);
        bool shutdown = false;
        auto submitted = Json::Parse(protocol_.Handle(
            R"({"op":"submit","dataset":"fig5","action":"risk"})", &shutdown));
        ASSERT_TRUE(submitted.ok());
        auto result = Json::Parse(protocol_.Handle(
            R"({"op":"result","id":)" +
                std::to_string(submitted->GetInt("id", 0)) + "}",
            &shutdown));
        ASSERT_TRUE(result.ok());
        echoed[i] = result->GetString("job_trace_id", "");
      });
    }
    for (std::thread& t : clients) t.join();
  }
  obs::StopTracing();

  // Each client got its own trace back, and all ids are distinct.
  std::set<std::string> distinct;
  for (int i = 0; i < kClients; ++i) {
    EXPECT_EQ(echoed[i], expected[i]) << "client " << i;
    distinct.insert(expected[i]);
  }
  EXPECT_EQ(distinct.size(), static_cast<size_t>(kClients));

  // Every serve.job / serve.queue_wait span maps to exactly one request.
  std::set<std::string> span_traces;
  size_t job_spans = 0;
  for (const obs::SpanEvent& s : obs::CollectSpans()) {
    const std::string name = s.name;
    if (name != "serve.job" && name != "serve.queue_wait") continue;
    const std::string hex = obs::TraceIdToHex(s.trace);
    EXPECT_EQ(distinct.count(hex), 1u)
        << name << " span with unknown trace " << hex;
    span_traces.insert(hex);
    if (name == "serve.job") ++job_spans;
  }
  EXPECT_EQ(job_spans, static_cast<size_t>(kClients));
  EXPECT_EQ(span_traces.size(), static_cast<size_t>(kClients));
}

TEST_F(ServeTelemetryTest, TracingDoesNotChangeAnonymizationBytes) {
  const Json untraced = SubmitAndWait("anonymize");
  ASSERT_EQ(untraced.GetString("state", ""), "done") << untraced.Dump();
  obs::StartTracing();
  const Json traced = SubmitAndWait("anonymize");
  obs::StopTracing();
  ASSERT_EQ(traced.GetString("state", ""), "done") << traced.Dump();
  EXPECT_EQ(traced.GetString("csv", ""), untraced.GetString("csv", ""));
  EXPECT_EQ(traced.GetString("audit", ""), untraced.GetString("audit", ""));
}

}  // namespace
}  // namespace vadasa::serve
