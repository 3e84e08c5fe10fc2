// Fault-hardening tests (docs/robustness.md): per-client quotas and backoff
// hints, the overdue-job watchdog, registry quarantine, bounded graceful
// drain, and the socket server's oversized-line / dead-peer handling driven
// end-to-end through real failpoints and real Unix sockets.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/csv.h"
#include "common/failpoint.h"
#include "common/json.h"
#include "core/datagen.h"
#include "obs/metrics.h"
#include "obs/request_log.h"
#include "serve/dataset_registry.h"
#include "serve/protocol.h"
#include "serve/quota.h"
#include "serve/scheduler.h"
#include "serve/server.h"

namespace vadasa::serve {
namespace {

using core::Figure5Microdata;

api::Session Fig5Session() {
  api::SessionOptions options;
  options.k = 2;
  auto session = api::Session::FromTable(Figure5Microdata(), options);
  EXPECT_TRUE(session.ok()) << session.status().ToString();
  return std::move(*session);
}

JobRequest RiskJob() {
  JobRequest request;
  request.session = Fig5Session();
  request.action = JobAction::kRisk;
  return request;
}

uint64_t CounterValue(const char* name) {
  return obs::MetricsRegistry::Global().counter(name)->value();
}

/// Arms `spec` for the test body and guarantees disarm on exit.
class RobustnessTest : public ::testing::Test {
 protected:
  void TearDown() override { failpoint::DisarmAll(); }
};

// --- ClientQuota ------------------------------------------------------------

TEST_F(RobustnessTest, InFlightCapRejectsImmediatelyNeverBlocks) {
  QuotaOptions options;
  options.max_in_flight = 2;
  ClientQuota quota(options);
  EXPECT_TRUE(quota.Admit().ok());
  EXPECT_TRUE(quota.Admit().ok());
  const auto before = std::chrono::steady_clock::now();
  const Status rejected = quota.Admit();
  const auto elapsed = std::chrono::steady_clock::now() - before;
  EXPECT_EQ(rejected.code(), StatusCode::kUnavailable);
  EXPECT_LT(elapsed, std::chrono::milliseconds(100));
  EXPECT_EQ(quota.in_flight(), 2);
  quota.Release();
  EXPECT_TRUE(quota.Admit().ok());
}

TEST_F(RobustnessTest, RateLimitRefillsOnInjectedClock) {
  QuotaOptions options;
  options.submits_per_second = 1.0;  // burst defaults to 1 token.
  int64_t now_ns = 0;
  ClientQuota quota(options, [&now_ns] { return now_ns; });
  EXPECT_TRUE(quota.Admit().ok());
  const Status rejected = quota.Admit();
  EXPECT_EQ(rejected.code(), StatusCode::kUnavailable);
  now_ns += 1'000'000'000;  // One second refills one token.
  EXPECT_TRUE(quota.Admit().ok());
  EXPECT_FALSE(quota.Admit().ok());
}

TEST_F(RobustnessTest, QuotaStateIsPerConnection) {
  QuotaOptions options;
  options.max_in_flight = 1;
  options.submits_per_second = 1.0;
  ClientQuota first(options);
  EXPECT_TRUE(first.Admit().ok());
  EXPECT_FALSE(first.Admit().ok());
  // A new connection builds a new ClientQuota: fresh bucket, fresh slots.
  ClientQuota second(options);
  EXPECT_TRUE(second.Admit().ok());
}

TEST_F(RobustnessTest, RetryAfterMsIsMonotoneNonNegativeAndCapped) {
  int64_t previous = -1;
  for (size_t depth = 0; depth <= 4096; depth += 64) {
    const int64_t hint = RetryAfterMs(depth, 4);
    EXPECT_GE(hint, 0);
    EXPECT_GE(hint, previous) << "not monotone at depth " << depth;
    EXPECT_LE(hint, 10000);
    previous = hint;
  }
  EXPECT_EQ(RetryAfterMs(0, 0), RetryAfterMs(0, 1));  // workers=0 is safe.
  EXPECT_EQ(RetryAfterMs(1u << 20, 1), 10000);
}

TEST_F(RobustnessTest, SchedulerReturnsQuotaSlotOnTerminalJob) {
  QuotaOptions quota_options;
  quota_options.max_in_flight = 1;
  ClientQuota quota(quota_options);
  SchedulerOptions options;
  options.workers = 1;
  options.start_paused = true;
  JobScheduler scheduler(options);

  ASSERT_TRUE(quota.Admit().ok());
  JobOptions job_options;
  job_options.quota_slot = quota.in_flight_cell();
  auto id = scheduler.Submit(RiskJob(), job_options);
  ASSERT_TRUE(id.ok());
  // While the job is queued the slot stays held.
  EXPECT_EQ(quota.Admit().code(), StatusCode::kUnavailable);
  scheduler.Resume();
  auto result = scheduler.Wait(*id);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->state, JobState::kDone);
  EXPECT_EQ(quota.in_flight(), 0);
  EXPECT_TRUE(quota.Admit().ok());
}

TEST_F(RobustnessTest, OverQuotaSubmitGetsRetryAfterHintThroughProtocol) {
  DatasetRegistry registry;
  ASSERT_TRUE(registry.Register("fig5", Figure5Microdata()).ok());
  SchedulerOptions options;
  options.workers = 1;
  options.start_paused = true;
  JobScheduler scheduler(options);
  Protocol protocol(&registry, &scheduler);
  QuotaOptions quota_options;
  quota_options.max_in_flight = 1;
  ClientQuota quota(quota_options);

  bool shutdown = false;
  const std::string submit =
      "{\"op\":\"submit\",\"dataset\":\"fig5\",\"action\":\"risk\"}";
  auto first = Json::Parse(protocol.Handle(submit, &shutdown, &quota));
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(first->GetBool("ok", false)) << first->Dump();

  auto second = Json::Parse(protocol.Handle(submit, &shutdown, &quota));
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(second->GetBool("ok", true));
  EXPECT_EQ(second->GetString("code", ""), "Unavailable");
  ASSERT_TRUE(second->Has("retry_after_ms")) << second->Dump();
  EXPECT_GE(second->GetInt("retry_after_ms", -1), 0);

  scheduler.Resume();
  const uint64_t id = static_cast<uint64_t>(first->GetInt("id", 0));
  auto result = scheduler.Wait(id);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->state, JobState::kDone);
  // The terminal job returned the slot: the same connection may submit again.
  auto third = Json::Parse(protocol.Handle(submit, &shutdown, &quota));
  ASSERT_TRUE(third.ok());
  EXPECT_TRUE(third->GetBool("ok", false)) << third->Dump();
  scheduler.Shutdown();
}

TEST_F(RobustnessTest, UncappedQuotasCountEveryUnfinishedJob) {
  // No cap at all (vadasa_serve's default) and a rate cap alone: Admit still
  // reserves the slot the scheduler returns when each job ends.
  QuotaOptions rate_only;
  rate_only.submits_per_second = 1000.0;
  for (const QuotaOptions& quota_options : {QuotaOptions{}, rate_only}) {
    SCOPED_TRACE(quota_options.submits_per_second > 0.0 ? "rate only" : "none");
    DatasetRegistry registry;
    ASSERT_TRUE(registry.Register("fig5", Figure5Microdata()).ok());
    SchedulerOptions options;
    options.workers = 1;
    options.start_paused = true;
    JobScheduler scheduler(options);
    Protocol protocol(&registry, &scheduler);
    ClientQuota quota(quota_options);
    constexpr int kJobs = 3;
    std::vector<uint64_t> ids;
    for (int i = 0; i < kJobs; ++i) {
      bool shutdown = false;
      auto submitted = Json::Parse(protocol.Handle(
          "{\"op\":\"submit\",\"dataset\":\"fig5\",\"action\":\"risk\"}",
          &shutdown, &quota));
      ASSERT_TRUE(submitted.ok() && submitted->GetBool("ok", false));
      ids.push_back(static_cast<uint64_t>(submitted->GetInt("id", 0)));
    }
    EXPECT_EQ(quota.in_flight(), kJobs);
    scheduler.Resume();
    for (const uint64_t id : ids) {
      auto result = scheduler.Wait(id);
      ASSERT_TRUE(result.ok());
      EXPECT_EQ(result->state, JobState::kDone);
    }
    EXPECT_EQ(quota.in_flight(), 0);
    scheduler.Shutdown();
  }

  // A rate refusal hands its reservation back.
  QuotaOptions one_token;
  one_token.submits_per_second = 1.0;
  int64_t now_ns = 0;
  ClientQuota quota(one_token, [&now_ns] { return now_ns; });
  ASSERT_TRUE(quota.Admit().ok());
  EXPECT_EQ(quota.Admit().code(), StatusCode::kUnavailable);
  EXPECT_EQ(quota.in_flight(), 1);
  quota.Release();
  EXPECT_EQ(quota.in_flight(), 0);
}

// --- Watchdog ---------------------------------------------------------------

TEST_F(RobustnessTest, WatchdogFlagsOverdueJobExactlyOnce) {
  const std::string log_path = ::testing::TempDir() + "watchdog_slow.ndjson";
  std::remove(log_path.c_str());
  // Threshold high enough that only the watchdog's forced entry can land.
  obs::RequestLog slow_log(log_path, 1e12);
  ASSERT_TRUE(slow_log.ok());

  SchedulerOptions options;
  options.workers = 1;
  options.watchdog_interval_ms = 5;
  options.slow_log = &slow_log;
  JobScheduler scheduler(options);

  // The injected delay keeps the job running far past its deadline while the
  // watchdog scans every 5ms: a 10ms deadline is overdue at 30ms, well inside
  // the 150ms delay.
  ASSERT_TRUE(failpoint::ArmFromSpec("serve.scheduler.run=delay(150)").ok());
  const uint64_t flagged_before = CounterValue("serve.watchdog.flagged");
  JobOptions job_options;
  job_options.timeout_seconds = 0.01;
  auto id = scheduler.Submit(RiskJob(), job_options);
  ASSERT_TRUE(id.ok());
  auto result = scheduler.Wait(*id);
  ASSERT_TRUE(result.ok());
  // The deadline or the watchdog's cancel escalation unwinds the job —
  // either way it is terminal and non-successful.
  EXPECT_TRUE(result->state == JobState::kExpired ||
              result->state == JobState::kCancelled)
      << JobStateToString(result->state);
  // A few more scan intervals: a re-flagging bug would show up here.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_EQ(CounterValue("serve.watchdog.flagged") - flagged_before, 1u);

  scheduler.Shutdown();
  std::ifstream log(log_path);
  std::stringstream contents;
  contents << log.rdbuf();
  EXPECT_NE(contents.str().find("\"outcome\": \"overdue\""), std::string::npos)
      << contents.str();
}

TEST_F(RobustnessTest, WatchdogIgnoresJobsWithoutDeadlines) {
  SchedulerOptions options;
  options.workers = 1;
  options.watchdog_interval_ms = 5;
  JobScheduler scheduler(options);
  ASSERT_TRUE(failpoint::ArmFromSpec("serve.scheduler.run=delay(60)").ok());
  const uint64_t flagged_before = CounterValue("serve.watchdog.flagged");
  auto id = scheduler.Submit(RiskJob());  // No timeout: never overdue.
  ASSERT_TRUE(id.ok());
  auto result = scheduler.Wait(*id);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->state, JobState::kDone);
  EXPECT_EQ(CounterValue("serve.watchdog.flagged") - flagged_before, 0u);
}

// --- Registry quarantine ----------------------------------------------------

TEST_F(RobustnessTest, RepeatedLoadFailuresQuarantineTheDataset) {
  const std::string csv_path = ::testing::TempDir() + "quarantine_fig5.csv";
  {
    std::ofstream out(csv_path);
    out << WriteCsv(Figure5Microdata().ToCsv());
  }
  DatasetRegistry registry;
  registry.set_quarantine_after(2);
  ASSERT_TRUE(failpoint::ArmFromSpec("serve.registry.load=error(io)").ok());

  EXPECT_EQ(registry.Load(csv_path).status().code(), StatusCode::kIoError);
  EXPECT_FALSE(registry.IsQuarantined(csv_path));
  EXPECT_EQ(registry.Load(csv_path).status().code(), StatusCode::kIoError);
  EXPECT_TRUE(registry.IsQuarantined(csv_path));

  // Quarantined: the structured error carries the history, and the load path
  // is not retried even after the fault clears.
  failpoint::DisarmAll();
  const Status quarantined = registry.Load(csv_path).status();
  EXPECT_EQ(quarantined.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(quarantined.message().find("quarantined after 2"),
            std::string::npos);
  EXPECT_NE(quarantined.message().find("IoError"), std::string::npos)
      << "expected the last error to be echoed: " << quarantined.message();

  registry.Clear();  // Lifts the quarantine.
  EXPECT_FALSE(registry.IsQuarantined(csv_path));
  EXPECT_TRUE(registry.Load(csv_path).ok());
  std::remove(csv_path.c_str());
}

TEST_F(RobustnessTest, SuccessfulLoadClearsTheFailureStreak) {
  const std::string csv_path = ::testing::TempDir() + "streak_fig5.csv";
  {
    std::ofstream out(csv_path);
    out << WriteCsv(Figure5Microdata().ToCsv());
  }
  DatasetRegistry registry;
  registry.set_quarantine_after(2);
  // One injected failure, then a clean load: the clean load must reset the
  // streak, so the dataset is cached and never reaches the quarantine bar.
  ASSERT_TRUE(failpoint::ArmFromSpec("serve.registry.load=every(1)").ok());
  EXPECT_FALSE(registry.Load(csv_path).ok());
  failpoint::DisarmAll();
  EXPECT_TRUE(registry.Load(csv_path).ok());
  ASSERT_TRUE(failpoint::ArmFromSpec("serve.registry.load=every(1)").ok());
  EXPECT_TRUE(registry.Load(csv_path).ok());  // Cache hit, no load attempted.
  EXPECT_FALSE(registry.IsQuarantined(csv_path));
  std::remove(csv_path.c_str());
}

// --- Bounded drain ----------------------------------------------------------

TEST_F(RobustnessTest, ShutdownWithinDrainsEverythingInsideTheBudget) {
  SchedulerOptions options;
  options.workers = 2;
  JobScheduler scheduler(options);
  std::vector<uint64_t> ids;
  for (int i = 0; i < 4; ++i) {
    auto id = scheduler.Submit(RiskJob());
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  EXPECT_TRUE(scheduler.ShutdownWithin(std::chrono::seconds(30)));
  for (const uint64_t id : ids) {
    auto result = scheduler.Peek(id);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->state, JobState::kDone);
  }
  // Admission stays closed afterwards.
  EXPECT_EQ(scheduler.Submit(RiskJob()).status().code(),
            StatusCode::kUnavailable);
}

TEST_F(RobustnessTest, ShutdownWithinCancelsWhatTheBudgetCannotCover) {
  SchedulerOptions options;
  options.workers = 1;
  JobScheduler scheduler(options);
  // Each run sleeps 200ms; with one worker the second job cannot start
  // inside a 30ms budget.
  ASSERT_TRUE(failpoint::ArmFromSpec("serve.scheduler.run=delay(200)").ok());
  auto running = scheduler.Submit(RiskJob());
  auto queued = scheduler.Submit(RiskJob());
  ASSERT_TRUE(running.ok());
  ASSERT_TRUE(queued.ok());
  // Let the worker pick up the first job before the drain begins.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));

  const auto before = std::chrono::steady_clock::now();
  EXPECT_FALSE(scheduler.ShutdownWithin(std::chrono::milliseconds(30)));
  const auto elapsed = std::chrono::steady_clock::now() - before;
  // The call may join the running job past the budget, but never hangs.
  EXPECT_LT(elapsed, std::chrono::seconds(10));

  auto queued_result = scheduler.Peek(*queued);
  ASSERT_TRUE(queued_result.ok());
  EXPECT_EQ(queued_result->state, JobState::kCancelled);
  EXPECT_EQ(queued_result->status.code(), StatusCode::kCancelled);
  EXPECT_NE(queued_result->status.message().find("drain budget"),
            std::string::npos);
  EXPECT_EQ(queued_result->payload, nullptr);
  auto running_result = scheduler.Peek(*running);
  ASSERT_TRUE(running_result.ok());
  // The running job was joined; cooperative cancel may or may not have won
  // the race with completion, but it must be terminal.
  EXPECT_NE(running_result->state, JobState::kRunning);
  EXPECT_NE(running_result->state, JobState::kQueued);
}

// --- Socket server hardening ------------------------------------------------

/// Short unique socket path (sun_path is ~108 bytes; TempDir can be long).
std::string SocketPath(const char* tag) {
  return "/tmp/vadasa_rt_" + std::to_string(::getpid()) + "_" + tag + ".sock";
}

int ConnectTo(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  EXPECT_EQ(
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)), 0)
      << std::strerror(errno);
  return fd;
}

bool SendAll(int fd, const std::string& data) {
  size_t written = 0;
  while (written < data.size()) {
    const ssize_t n = ::write(fd, data.data() + written, data.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    written += static_cast<size_t>(n);
  }
  return true;
}

/// Reads until a newline or EOF; returns everything read (no newline).
std::string ReadLine(int fd) {
  std::string line;
  char c;
  for (;;) {
    const ssize_t n = ::read(fd, &c, 1);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (n == 0 || c == '\n') break;
    line.push_back(c);
  }
  return line;
}

struct Stack {
  DatasetRegistry registry;
  JobScheduler scheduler;
  Protocol protocol{&registry, &scheduler};
};

/// Runs each socket-hardening test over both transports: the Unix path and
/// an ephemeral loopback TCP port. The NDJSON framing, quotas, failpoints
/// and refusal behavior live above the fd, so every expectation must hold
/// verbatim on both. The CI thread-sanitizer lane runs this binary
/// wholesale, so both transports get the TSan treatment for free.
class TransportTest : public RobustnessTest,
                      public ::testing::WithParamInterface<const char*> {
 protected:
  bool tcp() const { return std::string(GetParam()) == "tcp"; }

  ServerOptions TransportOptions(const char* tag) {
    ServerOptions options;
    if (tcp()) {
      auto spec = ParseListenSpec("tcp:127.0.0.1:0");
      EXPECT_TRUE(spec.ok()) << spec.status().ToString();
      options.listen = *spec;
    } else {
      options.listen.path = SocketPath(tag);
    }
    return options;
  }

  /// Connects to a started server on whichever transport it bound.
  int Connect(const Server& server) {
    if (!tcp()) return ConnectTo(server.listen_spec().path);
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(server.bound_port()));
    EXPECT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
    EXPECT_EQ(
        ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)),
        0)
        << std::strerror(errno);
    return fd;
  }
};

TEST_P(TransportTest, OversizedLineGetsOneRefusalThenClose) {
  Stack stack;
  ServerOptions options = TransportOptions("oversized");
  options.max_line_bytes = 256;
  Server server(&stack.protocol, options);
  ASSERT_TRUE(server.Start().ok());

  const uint64_t oversized_before = CounterValue("serve.conn.oversized");
  const int fd = Connect(server);
  std::string flood(1024, 'x');
  flood.push_back('\n');
  ASSERT_TRUE(SendAll(fd, flood));
  const std::string refusal = ReadLine(fd);
  auto parsed = Json::Parse(refusal);
  ASSERT_TRUE(parsed.ok()) << refusal;
  EXPECT_FALSE(parsed->GetBool("ok", true));
  EXPECT_EQ(parsed->GetString("code", ""), "LimitExceeded");
  // The server hangs up after the refusal.
  EXPECT_TRUE(ReadLine(fd).empty());
  ::close(fd);
  EXPECT_GE(CounterValue("serve.conn.oversized") - oversized_before, 1u);

  // A fresh, well-behaved connection still works: the limit is per
  // connection, not a server wedge.
  const int fd2 = Connect(server);
  ASSERT_TRUE(SendAll(fd2, "{\"op\":\"ping\"}\n"));
  auto pong = Json::Parse(ReadLine(fd2));
  ASSERT_TRUE(pong.ok());
  EXPECT_TRUE(pong->GetBool("ok", false));
  ::close(fd2);
  server.Stop();
}

TEST_P(TransportTest, InjectedWriteFailureKillsOnlyThatConnection) {
  Stack stack;
  ServerOptions options = TransportOptions("deadwrite");
  Server server(&stack.protocol, options);
  ASSERT_TRUE(server.Start().ok());

  ASSERT_TRUE(failpoint::ArmFromSpec("serve.sock.write=error(io)").ok());
  const int fd = Connect(server);
  // Two pipelined requests: the first response write fails, and the handler
  // must stop instead of computing the second on a dead socket.
  ASSERT_TRUE(SendAll(fd, "{\"op\":\"ping\"}\n{\"op\":\"ping\"}\n"));
  EXPECT_TRUE(ReadLine(fd).empty());  // EOF, no partial garbage.
  ::close(fd);

  failpoint::DisarmAll();
  const int fd2 = Connect(server);
  ASSERT_TRUE(SendAll(fd2, "{\"op\":\"ping\"}\n"));
  auto pong = Json::Parse(ReadLine(fd2));
  ASSERT_TRUE(pong.ok());
  EXPECT_TRUE(pong->GetBool("ok", false));
  ::close(fd2);
  server.Stop();
}

TEST_P(TransportTest, ShortReadsAndWritesStillDeliverIntactLines) {
  Stack stack;
  ServerOptions options = TransportOptions("short");
  Server server(&stack.protocol, options);
  ASSERT_TRUE(server.Start().ok());

  // Every server-side read and write is truncated to one byte: requests must
  // reassemble and responses must still arrive whole.
  ASSERT_TRUE(
      failpoint::ArmFromSpec(
          "serve.sock.read.short=error;serve.sock.write.short=error")
          .ok());
  const int fd = Connect(server);
  ASSERT_TRUE(SendAll(fd, "{\"op\":\"ping\"}\n"));
  auto pong = Json::Parse(ReadLine(fd));
  ASSERT_TRUE(pong.ok());
  EXPECT_TRUE(pong->GetBool("ok", false));
  EXPECT_EQ(pong->GetString("op", ""), "ping");
  ::close(fd);
  server.Stop();
}

/// This process's virtual size in KiB (the VmSize line of /proc/self/status).
int64_t VmSizeKib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmSize:", 0) == 0) return std::stoll(line.substr(7));
  }
  return 0;
}

TEST_P(TransportTest, ClosedConnectionsReleaseTheirThreadStacks) {
  Stack stack;
  Server server(&stack.protocol, TransportOptions("stacks"));
  ASSERT_TRUE(server.Start().ok());
  auto ping_and_close = [&] {
    const int fd = Connect(server);
    ASSERT_TRUE(SendAll(fd, "{\"op\":\"ping\"}\n"));
    auto pong = Json::Parse(ReadLine(fd));
    ASSERT_TRUE(pong.ok());
    EXPECT_TRUE(pong->GetBool("ok", false));
    // Wait for the server to hang up, so its handler has ended before the
    // next connection arrives.
    ::shutdown(fd, SHUT_WR);
    EXPECT_TRUE(ReadLine(fd).empty());
    ::close(fd);
  };
  ping_and_close();  // Warm-up: the first handler's malloc arena stays mapped.
  const int64_t before = VmSizeKib();
  ASSERT_GT(before, 0);
  for (int i = 0; i < 64; ++i) ping_and_close();
  // An unjoined handler thread keeps its 8 MiB stack mapped: 64 of them
  // would grow the process by about 512 MiB.
  EXPECT_LT(VmSizeKib() - before, 128 * 1024);
  server.Stop();
}

TEST_P(TransportTest, QuotaRidesTheSocketPath) {
  Stack stack;
  ServerOptions options = TransportOptions("quota");
  options.quota.max_in_flight = 1;
  Server server(&stack.protocol, options);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_TRUE(stack.registry.Register("fig5", Figure5Microdata()).ok());
  // Park the scheduler so the first submit holds its slot.
  ASSERT_TRUE(failpoint::ArmFromSpec("serve.scheduler.run=delay(100)").ok());

  const int fd = Connect(server);
  const std::string submit =
      "{\"op\":\"submit\",\"dataset\":\"fig5\",\"action\":\"risk\"}\n";
  ASSERT_TRUE(SendAll(fd, submit));
  auto first = Json::Parse(ReadLine(fd));
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(first->GetBool("ok", false)) << first->Dump();
  ASSERT_TRUE(SendAll(fd, submit));
  auto second = Json::Parse(ReadLine(fd));
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(second->GetBool("ok", true));
  EXPECT_TRUE(second->Has("retry_after_ms")) << second->Dump();
  ::close(fd);
  server.Stop();
}

INSTANTIATE_TEST_SUITE_P(Transports, TransportTest,
                         ::testing::Values("unix", "tcp"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           return std::string(info.param);
                         });

// --- Listen-spec parsing ----------------------------------------------------

TEST(ListenSpecTest, ParsesAndRoundTrips) {
  auto unix_spec = ParseListenSpec("unix:/tmp/x.sock");
  ASSERT_TRUE(unix_spec.ok());
  EXPECT_EQ(unix_spec->kind, ListenSpec::Kind::kUnix);
  EXPECT_EQ(unix_spec->path, "/tmp/x.sock");
  EXPECT_EQ(unix_spec->ToString(), "unix:/tmp/x.sock");

  auto tcp_spec = ParseListenSpec("tcp:127.0.0.1:8080");
  ASSERT_TRUE(tcp_spec.ok());
  EXPECT_EQ(tcp_spec->kind, ListenSpec::Kind::kTcp);
  EXPECT_EQ(tcp_spec->host, "127.0.0.1");
  EXPECT_EQ(tcp_spec->port, 8080);
  EXPECT_EQ(tcp_spec->ToString(), "tcp:127.0.0.1:8080");

  for (const char* bad :
       {"", "unix:", "tcp:", "tcp:localhost", "tcp:localhost:notaport",
        "tcp:localhost:70000", "http:host:1"}) {
    EXPECT_FALSE(ParseListenSpec(bad).ok()) << bad;
  }
  // Host strings parse lazily; a bad IPv4 literal is caught at Bind.
  Listener listener;
  EXPECT_FALSE(listener.Bind(*ParseListenSpec("tcp:256.0.0.1:1"), 4).ok());
}

}  // namespace
}  // namespace vadasa::serve
