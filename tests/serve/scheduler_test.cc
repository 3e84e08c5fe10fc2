#include "serve/scheduler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "core/datagen.h"
#include "core/delta.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/dataset_registry.h"
#include "serve/result_cache.h"

namespace vadasa::serve {
namespace {

using core::Figure5Microdata;

api::Session Fig5Session(int k = 2) {
  api::SessionOptions options;
  options.k = k;
  auto session = api::Session::FromTable(Figure5Microdata(), options);
  EXPECT_TRUE(session.ok()) << session.status().ToString();
  return std::move(*session);
}

JobRequest RiskJob(api::Session session) {
  JobRequest request;
  request.session = std::move(session);
  request.action = JobAction::kRisk;
  return request;
}

JobRequest AnonJob(api::Session session) {
  JobRequest request;
  request.session = std::move(session);
  request.action = JobAction::kAnonymize;
  return request;
}

/// The payloads of the direct facade calls a RiskJob / AnonJob makes.
std::string DirectRisk(const api::Session& session = Fig5Session()) {
  auto report = session.Risk(/*quantile=*/-1.0, /*explain=*/false);
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  return report.ok() ? EncodeResult(*report) : "";
}

std::string DirectRelease() {
  auto response = Fig5Session().Anonymize();
  EXPECT_TRUE(response.ok()) << response.status().ToString();
  return response.ok() ? EncodeResult(*response) : "";
}

TEST(JobSchedulerTest, RunsRiskAndAnonymizeJobs) {
  JobScheduler scheduler;
  auto risk_id = scheduler.Submit(RiskJob(Fig5Session()));
  auto anon_id = scheduler.Submit(AnonJob(Fig5Session()));
  ASSERT_TRUE(risk_id.ok());
  ASSERT_TRUE(anon_id.ok());

  auto risk = scheduler.Wait(*risk_id);
  ASSERT_TRUE(risk.ok());
  EXPECT_EQ(risk->state, JobState::kDone);
  EXPECT_TRUE(risk->status.ok());
  ASSERT_NE(risk->payload, nullptr);
  EXPECT_EQ(*risk->payload, DirectRisk());

  auto anon = scheduler.Wait(*anon_id);
  ASSERT_TRUE(anon.ok());
  EXPECT_EQ(anon->state, JobState::kDone);
  ASSERT_NE(anon->payload, nullptr);
  EXPECT_EQ(*anon->payload, DirectRelease());
}

TEST(JobSchedulerTest, SaturationRejectsInsteadOfBlocking) {
  SchedulerOptions options;
  options.workers = 1;
  options.max_queue = 2;
  options.start_paused = true;  // Nothing runs: the queue stays full.
  JobScheduler scheduler(options);

  ASSERT_TRUE(scheduler.Submit(RiskJob(Fig5Session())).ok());
  ASSERT_TRUE(scheduler.Submit(RiskJob(Fig5Session())).ok());
  EXPECT_EQ(scheduler.queue_depth(), 2u);

  const auto before = std::chrono::steady_clock::now();
  auto rejected = scheduler.Submit(RiskJob(Fig5Session()));
  const auto elapsed = std::chrono::steady_clock::now() - before;
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kUnavailable);
  // Rejection is immediate — admission control never blocks the caller.
  EXPECT_LT(std::chrono::duration<double>(elapsed).count(), 1.0);
  EXPECT_EQ(scheduler.queue_depth(), 2u);

  // The admitted jobs still complete once execution starts.
  scheduler.Resume();
  scheduler.Shutdown();
  for (uint64_t id : {uint64_t{1}, uint64_t{2}}) {
    auto result = scheduler.Peek(id);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->state, JobState::kDone);
  }
}

TEST(JobSchedulerTest, ShutdownDrainsQueuedJobs) {
  SchedulerOptions options;
  options.workers = 2;
  options.start_paused = true;
  JobScheduler scheduler(options);
  std::vector<uint64_t> ids;
  for (int i = 0; i < 3; ++i) {
    auto id = scheduler.Submit(AnonJob(Fig5Session()));
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  // Drain: queued jobs execute to completion even though they never started
  // before shutdown was requested.
  scheduler.Shutdown();
  for (uint64_t id : ids) {
    auto result = scheduler.Peek(id);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->state, JobState::kDone) << "job " << id;
    ASSERT_NE(result->payload, nullptr);
    EXPECT_EQ(*result->payload, DirectRelease());
  }
  EXPECT_EQ(scheduler.queue_depth(), 0u);
}

TEST(JobSchedulerTest, SubmitAfterShutdownIsRejected) {
  JobScheduler scheduler;
  scheduler.Shutdown();
  auto id = scheduler.Submit(RiskJob(Fig5Session()));
  ASSERT_FALSE(id.ok());
  EXPECT_EQ(id.status().code(), StatusCode::kUnavailable);
}

TEST(JobSchedulerTest, CancelQueuedJob) {
  SchedulerOptions options;
  options.start_paused = true;
  JobScheduler scheduler(options);
  auto id = scheduler.Submit(RiskJob(Fig5Session()));
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(scheduler.Cancel(*id).ok());
  EXPECT_EQ(scheduler.queue_depth(), 0u);
  scheduler.Resume();
  auto result = scheduler.Wait(*id);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->state, JobState::kCancelled);
}

TEST(JobSchedulerTest, QueuedDeadlineExpires) {
  SchedulerOptions options;
  options.start_paused = true;
  JobScheduler scheduler(options);
  JobOptions job_options;
  job_options.timeout_seconds = 0.005;
  auto id = scheduler.Submit(RiskJob(Fig5Session()), job_options);
  ASSERT_TRUE(id.ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  scheduler.Resume();
  auto result = scheduler.Wait(*id);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->state, JobState::kExpired);
  EXPECT_EQ(result->status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(result->payload, nullptr);
}

TEST(JobSchedulerTest, TimeoutOutsideItsBoundIsRefusedBeforeTheCacheProbe) {
  ResultCache cache;
  SchedulerOptions options;
  options.result_cache = &cache;
  JobScheduler scheduler(options);
  JobRequest fill = RiskJob(Fig5Session());
  fill.cache_key = "fig5|risk";
  auto filled = scheduler.Submit(std::move(fill));
  ASSERT_TRUE(filled.ok());
  ASSERT_TRUE(scheduler.Wait(*filled).ok());

  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const double timeout : {std::numeric_limits<double>::quiet_NaN(), kInf, -kInf, -1.0,
                               1e10, 9.223372e9}) {
    JobRequest hit = RiskJob(Fig5Session());
    hit.cache_key = "fig5|risk";
    JobOptions job_options;
    job_options.timeout_seconds = timeout;
    auto id = scheduler.Submit(std::move(hit), job_options);
    ASSERT_FALSE(id.ok()) << timeout;
    EXPECT_EQ(id.status().code(), StatusCode::kInvalidArgument) << timeout;
  }
  JobOptions longest;
  longest.timeout_seconds = kMaxTimeoutSeconds;
  auto id = scheduler.Submit(RiskJob(Fig5Session()), longest);
  ASSERT_TRUE(id.ok());
  auto result = scheduler.Wait(*id);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->state, JobState::kDone);
}

TEST(JobSchedulerTest, PriorityRunsFirstOnASingleWorker) {
  SchedulerOptions options;
  options.workers = 1;
  options.start_paused = true;
  JobScheduler scheduler(options);
  JobOptions relaxed;
  relaxed.priority = 0;
  auto low = scheduler.Submit(RiskJob(Fig5Session()), relaxed);
  JobOptions urgent;
  urgent.priority = 5;
  auto high = scheduler.Submit(RiskJob(Fig5Session()), urgent);
  ASSERT_TRUE(low.ok());
  ASSERT_TRUE(high.ok());
  scheduler.Resume();
  scheduler.Shutdown();
  auto low_result = scheduler.Peek(*low);
  auto high_result = scheduler.Peek(*high);
  ASSERT_TRUE(low_result.ok());
  ASSERT_TRUE(high_result.ok());
  // One worker: the high-priority job runs first, so the low one's queue
  // wait includes the high one's run time.
  EXPECT_GE(low_result->queued_ns, high_result->queued_ns);
  EXPECT_EQ(low_result->state, JobState::kDone);
  EXPECT_EQ(high_result->state, JobState::kDone);
}

TEST(JobSchedulerTest, ExtremePrioritiesQueueAndCancel) {
  // The protocol admits any int priority; INT_MIN must order (and be found
  // again by Cancel) without negating out of range.
  SchedulerOptions options;
  options.workers = 1;
  options.start_paused = true;
  JobScheduler scheduler(options);
  JobOptions lowest;
  lowest.priority = std::numeric_limits<int>::min();
  JobOptions highest;
  highest.priority = std::numeric_limits<int>::max();
  auto low = scheduler.Submit(RiskJob(Fig5Session()), lowest);
  auto high = scheduler.Submit(RiskJob(Fig5Session()), highest);
  ASSERT_TRUE(low.ok());
  ASSERT_TRUE(high.ok());
  EXPECT_TRUE(scheduler.Cancel(*low).ok());
  scheduler.Resume();
  scheduler.Shutdown();
  auto low_result = scheduler.Peek(*low);
  auto high_result = scheduler.Peek(*high);
  ASSERT_TRUE(low_result.ok());
  ASSERT_TRUE(high_result.ok());
  EXPECT_EQ(low_result->state, JobState::kCancelled);
  EXPECT_EQ(high_result->state, JobState::kDone);
}

TEST(JobSchedulerTest, EveryWorkerServesOneHotDataset) {
  // One ready queue: an idle worker takes the next job whatever its dataset,
  // so three jobs on one dataset run on three workers at once.
  failpoint::ScopedFailpoints slow_runs("serve.scheduler.run=delay(300)");
  SchedulerOptions options;
  options.workers = 3;
  JobScheduler scheduler(options);
  std::vector<uint64_t> ids;
  for (int i = 0; i < 3; ++i) {
    JobRequest request = RiskJob(Fig5Session());
    request.label = "hot";
    auto id = scheduler.Submit(std::move(request));
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    ids.push_back(*id);
  }
  // Poll until all three run at once, or until all have finished.
  size_t most_running = 0;
  for (size_t finished = 0; most_running < ids.size() && finished < ids.size();) {
    size_t running = 0;
    finished = 0;
    for (uint64_t id : ids) {
      auto result = scheduler.Peek(id);
      ASSERT_TRUE(result.ok());
      running += result->state == JobState::kRunning;
      finished += result->state != JobState::kQueued && result->state != JobState::kRunning;
    }
    most_running = std::max(most_running, running);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(most_running, ids.size()) << "jobs on one dataset ran on fewer workers";
  for (uint64_t id : ids) {
    auto result = scheduler.Wait(id);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->state, JobState::kDone) << result->status.ToString();
  }
}

TEST(JobSchedulerTest, UnknownIdsReportNotFound) {
  JobScheduler scheduler;
  EXPECT_EQ(scheduler.Peek(42).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(scheduler.Wait(42).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(scheduler.Cancel(42).code(), StatusCode::kNotFound);
}

TEST(JobSchedulerTest, ConcurrentJobsMatchSequentialFacadeCalls) {
  const int kJobs = 8;
  // Sequential reference.
  std::vector<std::string> expected_release, expected_risk;
  for (int i = 0; i < kJobs; ++i) {
    expected_release.push_back(DirectRelease());
    expected_risk.push_back(DirectRisk());
  }
  SchedulerOptions options;
  options.workers = 4;
  JobScheduler scheduler(options);
  std::vector<uint64_t> anon_ids, risk_ids;
  for (int i = 0; i < kJobs; ++i) {
    auto a = scheduler.Submit(AnonJob(Fig5Session()));
    auto r = scheduler.Submit(RiskJob(Fig5Session()));
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(r.ok());
    anon_ids.push_back(*a);
    risk_ids.push_back(*r);
  }
  for (int i = 0; i < kJobs; ++i) {
    auto a = scheduler.Wait(anon_ids[i]);
    ASSERT_TRUE(a.ok());
    ASSERT_EQ(a->state, JobState::kDone) << a->status.ToString();
    EXPECT_EQ(*a->payload, expected_release[i]);
    auto r = scheduler.Wait(risk_ids[i]);
    ASSERT_TRUE(r.ok());
    ASSERT_EQ(r->state, JobState::kDone);
    EXPECT_EQ(*r->payload, expected_risk[i]);
  }
}

TEST(JobSchedulerTest, WarmupCoalescesAcrossJobsOnSharedDataset) {
  auto& metrics = obs::MetricsRegistry::Global();
  obs::Counter* warmups = metrics.counter("serve.batch.warmups");
  obs::Counter* partitions = metrics.counter("group_index.partitions_built");
  obs::Counter* index_applies = metrics.counter("delta.index_applies");

  // Every session opened on one registry version shares its warm state: six
  // concurrent risk jobs build the version's index once between them, and
  // each job's risk report reads it instead of grouping again.
  DatasetRegistry registry;
  ASSERT_TRUE(registry.Register("fig5", Figure5Microdata()).ok());
  SchedulerOptions options;
  options.workers = 4;
  options.start_paused = true;
  JobScheduler scheduler(options);
  const std::string cold = DirectRisk();
  const uint64_t warmups_before = warmups->value();
  const uint64_t partitions_before = partitions->value();
  std::vector<uint64_t> ids;
  for (int i = 0; i < 6; ++i) {
    auto session = registry.OpenSession("fig5", {});
    ASSERT_TRUE(session.ok());
    auto id = scheduler.Submit(RiskJob(std::move(*session)));
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  scheduler.Resume();
  for (uint64_t id : ids) {
    auto result = scheduler.Wait(id);
    ASSERT_TRUE(result.ok());
    ASSERT_EQ(result->state, JobState::kDone) << result->status.ToString();
    EXPECT_EQ(*result->payload, cold);
  }
  EXPECT_EQ(warmups->value() - warmups_before, 1u);
  EXPECT_EQ(partitions->value() - partitions_before, 1u);

  // The next version inherits a delta-patched index: a job on it builds
  // nothing, and its risks equal a cold session over the post-delta table.
  core::DeltaBatchBuilder builder(Figure5Microdata().num_columns());
  const core::MicrodataTable figure5 = Figure5Microdata();
  const std::span<const Value> source = figure5.row(1);
  std::vector<Value> row(source.begin(), source.end());
  row[2] = Value::Null(77);
  builder.Update(1, std::move(row));
  auto batch = builder.Build();
  ASSERT_TRUE(batch.ok());
  const uint64_t applies_before = index_applies->value();
  auto next = registry.ApplyDelta("fig5", *batch);
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  EXPECT_EQ(index_applies->value() - applies_before, 1u);
  auto session = registry.OpenSession("fig5", {});
  ASSERT_TRUE(session.ok());
  const uint64_t warmups_mid = warmups->value();
  const uint64_t partitions_mid = partitions->value();
  auto id = scheduler.Submit(RiskJob(std::move(*session)));
  ASSERT_TRUE(id.ok());
  auto result = scheduler.Wait(*id);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->state, JobState::kDone) << result->status.ToString();
  EXPECT_EQ(warmups->value(), warmups_mid);
  EXPECT_EQ(partitions->value(), partitions_mid);
  auto reference = api::Session::FromTable(*(*next)->table, {});
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(*result->payload, DirectRisk(*reference));
}

TEST(JobSchedulerTest, ConcurrentWarmReleasesShareOneGrouping) {
  obs::Counter* partitions =
      obs::MetricsRegistry::Global().counter("group_index.partitions_built");
  // The serve benchmark's three cache-fill policies, twice each, as
  // concurrent anonymize jobs on one registry version: the warmup groups the
  // version once, and every release copies that index instead of grouping.
  const core::MicrodataTable table = core::GenerateInflationGrowth(
      "published", 1500, 4, core::DistributionKind::kUnbalanced, 5);
  const std::pair<const char*, int> kPolicies[] = {
      {"k-anonymity", 2}, {"k-anonymity", 3}, {"reidentification", 2}};
  std::vector<std::string> cold;
  for (const auto& [measure, k] : kPolicies) {
    api::SessionOptions options;
    options.risk_measure = measure;
    options.k = k;
    auto session = api::Session::FromTable(table, options);
    ASSERT_TRUE(session.ok());
    auto response = session->Anonymize();
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    cold.push_back(EncodeResult(*response));
  }

  DatasetRegistry registry;
  ASSERT_TRUE(registry.Register("published", table).ok());
  SchedulerOptions options;
  options.workers = 4;
  options.start_paused = true;
  JobScheduler scheduler(options);
  const uint64_t partitions_before = partitions->value();
  std::vector<uint64_t> ids;
  for (int i = 0; i < 6; ++i) {
    api::SessionOptions policy;
    policy.risk_measure = kPolicies[i % 3].first;
    policy.k = kPolicies[i % 3].second;
    auto session = registry.OpenSession("published", policy);
    ASSERT_TRUE(session.ok());
    auto id = scheduler.Submit(AnonJob(std::move(*session)));
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  scheduler.Resume();
  for (int i = 0; i < 6; ++i) {
    auto result = scheduler.Wait(ids[i]);
    ASSERT_TRUE(result.ok());
    ASSERT_EQ(result->state, JobState::kDone) << result->status.ToString();
    EXPECT_EQ(*result->payload, cold[i % 3]) << "job " << i;
  }
  EXPECT_EQ(partitions->value() - partitions_before, 1u);
}

TEST(JobSchedulerTest, CacheHitSharesTheFilledBytes) {
  obs::Gauge* cache_bytes = obs::MetricsRegistry::Global().gauge("serve.cache.bytes");
  ResultCache cache;
  SchedulerOptions options;
  options.result_cache = &cache;
  JobScheduler scheduler(options);
  auto cached_release = [] {
    JobRequest request = AnonJob(Fig5Session());
    request.cache_key = "fig5|release";
    return request;
  };

  auto fill_id = scheduler.Submit(cached_release());
  ASSERT_TRUE(fill_id.ok());
  auto fill = scheduler.Wait(*fill_id);
  ASSERT_TRUE(fill.ok());
  ASSERT_EQ(fill->state, JobState::kDone) << fill->status.ToString();
  EXPECT_FALSE(fill->from_cache);
  ASSERT_NE(fill->payload, nullptr);
  EXPECT_EQ(*fill->payload, DirectRelease());
  // The entry costs exactly its stored bytes plus its key.
  EXPECT_EQ(cache.bytes(), fill->payload->size() + std::string("fig5|release").size());
  const double bytes_after_fill = cache_bytes->value();

  // The hit serves the very string the fill encoded: no copy, no re-encoding,
  // and the cache holds no more bytes than before.
  auto hit_id = scheduler.Submit(cached_release());
  ASSERT_TRUE(hit_id.ok());
  auto hit = scheduler.Wait(*hit_id);
  ASSERT_TRUE(hit.ok());
  ASSERT_EQ(hit->state, JobState::kDone);
  EXPECT_TRUE(hit->from_cache);
  EXPECT_EQ(hit->payload.get(), fill->payload.get());
  EXPECT_EQ(cache_bytes->value(), bytes_after_fill);
  // Every later read of either job shares it too.
  auto peeked = scheduler.Peek(*fill_id);
  ASSERT_TRUE(peeked.ok());
  EXPECT_EQ(peeked->payload.get(), fill->payload.get());
}

TEST(JobSchedulerTest, JobSpanIsRecordedBeforeWaitReturns) {
  // A job's serve.job span closes before its terminal state is published, so
  // a client whose Wait returns always finds it among the recorded spans.
  JobScheduler scheduler;
  const api::Session session = Fig5Session();
  obs::StartTracing();
  int missing = 0;
  for (int i = 0; i < 200; ++i) {
    const uint64_t trace = obs::MintTraceId();
    auto id = [&] {
      obs::ScopedTraceId scope(trace);
      return scheduler.Submit(RiskJob(session));
    }();
    if (!id.ok()) {
      ADD_FAILURE() << id.status().ToString();
      break;
    }
    auto result = scheduler.Wait(*id);
    EXPECT_TRUE(result.ok() && result->state == JobState::kDone) << "job " << i;
    const std::vector<obs::SpanEvent> spans = obs::CollectSpans();
    if (std::none_of(spans.begin(), spans.end(), [&](const obs::SpanEvent& span) {
          return span.trace == trace && std::string(span.name) == "serve.job";
        })) {
      ++missing;
    }
  }
  obs::StopTracing();
  EXPECT_EQ(missing, 0) << "jobs whose serve.job span was not recorded when Wait returned";
}

TEST(JobSchedulerTest, MetricsCountOutcomes) {
  auto& registry = obs::MetricsRegistry::Global();
  const uint64_t completed_before =
      registry.counter("serve.completed")->value();
  const uint64_t rejected_before = registry.counter("serve.rejected")->value();
  SchedulerOptions options;
  options.workers = 1;
  options.max_queue = 1;
  options.start_paused = true;
  JobScheduler scheduler(options);
  ASSERT_TRUE(scheduler.Submit(RiskJob(Fig5Session())).ok());
  ASSERT_FALSE(scheduler.Submit(RiskJob(Fig5Session())).ok());
  scheduler.Resume();
  scheduler.Shutdown();
  EXPECT_EQ(registry.counter("serve.completed")->value() - completed_before, 1u);
  EXPECT_EQ(registry.counter("serve.rejected")->value() - rejected_before, 1u);
}

}  // namespace
}  // namespace vadasa::serve
