#include "serve/scheduler.h"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <vector>

#include "common/csv.h"
#include "core/datagen.h"
#include "core/delta.h"
#include "obs/metrics.h"
#include "serve/dataset_registry.h"

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
  auto direct = Fig5Session().Risk();
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(risk->risk.tuple_risks, direct->tuple_risks);

  auto anon = scheduler.Wait(*anon_id);
  ASSERT_TRUE(anon.ok());
  EXPECT_EQ(anon->state, JobState::kDone);
  auto direct_anon = Fig5Session().Anonymize();
  ASSERT_TRUE(direct_anon.ok());
  EXPECT_EQ(WriteCsv(anon->anonymize.table.ToCsv()),
            WriteCsv(direct_anon->table.ToCsv()));
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
  scheduler.Shutdown(/*drain=*/true);
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
  scheduler.Shutdown(/*drain=*/true);
  for (uint64_t id : ids) {
    auto result = scheduler.Peek(id);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->state, JobState::kDone) << "job " << id;
    EXPECT_GT(result->anonymize.table.num_rows(), 0u);
  }
  EXPECT_EQ(scheduler.queue_depth(), 0u);
}

TEST(JobSchedulerTest, ShutdownWithoutDrainCancelsQueuedJobs) {
  SchedulerOptions options;
  options.start_paused = true;
  JobScheduler scheduler(options);
  auto id = scheduler.Submit(RiskJob(Fig5Session()));
  ASSERT_TRUE(id.ok());
  scheduler.Shutdown(/*drain=*/false);
  auto result = scheduler.Peek(*id);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->state, JobState::kCancelled);
  EXPECT_EQ(result->status.code(), StatusCode::kCancelled);
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
  scheduler.Shutdown(/*drain=*/true);
  auto low_result = scheduler.Peek(*low);
  auto high_result = scheduler.Peek(*high);
  ASSERT_TRUE(low_result.ok());
  ASSERT_TRUE(high_result.ok());
  // One worker: the high-priority job runs first, so the low one's queue
  // wait includes the high one's run time.
  EXPECT_GE(low_result->queue_seconds, high_result->queue_seconds);
  EXPECT_EQ(low_result->state, JobState::kDone);
  EXPECT_EQ(high_result->state, JobState::kDone);
}

TEST(JobSchedulerTest, UnknownIdsReportNotFound) {
  JobScheduler scheduler;
  EXPECT_EQ(scheduler.State(42).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(scheduler.Peek(42).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(scheduler.Wait(42).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(scheduler.Cancel(42).code(), StatusCode::kNotFound);
}

TEST(JobSchedulerTest, ConcurrentJobsMatchSequentialFacadeCalls) {
  const int kJobs = 8;
  // Sequential reference.
  std::vector<std::string> expected_csv;
  std::vector<std::vector<double>> expected_risks;
  for (int i = 0; i < kJobs; ++i) {
    auto anon = Fig5Session().Anonymize();
    ASSERT_TRUE(anon.ok());
    expected_csv.push_back(WriteCsv(anon->table.ToCsv()));
    auto risk = Fig5Session().Risk();
    ASSERT_TRUE(risk.ok());
    expected_risks.push_back(risk->tuple_risks);
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
    EXPECT_EQ(WriteCsv(a->anonymize.table.ToCsv()), expected_csv[i]);
    auto r = scheduler.Wait(risk_ids[i]);
    ASSERT_TRUE(r.ok());
    ASSERT_EQ(r->state, JobState::kDone);
    EXPECT_EQ(r->risk.tuple_risks, expected_risks[i]);
  }
}

TEST(JobSchedulerTest, WarmupCoalescesAcrossJobsOnSharedDataset) {
#ifdef VADASA_DISABLE_OBS
  GTEST_SKIP() << "the group-index counters are compiled out";
#endif
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
  auto cold = Fig5Session().Risk();
  ASSERT_TRUE(cold.ok());
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
    EXPECT_EQ(result->risk.tuple_risks, cold->tuple_risks);
  }
  EXPECT_EQ(warmups->value() - warmups_before, 1u);
  EXPECT_EQ(partitions->value() - partitions_before, 1u);

  // The next version inherits a delta-patched index: a job on it builds
  // nothing, and its risks equal a cold session over the post-delta table.
  core::DeltaBatchBuilder builder(Figure5Microdata().num_columns());
  std::vector<Value> row = Figure5Microdata().row(1);
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
  auto expected = reference->Risk();
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(result->risk.tuple_risks, expected->tuple_risks);
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
  scheduler.Shutdown(/*drain=*/true);
  EXPECT_EQ(registry.counter("serve.completed")->value() - completed_before, 1u);
  EXPECT_EQ(registry.counter("serve.rejected")->value() - rejected_before, 1u);
}

}  // namespace
}  // namespace vadasa::serve
