#include "serve/scheduler.h"

#include <utility>

#include "common/failpoint.h"
#include "obs/metrics.h"
#include "obs/request_log.h"
#include "obs/trace.h"
#include "serve/result_cache.h"

namespace vadasa::serve {

namespace {

double SecondsBetween(std::chrono::steady_clock::time_point a,
                      std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

int64_t NsBetween(std::chrono::steady_clock::time_point a,
                  std::chrono::steady_clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

/// Steady-clock nanoseconds since epoch — the tracer's timeline, so scheduler
/// timestamps can feed obs::EmitSpan directly.
int64_t ToTraceNs(std::chrono::steady_clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             t.time_since_epoch())
      .count();
}

/// Handles resolved once; every instance meters into the global registry.
struct ServeMeters {
  obs::Counter* submitted;
  obs::Counter* admitted;
  obs::Counter* rejected;
  obs::Counter* completed;
  obs::Counter* failed;
  obs::Counter* cancelled;
  obs::Counter* expired;
  obs::Counter* warmups;
  obs::Counter* watchdog_flagged;
  obs::Gauge* queue_depth;
  obs::Gauge* running;
  obs::Gauge* workers;
  obs::Histogram* queue_wait_ms;
  obs::Histogram* job_ms;

  static ServeMeters& Get() {
    static ServeMeters* meters = [] {
      auto& registry = obs::MetricsRegistry::Global();
      auto* m = new ServeMeters();
      m->submitted = registry.counter("serve.submitted");
      m->admitted = registry.counter("serve.admitted");
      m->rejected = registry.counter("serve.rejected");
      m->completed = registry.counter("serve.completed");
      m->failed = registry.counter("serve.failed");
      m->cancelled = registry.counter("serve.cancelled");
      m->expired = registry.counter("serve.expired");
      m->warmups = registry.counter("serve.batch.warmups");
      m->watchdog_flagged = registry.counter("serve.watchdog.flagged");
      m->queue_depth = registry.gauge("serve.queue_depth");
      m->running = registry.gauge("serve.running");
      m->workers = registry.gauge("serve.workers");
      m->queue_wait_ms = registry.histogram("serve.queue_wait_ms");
      m->job_ms = registry.histogram("serve.job_ms");
      return m;
    }();
    return *meters;
  }
};

}  // namespace

std::string JobStateToString(JobState state) {
  switch (state) {
    case JobState::kQueued: return "queued";
    case JobState::kRunning: return "running";
    case JobState::kDone: return "done";
    case JobState::kFailed: return "failed";
    case JobState::kCancelled: return "cancelled";
    case JobState::kExpired: return "expired";
  }
  return "unknown";
}

struct JobScheduler::Job {
  uint64_t id = 0;
  uint64_t trace = 0;  ///< Trace id of the submitting request (0 = none).
  JobRequest request;
  JobOptions options;
  CancelToken cancel;
  JobState state = JobState::kQueued;
  Status status;
  api::RiskReport risk;
  api::AnonymizeResponse anonymize;
  std::chrono::steady_clock::time_point submitted;
  std::chrono::steady_clock::time_point started;
  double queue_seconds = 0.0;
  double run_seconds = 0.0;
  int64_t queued_ns = 0;
  int64_t run_ns = 0;
  bool watchdog_flagged = false;  ///< The watchdog flags a job at most once.
  bool from_cache = false;        ///< Completed from the result cache.
  size_t shard = 0;               ///< Ready-queue shard (label-hashed).
};

JobScheduler::JobScheduler(SchedulerOptions options) : options_(options) {
  if (options_.workers < 1) options_.workers = 1;
  if (options_.max_queue < 1) options_.max_queue = 1;
  // Every shard needs at least one dedicated worker or its queue would
  // never drain.
  if (options_.shards < 1) options_.shards = 1;
  if (options_.shards > options_.workers) options_.shards = options_.workers;
  paused_ = options_.start_paused;
  ServeMeters::Get().workers->Set(static_cast<double>(options_.workers));
  shards_.reserve(options_.shards);
  auto& registry = obs::MetricsRegistry::Global();
  for (size_t i = 0; i < options_.shards; ++i) {
    auto shard = std::make_unique<Shard>();
    // Bounded cardinality: one gauge per shard, shards <= workers.
    shard->depth_gauge =
        registry.gauge("serve.shard." + std::to_string(i) + ".queue_depth");
    shard->depth_gauge->Set(0.0);
    shards_.push_back(std::move(shard));
  }
  workers_.reserve(options_.workers);
  for (size_t i = 0; i < options_.workers; ++i) {
    // Round-robin worker->shard assignment: every shard gets
    // floor(workers/shards) threads, the first (workers % shards) one more.
    const size_t shard_index = i % shards_.size();
    workers_.emplace_back([this, shard_index] { WorkerLoop(shard_index); });
  }
  if (options_.watchdog_interval_ms > 0) {
    watchdog_ = std::thread([this] { WatchdogLoop(); });
  }
}

JobScheduler::~JobScheduler() { Shutdown(/*drain=*/true); }

size_t JobScheduler::ShardForLabel(const std::string& label) const {
  // FNV-1a of the *name*, not the content: a registry reload that changes a
  // dataset's bytes (and so its cache fingerprint) must not migrate its
  // in-flight traffic to a different worker pool.
  uint64_t hash = 1469598103934665603ull;
  for (char c : label) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  return static_cast<size_t>(hash % shards_.size());
}

size_t JobScheduler::TotalQueuedLocked() const {
  size_t total = 0;
  for (const auto& shard : shards_) total += shard->queue.size();
  return total;
}

void JobScheduler::UpdateDepthGaugesLocked(size_t shard_index) {
  shards_[shard_index]->depth_gauge->Set(
      static_cast<double>(shards_[shard_index]->queue.size()));
  ServeMeters::Get().queue_depth->Set(
      static_cast<double>(TotalQueuedLocked()));
}

void JobScheduler::NotifyAllShards() {
  for (auto& shard : shards_) shard->work_cv.notify_all();
}

Result<uint64_t> JobScheduler::Submit(JobRequest request, JobOptions options) {
  auto& meters = ServeMeters::Get();
  meters.submitted->Add(1);
  // Injected admission failure: surfaces to the client as a structured error
  // (the protocol layer releases any quota slot it reserved), never a wedge.
  VADASA_FAILPOINT("serve.scheduler.submit");
  auto job = std::make_shared<Job>();
  job->trace = obs::CurrentTraceId();
  job->request = std::move(request);
  job->options = options;
  job->submitted = std::chrono::steady_clock::now();
  // Probe the result cache before queueing (and before arming the deadline:
  // a hit needs neither). The payload copy happens outside the scheduler
  // lock; byte-identity of the served response is pinned by the
  // cached-result-bit-identical property.
  if (options_.result_cache != nullptr && !job->request.cache_key.empty()) {
    CachedResult hit;
    if (options_.result_cache->Get(job->request.cache_key, &hit)) {
      api::Session released;  // Destroyed after the lock is dropped.
      std::lock_guard<std::mutex> lock(mutex_);
      if (draining_) {
        meters.rejected->Add(1);
        return Status::Unavailable("scheduler is shutting down");
      }
      job->id = next_id_++;
      job->shard = ShardForLabel(job->request.label);
      job->from_cache = true;
      job->risk = std::move(hit.risk);
      job->anonymize = std::move(hit.anonymize);
      // Terminal immediately: never queued, never run — both phases are
      // zero on the job's own timeline.
      job->started = job->submitted;
      jobs_.emplace(job->id, job);
      meters.admitted->Add(1);
      released = FinishLocked(job.get(), JobState::kDone, Status::OK());
      return job->id;
    }
  }
  if (options.timeout_seconds > 0.0) {
    job->cancel.SetTimeout(std::chrono::nanoseconds(
        static_cast<int64_t>(options.timeout_seconds * 1e9)));
  }
  size_t shard_index = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (draining_) {
      meters.rejected->Add(1);
      return Status::Unavailable("scheduler is shutting down");
    }
    const size_t queued = TotalQueuedLocked();
    if (queued >= options_.max_queue) {
      meters.rejected->Add(1);
      return Status::Unavailable(
          "admission queue full (" + std::to_string(queued) + "/" +
          std::to_string(options_.max_queue) + " jobs queued)");
    }
    job->id = next_id_++;
    shard_index = ShardForLabel(job->request.label);
    job->shard = shard_index;
    shards_[shard_index]->queue.emplace(
        std::make_pair(-options.priority, job->id), job);
    jobs_.emplace(job->id, job);
    meters.admitted->Add(1);
    UpdateDepthGaugesLocked(shard_index);
  }
  shards_[shard_index]->work_cv.notify_one();
  return job->id;
}

Result<JobState> JobScheduler::State(uint64_t id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = jobs_.find(id);
  if (it == jobs_.end()) {
    return Status::NotFound("unknown job id " + std::to_string(id));
  }
  return it->second->state;
}

/// Snapshot helpers shared by Peek/Wait; caller holds the scheduler mutex.
namespace {

JobResult MakeSnapshot(uint64_t id, JobAction action, JobState state,
                       const Status& status, const api::RiskReport& risk,
                       const api::AnonymizeResponse& anonymize,
                       double queue_seconds, double run_seconds,
                       int64_t queued_ns, int64_t run_ns, uint64_t trace,
                       bool from_cache) {
  JobResult result;
  result.id = id;
  result.action = action;
  result.state = state;
  result.status = status;
  if (state == JobState::kDone) {
    result.risk = risk;
    result.anonymize = anonymize;
  }
  result.queue_seconds = queue_seconds;
  result.run_seconds = run_seconds;
  result.queued_ns = queued_ns;
  result.run_ns = run_ns;
  result.trace = trace;
  result.from_cache = from_cache;
  return result;
}

bool IsTerminal(JobState state) {
  return state == JobState::kDone || state == JobState::kFailed ||
         state == JobState::kCancelled || state == JobState::kExpired;
}

}  // namespace

Result<JobResult> JobScheduler::Peek(uint64_t id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = jobs_.find(id);
  if (it == jobs_.end()) {
    return Status::NotFound("unknown job id " + std::to_string(id));
  }
  const Job& job = *it->second;
  return MakeSnapshot(id, job.request.action, job.state, job.status, job.risk,
                      job.anonymize, job.queue_seconds, job.run_seconds,
                      job.queued_ns, job.run_ns, job.trace, job.from_cache);
}

Result<JobResult> JobScheduler::Wait(uint64_t id) {
  std::unique_lock<std::mutex> lock(mutex_);
  auto it = jobs_.find(id);
  if (it == jobs_.end()) {
    return Status::NotFound("unknown job id " + std::to_string(id));
  }
  std::shared_ptr<Job> job = it->second;
  done_cv_.wait(lock, [&] { return IsTerminal(job->state); });
  return MakeSnapshot(id, job->request.action, job->state, job->status,
                      job->risk, job->anonymize, job->queue_seconds,
                      job->run_seconds, job->queued_ns, job->run_ns,
                      job->trace, job->from_cache);
}

Status JobScheduler::Cancel(uint64_t id) {
  api::Session released;  // Destroyed after the lock is dropped.
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = jobs_.find(id);
  if (it == jobs_.end()) {
    return Status::NotFound("unknown job id " + std::to_string(id));
  }
  Job* job = it->second.get();
  if (job->state == JobState::kQueued) {
    shards_[job->shard]->queue.erase(
        std::make_pair(-job->options.priority, job->id));
    UpdateDepthGaugesLocked(job->shard);
    released = FinishLocked(job, JobState::kCancelled,
                            Status::Cancelled("cancelled while queued"));
    return Status::OK();
  }
  if (job->state == JobState::kRunning) {
    job->cancel.Cancel();  // The job unwinds at its next iteration boundary.
  }
  return Status::OK();
}

void JobScheduler::Shutdown(bool drain) {
  std::vector<api::Session> released;  // Destroyed after the lock is dropped.
  std::unique_lock<std::mutex> lock(mutex_);
  draining_ = true;
  if (!drain) {
    for (size_t i = 0; i < shards_.size(); ++i) {
      for (auto& [key, job] : shards_[i]->queue) {
        (void)key;
        released.push_back(FinishLocked(job.get(), JobState::kCancelled,
                                        Status::Cancelled("cancelled at shutdown")));
      }
      shards_[i]->queue.clear();
      UpdateDepthGaugesLocked(i);
    }
  }
  JoinThreadsLocked(&lock);
}

bool JobScheduler::ShutdownWithin(std::chrono::milliseconds budget) {
  const auto deadline = std::chrono::steady_clock::now() + budget;
  std::vector<api::Session> released;  // Destroyed after the lock is dropped.
  std::unique_lock<std::mutex> lock(mutex_);
  draining_ = true;    // No new admissions while we wait.
  paused_ = false;     // A paused scheduler still has to run out its queue.
  NotifyAllShards();
  const bool drained = done_cv_.wait_until(lock, deadline, [&] {
    return TotalQueuedLocked() == 0 && running_ == 0;
  });
  if (!drained) {
    // Budget exhausted: queued jobs are cancelled outright, running jobs get
    // a cooperative cancel and are still joined below (they unwind at their
    // next iteration boundary).
    for (size_t i = 0; i < shards_.size(); ++i) {
      for (auto& [key, job] : shards_[i]->queue) {
        (void)key;
        released.push_back(
            FinishLocked(job.get(), JobState::kCancelled,
                         Status::Cancelled("cancelled: drain budget exhausted")));
      }
      shards_[i]->queue.clear();
      UpdateDepthGaugesLocked(i);
    }
    for (auto& [id, job] : jobs_) {
      (void)id;
      if (job->state == JobState::kRunning) job->cancel.Cancel();
    }
  }
  JoinThreadsLocked(&lock);
  return drained;
}

/// Sets shutdown_, drops the lock, and joins workers + watchdog. Idempotent;
/// `lock` must hold mutex_ on entry and is released on exit.
void JobScheduler::JoinThreadsLocked(std::unique_lock<std::mutex>* lock) {
  shutdown_ = true;
  lock->unlock();
  NotifyAllShards();
  watchdog_cv_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  if (watchdog_.joinable()) watchdog_.join();
}

void JobScheduler::Resume() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    paused_ = false;
  }
  NotifyAllShards();
}

size_t JobScheduler::queue_depth() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return TotalQueuedLocked();
}

size_t JobScheduler::shard_queue_depth(size_t shard) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (shard >= shards_.size()) return 0;
  return shards_[shard]->queue.size();
}

size_t JobScheduler::running_jobs() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return running_;
}

api::Session JobScheduler::FinishLocked(Job* job, JobState state, Status status) {
  auto& meters = ServeMeters::Get();
  if (job->started == std::chrono::steady_clock::time_point{}) {
    // Never dequeued (cancelled/expired while queued): the whole lifetime
    // was queue wait.
    const auto now = std::chrono::steady_clock::now();
    job->queue_seconds = SecondsBetween(job->submitted, now);
    job->queued_ns = NsBetween(job->submitted, now);
  }
  job->state = state;
  job->status = std::move(status);
  switch (state) {
    case JobState::kDone: meters.completed->Add(1); break;
    case JobState::kFailed: meters.failed->Add(1); break;
    case JobState::kCancelled: meters.cancelled->Add(1); break;
    case JobState::kExpired: meters.expired->Add(1); break;
    default: break;
  }
  if (options_.slow_log != nullptr) {
    obs::RequestLogEntry entry;
    entry.trace_id = job->trace;
    entry.op = job->request.action == JobAction::kRisk ? "risk" : "anonymize";
    entry.dataset = job->request.label;
    entry.queue_ms = job->queue_seconds * 1e3;
    entry.run_ms = job->run_seconds * 1e3;
    entry.outcome = JobStateToString(state);
    options_.slow_log->Record(entry);
  }
  if (job->options.quota_slot != nullptr) {
    // Exactly once per terminal transition: the client's in-flight slot
    // frees the moment the job stops occupying the scheduler.
    job->options.quota_slot->fetch_sub(1, std::memory_order_relaxed);
    job->options.quota_slot.reset();
  }
  done_cv_.notify_all();
  // The result is all a terminal job keeps: its dataset version and warm
  // index may go as soon as no other session holds them.
  return std::exchange(job->request.session, api::Session());
}

void JobScheduler::WatchdogLoop() {
  auto& meters = ServeMeters::Get();
  const auto interval = std::chrono::milliseconds(options_.watchdog_interval_ms);
  std::unique_lock<std::mutex> lock(mutex_);
  while (!shutdown_) {
    watchdog_cv_.wait_for(lock, interval, [&] { return shutdown_; });
    if (shutdown_) return;
    const auto now = std::chrono::steady_clock::now();
    for (auto& [id, job] : jobs_) {
      (void)id;
      if (job->state != JobState::kRunning || job->watchdog_flagged) continue;
      if (job->options.timeout_seconds <= 0.0) continue;
      const double overdue_s =
          job->options.timeout_seconds * options_.watchdog_multiple;
      const double running_s = SecondsBetween(job->started, now);
      if (running_s < overdue_s) continue;
      // Flag exactly once: metric, forced slow-log line, cancel escalation
      // for jobs that stopped polling their own deadline.
      job->watchdog_flagged = true;
      meters.watchdog_flagged->Add(1);
      if (options_.slow_log != nullptr) {
        obs::RequestLogEntry entry;
        entry.trace_id = job->trace;
        entry.op =
            job->request.action == JobAction::kRisk ? "risk" : "anonymize";
        entry.dataset = job->request.label;
        entry.queue_ms = job->queue_seconds * 1e3;
        entry.run_ms = running_s * 1e3;
        entry.outcome = "overdue";
        options_.slow_log->Record(entry, /*force=*/true);
      }
      job->cancel.Cancel();
    }
  }
}

void JobScheduler::WorkerLoop(size_t shard_index) {
  auto& meters = ServeMeters::Get();
  Shard& shard = *shards_[shard_index];
  for (;;) {
    std::shared_ptr<Job> job;
    api::Session released;  // Destroyed after the lock is dropped.
    {
      std::unique_lock<std::mutex> lock(mutex_);
      // shutdown_ overrides paused_ so a drain always completes. Each worker
      // only ever pops its own shard's queue — a hot dataset flooding one
      // shard cannot consume another shard's threads.
      shard.work_cv.wait(lock, [&] {
        return shutdown_ || (!paused_ && !shard.queue.empty());
      });
      if (shard.queue.empty()) {
        if (shutdown_) return;  // Drained: nothing left to run.
        continue;
      }
      auto it = shard.queue.begin();
      job = it->second;
      shard.queue.erase(it);
      UpdateDepthGaugesLocked(shard_index);
      job->started = std::chrono::steady_clock::now();
      job->queue_seconds = SecondsBetween(job->submitted, job->started);
      job->queued_ns = NsBetween(job->submitted, job->started);
      meters.queue_wait_ms->Record(job->queue_seconds * 1e3);
      if (!job->cancel.Check().ok()) {
        // Cancelled or expired while queued; never starts.
        const Status verdict = job->cancel.Check();
        released = FinishLocked(job.get(),
                                verdict.code() == StatusCode::kDeadlineExceeded
                                    ? JobState::kExpired
                                    : JobState::kCancelled,
                                verdict);
        continue;
      }
      job->state = JobState::kRunning;
      ++running_;
      meters.running->Set(static_cast<double>(running_));
    }
    Execute(job);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --running_;
      meters.running->Set(static_cast<double>(running_));
    }
    // ShutdownWithin waits for queue empty AND running == 0; the terminal
    // FinishLocked notified before this decrement, so notify again.
    done_cv_.notify_all();
  }
}

void JobScheduler::WarmUp(Job* job) {
  // Every session of one dataset version shares its WarmState: the first job
  // builds the index, concurrent peers wait on the state's lock and reuse it.
  obs::Span span("serve.warmup");
  bool built = false;
  // A failed warmup (e.g. too many QI columns for the semantics) is not a job
  // failure: the un-warmed call path will surface the same error itself.
  (void)job->request.session.Warm(&built);
  if (built) ServeMeters::Get().warmups->Add(1);
}

void JobScheduler::Execute(const std::shared_ptr<Job>& job) {
  // Re-install the submitting request's trace id on the executor thread so
  // the job/warmup spans (and the ParallelFor shards under them) group with
  // the protocol spans of the same request in one trace.
  obs::ScopedTraceId trace_scope(job->trace);
  obs::EmitSpan("serve.queue_wait", ToTraceNs(job->submitted),
                ToTraceNs(job->started));
  obs::Span span("serve.job");
  auto& meters = ServeMeters::Get();
  WarmUp(job.get());

  Status verdict = job->cancel.Check();
  if (verdict.ok()) {
    // Injected mid-run failure/delay: the job finishes through the normal
    // terminal path (clean error + trace id), and a delay policy here is how
    // tests manufacture an overdue job for the watchdog.
    static failpoint::Failpoint* run_fp =
        failpoint::GetFailpoint("serve.scheduler.run");
    if (run_fp->armed()) verdict = run_fp->Eval();
    if (verdict.ok()) verdict = job->cancel.Check();
  }
  api::RiskReport risk;
  api::AnonymizeResponse anonymize;
  if (verdict.ok()) {
    if (job->request.action == JobAction::kRisk) {
      auto result = job->request.session.Risk(job->request.quantile,
                                              job->request.explain);
      if (result.ok()) {
        risk = std::move(*result);
      } else {
        verdict = result.status();
      }
    } else {
      api::AnonymizeRequest anonymize_request;
      anonymize_request.cancel = &job->cancel;
      auto result = job->request.session.Anonymize(anonymize_request);
      if (result.ok()) {
        anonymize = std::move(*result);
      } else {
        verdict = result.status();
      }
    }
  }

  // Fill the cache before taking the scheduler lock: ApproxResultBytes
  // serializes the payload for the byte accounting and must not stall other
  // workers. A failed job never fills — the cache only ever holds payloads a
  // cold run produced successfully.
  if (verdict.ok() && options_.result_cache != nullptr &&
      !job->request.cache_key.empty()) {
    CachedResult entry;
    entry.action = job->request.action;
    entry.risk = risk;
    entry.anonymize = anonymize;
    options_.result_cache->Put(job->request.cache_key, job->request.label,
                               std::move(entry));
  }

  api::Session released;  // Destroyed after the lock is dropped.
  std::lock_guard<std::mutex> lock(mutex_);
  const auto finished = std::chrono::steady_clock::now();
  job->run_seconds = SecondsBetween(job->started, finished);
  job->run_ns = NsBetween(job->started, finished);
  meters.job_ms->Record(job->run_seconds * 1e3);
  if (verdict.ok()) {
    job->risk = std::move(risk);
    job->anonymize = std::move(anonymize);
    released = FinishLocked(job.get(), JobState::kDone, Status::OK());
  } else if (verdict.code() == StatusCode::kCancelled) {
    released = FinishLocked(job.get(), JobState::kCancelled, verdict);
  } else if (verdict.code() == StatusCode::kDeadlineExceeded) {
    released = FinishLocked(job.get(), JobState::kExpired, verdict);
  } else {
    released = FinishLocked(job.get(), JobState::kFailed, verdict);
  }
}

}  // namespace vadasa::serve
