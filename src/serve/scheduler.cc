#include "serve/scheduler.h"

#include <utility>

#include "common/failpoint.h"
#include "obs/metrics.h"
#include "obs/request_log.h"
#include "obs/trace.h"
#include "serve/result_cache.h"

namespace vadasa::serve {

namespace {

/// A job's ready-queue key: higher priority first, then admission order. The
/// priority is widened before it is negated, so INT_MIN negates too.
std::pair<int64_t, uint64_t> QueueKey(int priority, uint64_t id) {
  return {-static_cast<int64_t>(priority), id};
}

/// The scheduler's one clock: steady-clock nanoseconds since epoch, the
/// tracer's timeline, so job timestamps feed obs::EmitSpan directly.
int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// A running job is overdue once it has run this many times its deadline.
constexpr double kWatchdogMultiple = 3.0;

bool IsTerminal(JobState state) {
  return state != JobState::kQueued && state != JobState::kRunning;
}

JobState TerminalState(const Status& status) {
  switch (status.code()) {
    case StatusCode::kOk: return JobState::kDone;
    case StatusCode::kCancelled: return JobState::kCancelled;
    case StatusCode::kDeadlineExceeded: return JobState::kExpired;
    default: return JobState::kFailed;
  }
}

/// One slow-log line for a job: its terminal line, or the watchdog's forced
/// "overdue" line while it still runs.
obs::RequestLogEntry SlowLogEntry(const JobResult& result, const std::string& dataset,
                                  int64_t run_ns, std::string outcome) {
  obs::RequestLogEntry entry;
  entry.trace_id = result.trace;
  entry.op = result.action == JobAction::kRisk ? "risk" : "anonymize";
  entry.dataset = dataset;
  entry.queue_ms = static_cast<double>(result.queued_ns) / 1e6;
  entry.run_ms = static_cast<double>(run_ns) / 1e6;
  entry.outcome = std::move(outcome);
  return entry;
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
  JobRequest request;
  JobOptions options;
  CancelToken cancel;
  JobResult result;  ///< What Peek and Wait copy out.
  /// NowNs() at Submit and when a worker dequeues the job; started_ns stays 0
  /// while queued, and a cache hit starts when it is submitted.
  int64_t submitted_ns = 0;
  int64_t started_ns = 0;
  bool watchdog_flagged = false;  ///< The watchdog flags a job at most once.
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

JobScheduler::~JobScheduler() { Shutdown(); }

size_t JobScheduler::ShardForLabel(const std::string& label) const {
  // FNV-1a of the *name*, not the snapshot: a delta or replacement that
  // publishes a new snapshot (and so a new cache generation) must not
  // migrate its in-flight traffic to a different worker pool.
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

Status ValidateJobOptions(const JobOptions& options) {
  // The deadline is armed as steady_clock::now() + timeout in int64
  // nanoseconds; the bound keeps both the cast and the sum defined.
  if (!(options.timeout_seconds >= 0.0 && options.timeout_seconds <= kMaxTimeoutSeconds)) {
    return Status::InvalidArgument(
        "timeout_seconds must be a finite number in [0, 1e9], got " +
        std::to_string(options.timeout_seconds));
  }
  return Status::OK();
}

Result<uint64_t> JobScheduler::Submit(JobRequest request, JobOptions options) {
  auto& meters = ServeMeters::Get();
  meters.submitted->Add(1);
  VADASA_RETURN_NOT_OK(ValidateJobOptions(options));
  // Injected admission failure: surfaces to the client as a structured error
  // (the protocol layer releases any quota slot it reserved), never a wedge.
  VADASA_FAILPOINT("serve.scheduler.submit");
  auto job = std::make_shared<Job>();
  job->result.trace = obs::CurrentTraceId();
  job->result.action = request.action;
  job->request = std::move(request);
  job->options = std::move(options);
  job->submitted_ns = NowNs();
  // Probe the result cache before taking the lock. A hit takes the very bytes
  // the fill stored and never queues, so it needs no deadline.
  std::shared_ptr<const std::string> hit;
  if (options_.result_cache != nullptr && !job->request.cache_key.empty()) {
    hit = options_.result_cache->Get(job->request.cache_key);
  }
  if (hit == nullptr && job->options.timeout_seconds > 0.0) {
    job->cancel.SetTimeout(std::chrono::nanoseconds(
        static_cast<int64_t>(job->options.timeout_seconds * 1e9)));
  }
  api::Session released;  // Destroyed after the lock is dropped.
  std::unique_lock<std::mutex> lock(mutex_);
  if (draining_) {
    meters.rejected->Add(1);
    return Status::Unavailable("scheduler is shutting down");
  }
  const size_t queued = TotalQueuedLocked();
  if (hit == nullptr && queued >= options_.max_queue) {
    meters.rejected->Add(1);
    return Status::Unavailable(
        "admission queue full (" + std::to_string(queued) + "/" +
        std::to_string(options_.max_queue) + " jobs queued)");
  }
  const uint64_t id = next_id_++;
  job->result.id = id;
  job->shard = ShardForLabel(job->request.label);
  jobs_.emplace(id, job);
  meters.admitted->Add(1);
  if (hit != nullptr) {
    // Terminal at once: never queued, never run, so both phases are zero.
    job->result.from_cache = true;
    job->result.payload = std::move(hit);
    job->started_ns = job->submitted_ns;
    released = FinishLocked(job.get(), Status::OK());
    return id;
  }
  Shard& shard = *shards_[job->shard];
  shard.queue.emplace(QueueKey(job->options.priority, id), job);
  UpdateDepthGaugesLocked(job->shard);
  lock.unlock();
  shard.work_cv.notify_one();
  return id;
}

Result<JobResult> JobScheduler::Peek(uint64_t id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = jobs_.find(id);
  if (it == jobs_.end()) {
    return Status::NotFound("unknown job id " + std::to_string(id));
  }
  return it->second->result;
}

Result<JobResult> JobScheduler::Wait(uint64_t id) {
  std::unique_lock<std::mutex> lock(mutex_);
  auto it = jobs_.find(id);
  if (it == jobs_.end()) {
    return Status::NotFound("unknown job id " + std::to_string(id));
  }
  std::shared_ptr<Job> job = it->second;
  done_cv_.wait(lock, [&] { return IsTerminal(job->result.state); });
  return job->result;
}

Status JobScheduler::Cancel(uint64_t id) {
  api::Session released;  // Destroyed after the lock is dropped.
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = jobs_.find(id);
  if (it == jobs_.end()) {
    return Status::NotFound("unknown job id " + std::to_string(id));
  }
  Job* job = it->second.get();
  if (job->result.state == JobState::kQueued) {
    shards_[job->shard]->queue.erase(
        QueueKey(job->options.priority, job->result.id));
    UpdateDepthGaugesLocked(job->shard);
    released = FinishLocked(job, Status::Cancelled("cancelled while queued"));
    return Status::OK();
  }
  if (job->result.state == JobState::kRunning) {
    job->cancel.Cancel();  // The job unwinds at its next iteration boundary.
  }
  return Status::OK();
}

void JobScheduler::Shutdown() {
  std::unique_lock<std::mutex> lock(mutex_);
  draining_ = true;
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
    return TotalQueuedLocked() == 0 && running_.empty();
  });
  if (!drained) {
    // Budget exhausted: queued jobs are cancelled outright, running jobs get
    // a cooperative cancel and are still joined below (they unwind at their
    // next iteration boundary).
    for (size_t i = 0; i < shards_.size(); ++i) {
      for (auto& [key, job] : shards_[i]->queue) {
        (void)key;
        released.push_back(FinishLocked(
            job.get(), Status::Cancelled("cancelled: drain budget exhausted")));
      }
      shards_[i]->queue.clear();
      UpdateDepthGaugesLocked(i);
    }
    for (auto& [id, job] : running_) {
      (void)id;
      job->cancel.Cancel();
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

api::Session JobScheduler::FinishLocked(Job* job, Status status) {
  auto& meters = ServeMeters::Get();
  JobResult& result = job->result;
  const int64_t now = NowNs();
  if (job->started_ns == 0) {
    // Never dequeued (cancelled while queued, or the drain gave up on it):
    // the whole lifetime was queue wait.
    result.queued_ns = now - job->submitted_ns;
  }
  if (result.state == JobState::kRunning) {
    result.run_ns = now - job->started_ns;
    meters.job_ms->Record(static_cast<double>(result.run_ns) / 1e6);
    running_.erase(result.id);
    meters.running->Set(static_cast<double>(running_.size()));
  }
  result.state = TerminalState(status);
  result.status = std::move(status);
  switch (result.state) {
    case JobState::kDone: meters.completed->Add(1); break;
    case JobState::kFailed: meters.failed->Add(1); break;
    case JobState::kCancelled: meters.cancelled->Add(1); break;
    case JobState::kExpired: meters.expired->Add(1); break;
    default: break;
  }
  if (options_.slow_log != nullptr) {
    options_.slow_log->Record(SlowLogEntry(result, job->request.label, result.run_ns,
                                           JobStateToString(result.state)));
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
    const int64_t now = NowNs();
    for (auto& [id, job] : running_) {
      (void)id;
      if (job->watchdog_flagged || job->options.timeout_seconds <= 0.0) continue;
      const int64_t running_ns = now - job->started_ns;
      if (static_cast<double>(running_ns) / 1e9 <
          job->options.timeout_seconds * kWatchdogMultiple) {
        continue;
      }
      // Flag exactly once: metric, forced slow-log line, cancel escalation
      // for jobs that stopped polling their own deadline.
      job->watchdog_flagged = true;
      meters.watchdog_flagged->Add(1);
      if (options_.slow_log != nullptr) {
        options_.slow_log->Record(
            SlowLogEntry(job->result, job->request.label, running_ns, "overdue"),
            /*force=*/true);
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
      job->started_ns = NowNs();
      job->result.queued_ns = job->started_ns - job->submitted_ns;
      meters.queue_wait_ms->Record(static_cast<double>(job->result.queued_ns) / 1e6);
      Status verdict = job->cancel.Check();
      if (!verdict.ok()) {
        // Cancelled or expired while queued; never starts.
        released = FinishLocked(job.get(), std::move(verdict));
        continue;
      }
      job->result.state = JobState::kRunning;
      running_.emplace(job->result.id, job.get());
      meters.running->Set(static_cast<double>(running_.size()));
    }
    Execute(job);
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
  Status verdict;
  // The job's one encoding, outside the scheduler lock: the cache, the job
  // and every reader share these bytes. A failed job has no payload and never
  // fills — the cache only ever holds what a cold run produced successfully.
  std::shared_ptr<const std::string> payload;
  {
    // Re-install the submitting request's trace id on the executor thread so
    // the job/warmup spans (and the ParallelFor shards under them) group with
    // the protocol spans of the same request in one trace.
    obs::ScopedTraceId trace_scope(job->result.trace);
    obs::EmitSpan("serve.queue_wait", job->submitted_ns, job->started_ns);
    obs::Span span("serve.job");
    WarmUp(job.get());

    verdict = job->cancel.Check();
    if (verdict.ok()) {
      // Injected mid-run failure/delay: the job finishes through the normal
      // terminal path (clean error + trace id), and a delay policy here is
      // how tests manufacture an overdue job for the watchdog.
      static failpoint::Failpoint* run_fp =
          failpoint::GetFailpoint("serve.scheduler.run");
      if (run_fp->armed()) verdict = run_fp->Eval();
      if (verdict.ok()) verdict = job->cancel.Check();
    }
    const auto encode = [&](const auto& result) {
      if (result.ok()) {
        payload = std::make_shared<const std::string>(EncodeResult(*result));
      } else {
        verdict = result.status();
      }
    };
    if (verdict.ok()) {
      if (job->request.action == JobAction::kRisk) {
        encode(job->request.session.Risk(job->request.quantile, job->request.explain));
      } else {
        api::AnonymizeRequest anonymize_request;
        anonymize_request.cancel = &job->cancel;
        encode(job->request.session.Anonymize(anonymize_request));
      }
    }
    if (verdict.ok() && options_.result_cache != nullptr &&
        !job->request.cache_key.empty()) {
      options_.result_cache->Put(job->request.cache_key, job->request.label, payload);
    }
  }  // serve.job is recorded here, before any waiter can see the job end.

  api::Session released;  // Destroyed after the lock is dropped.
  std::lock_guard<std::mutex> lock(mutex_);
  job->result.payload = std::move(payload);
  released = FinishLocked(job.get(), std::move(verdict));
}

}  // namespace vadasa::serve
