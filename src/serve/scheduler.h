#ifndef VADASA_SERVE_SCHEDULER_H_
#define VADASA_SERVE_SCHEDULER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "api/vadasa.h"
#include "common/cancel.h"
#include "common/result.h"

namespace vadasa::obs {
class RequestLog;
}

namespace vadasa::serve {

class ResultCache;

/// Lifecycle of a job. Terminal states: kDone, kFailed, kCancelled, kExpired.
/// (Jobs refused at admission never get an id or a state — Submit returns
/// Unavailable instead; that is the rejection the metrics count.)
enum class JobState {
  kQueued,
  kRunning,
  kDone,
  kFailed,     ///< The library call returned a non-OK, non-cancel Status.
  kCancelled,  ///< Cancelled while queued, or cooperatively while running.
  kExpired,    ///< The deadline fired (while queued or mid-run).
};

std::string JobStateToString(JobState state);

/// What to run against the session.
enum class JobAction { kRisk, kAnonymize };

/// One unit of work: an immutable Session (shared dataset + policy) plus the
/// action. Executing it is a pure function of this struct, which is what
/// keeps N concurrent jobs bit-identical to N sequential facade calls.
struct JobRequest {
  api::Session session;
  JobAction action = JobAction::kAnonymize;
  /// Risk-only: infer the threshold at this quantile (< 0 = skip) and attach
  /// per-tuple explanations.
  double quantile = -1.0;
  bool explain = false;
  /// Operator-facing name (dataset) carried into the slow-request log and
  /// the name a cache fill is recorded under (ResultCache::InvalidateDataset).
  std::string label;
  /// Result-cache key (serve/result_cache.h ResultCacheKey): the generation
  /// of the dataset snapshot the session reads + canonical policy. Empty =
  /// this job never probes or fills the cache. Ignored unless the scheduler
  /// was built with a result_cache.
  std::string cache_key;
};

/// Longest deadline a job may ask for, seconds (about 31.7 years), well short
/// of the ~292 years at which steady_clock::now() + timeout overflows int64
/// nanoseconds.
inline constexpr double kMaxTimeoutSeconds = 1e9;

/// Per-job scheduling knobs.
struct JobOptions {
  /// Higher runs earlier; ties broken FIFO by admission order.
  int priority = 0;
  /// End-to-end deadline (queue wait + execution), seconds. 0 = none;
  /// bounded by ValidateJobOptions.
  double timeout_seconds = 0.0;
  /// Per-client in-flight accounting (serve/quota.h): decremented exactly
  /// once when the job reaches a terminal state. May be null.
  std::shared_ptr<std::atomic<int64_t>> quota_slot;
};

/// InvalidArgument unless `options.timeout_seconds` is a finite number in
/// [0, kMaxTimeoutSeconds]. JobScheduler::Submit runs it before anything else;
/// the protocol runs it before it loads the request's dataset.
Status ValidateJobOptions(const JobOptions& options);

/// A job's state and outcome; Peek and Wait hand out copies.
struct JobResult {
  uint64_t id = 0;
  JobAction action = JobAction::kAnonymize;
  JobState state = JobState::kQueued;
  Status status;  ///< Failure/cancel reason; OK for kDone.
  /// kDone only: the JSON members of the job's `result` line
  /// (serve/result_cache.h EncodeResult), encoded once when the job
  /// completed. Immutable; the job, the result cache and every copy of this
  /// struct share the one string.
  std::shared_ptr<const std::string> payload;
  /// Time spent queued and running, in steady-clock nanoseconds. A cache hit
  /// reads 0 for both; a job that never left the queue has no run time.
  int64_t queued_ns = 0;
  int64_t run_ns = 0;
  /// Trace id current on the submitting thread at Submit (0 = none).
  uint64_t trace = 0;
  /// kDone only: the payload came from the result cache — the job never
  /// entered a queue or ran. The protocol echoes this as "cached":true.
  bool from_cache = false;
};

struct SchedulerOptions {
  /// Executor threads, all popping the one ready queue. Each runs one job at
  /// a time; the data-parallel work inside a job still rides
  /// ThreadPool::Global()'s deterministic shards.
  size_t workers = 2;
  /// Bound of the admission queue (jobs queued, not counting running ones).
  /// Submission beyond it is *rejected* with Unavailable, never blocked —
  /// backpressure surfaces at the edge instead of wedging clients.
  size_t max_queue = 64;
  /// Admit jobs but do not run any until Resume() — deterministic setup for
  /// tests and warm server starts. Shutdown() implies Resume.
  bool start_paused = false;
  /// When set, terminal jobs crossing the log's threshold append one NDJSON
  /// line (trace_id, op, dataset, queue_ms, run_ms, outcome). Not owned;
  /// must outlive the scheduler.
  obs::RequestLog* slow_log = nullptr;
  /// When set, Submit probes it by JobRequest::cache_key and a hit completes
  /// the job immediately (kDone, JobResult::from_cache) without queueing;
  /// each successful cold run fills it. Not owned; must outlive the
  /// scheduler. Null = no caching (the default).
  ResultCache* result_cache = nullptr;
  /// Watchdog scan interval, milliseconds; 0 disables the watchdog thread.
  /// Each scan looks at the running jobs only and flags — exactly once per
  /// job — any that has run for three times its own deadline:
  /// serve.watchdog.flagged is incremented, an "overdue" slow-log entry is
  /// written, and the job's cancel token is flipped (cooperative-cancel
  /// escalation for jobs that stopped polling their deadline).
  int watchdog_interval_ms = 0;
};

/// A bounded, prioritized, cancellable job executor over api::Session calls —
/// the long-lived serving core. Every worker pops one priority/FIFO ready
/// queue, so any idle worker takes the next job whatever its dataset.
/// Admission control rejects overflow instead of blocking; isolating one
/// client is the per-connection quotas' job (serve/quota.h). Per-job
/// CancelTokens give cooperative cancellation and deadline enforcement; each
/// job warms its session's shared WarmState, so jobs on one dataset version
/// build its group index once between them. Every job ends in one terminal
/// transition, which derives its state from its final Status after the job's
/// serve.job span has closed, and drops its session. All serve.* metrics flow
/// through obs::MetricsRegistry::Global().
class JobScheduler {
 public:
  explicit JobScheduler(SchedulerOptions options = {});
  ~JobScheduler();  ///< Shutdown().

  JobScheduler(const JobScheduler&) = delete;
  JobScheduler& operator=(const JobScheduler&) = delete;

  /// Admits a job or rejects it (InvalidArgument when ValidateJobOptions
  /// fails, Unavailable when the queue is full or the scheduler is shutting
  /// down). Never blocks on a full queue.
  Result<uint64_t> Submit(JobRequest request, JobOptions options = {});

  /// Non-blocking snapshot of the job's state and timings (the payload is set
  /// only once it is kDone); NotFound for unknown ids.
  Result<JobResult> Peek(uint64_t id) const;

  /// Blocks until the job reaches a terminal state; returns the snapshot.
  Result<JobResult> Wait(uint64_t id);

  /// Queued job: removed and marked kCancelled. Running job: its token is
  /// flipped and the job unwinds at the next cycle-iteration boundary.
  /// Terminal job: no-op. NotFound for unknown ids.
  Status Cancel(uint64_t id);

  /// Stops admission and drains: queued jobs still execute and running jobs
  /// finish. Joins the workers. Idempotent. ShutdownWithin is the bounded,
  /// cancelling variant.
  void Shutdown();

  /// Bounded-time drain for graceful exit (SIGTERM handling): stops
  /// admission, lets queued + running jobs finish for up to `budget`, then
  /// cancels whatever is left (queued jobs marked kCancelled, running jobs
  /// cooperatively cancelled and still joined). Returns true when everything
  /// drained inside the budget, false when the cancel path fired. Idempotent
  /// with Shutdown().
  bool ShutdownWithin(std::chrono::milliseconds budget);

  /// Starts execution after a start_paused construction. No-op otherwise.
  void Resume();

  size_t queue_depth() const;
  const SchedulerOptions& options() const { return options_; }

 private:
  struct Job;

  void WorkerLoop();
  void WatchdogLoop();
  void Execute(const std::shared_ptr<Job>& job);
  void WarmUp(Job* job);
  /// The one terminal transition; caller holds mutex_. The state follows
  /// from `status`: OK is kDone, Cancelled kCancelled, DeadlineExceeded
  /// kExpired, anything else kFailed. A running job leaves running_ here,
  /// in the critical section that publishes its state. Returns the job's
  /// session for the caller to destroy after unlocking: it may hold the last
  /// reference to a dataset version and its warm index.
  [[nodiscard]] api::Session FinishLocked(Job* job, Status status);
  void JoinThreadsLocked(std::unique_lock<std::mutex>* lock);
  /// Publishes queue_'s size to serve.queue_depth; caller holds mutex_.
  void UpdateDepthGaugeLocked();

  SchedulerOptions options_;

  mutable std::mutex mutex_;
  std::condition_variable work_cv_;   ///< Workers: queue non-empty / shutdown.
  std::condition_variable done_cv_;   ///< Waiters: some job reached terminal.
  /// Admission order within a priority band; also the id source.
  uint64_t next_id_ = 1;
  bool draining_ = false;   ///< Admission closed.
  bool shutdown_ = false;   ///< Workers told to exit once the queue is empty.
  bool paused_ = false;     ///< Workers admit but do not pop until Resume.
  /// The one ready queue, shared by every worker, keyed by QueueKey
  /// (-priority, admission seq): begin() is next.
  std::map<std::pair<int64_t, uint64_t>, std::shared_ptr<Job>> queue_;
  std::map<uint64_t, std::shared_ptr<Job>> jobs_;
  /// The jobs a worker is executing, by id: all the watchdog, the bounded
  /// drain and the serve.running gauge read. jobs_ keeps every job admitted.
  std::map<uint64_t, Job*> running_;

  std::condition_variable watchdog_cv_;  ///< Wakes the watchdog early on exit.
  std::vector<std::thread> workers_;
  std::thread watchdog_;
};

}  // namespace vadasa::serve

#endif  // VADASA_SERVE_SCHEDULER_H_
