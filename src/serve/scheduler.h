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
class Gauge;
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
  /// Operator-facing name (dataset) carried into the slow-request log; also
  /// the shard-assignment key, so every job against one dataset lands on the
  /// same worker pool (and stays there across registry reloads — the name is
  /// stable even when the content fingerprint changes).
  std::string label;
  /// Result-cache key (serve/result_cache.h): dataset content fingerprint +
  /// canonical policy. Empty = this job never probes or fills the cache.
  /// Ignored unless the scheduler was built with a result_cache.
  std::string cache_key;
};

/// Per-job scheduling knobs.
struct JobOptions {
  /// Higher runs earlier; ties broken FIFO by admission order.
  int priority = 0;
  /// End-to-end deadline (queue wait + execution), seconds. 0 = none.
  double timeout_seconds = 0.0;
  /// Per-client in-flight accounting (serve/quota.h): decremented exactly
  /// once when the job reaches a terminal state. May be null.
  std::shared_ptr<std::atomic<int64_t>> quota_slot;
};

/// Terminal snapshot of a job.
struct JobResult {
  uint64_t id = 0;
  JobAction action = JobAction::kAnonymize;
  JobState state = JobState::kQueued;
  Status status;  ///< Failure/cancel reason; OK for kDone.
  api::RiskReport risk;            ///< kRisk jobs.
  api::AnonymizeResponse anonymize;  ///< kAnonymize jobs.
  double queue_seconds = 0.0;
  double run_seconds = 0.0;
  /// Integer-nanosecond spellings of the phases above (protocol timing
  /// fields; exact on the steady-clock timeline).
  int64_t queued_ns = 0;
  int64_t run_ns = 0;
  /// Trace id current on the submitting thread at Submit (0 = none).
  uint64_t trace = 0;
  /// kDone only: the payload came from the result cache — the job never
  /// entered a queue or ran. The protocol echoes this as "cached":true.
  bool from_cache = false;
};

struct SchedulerOptions {
  /// Executor threads. Each runs one job at a time; the data-parallel work
  /// inside a job still rides ThreadPool::Global()'s deterministic shards.
  size_t workers = 2;
  /// Bound of the admission queue (jobs queued, not counting running ones).
  /// Submission beyond it is *rejected* with Unavailable, never blocked —
  /// backpressure surfaces at the edge instead of wedging clients.
  size_t max_queue = 64;
  /// Admit jobs but do not run any until Resume() — deterministic setup for
  /// tests and warm server starts. Shutdown(drain=true) implies Resume.
  bool start_paused = false;
  /// When set, terminal jobs crossing the log's threshold append one NDJSON
  /// line (trace_id, op, dataset, queue_ms, run_ms, outcome). Not owned;
  /// must outlive the scheduler.
  obs::RequestLog* slow_log = nullptr;
  /// Worker-pool shards. Datasets are hash-assigned by label (FNV-1a of the
  /// name, stable across registry reloads), each shard owns its own ready
  /// queue and `workers/shards` threads, so a flood of jobs against one hot
  /// dataset saturates only its shard instead of starving every other
  /// dataset's queue position. Clamped to [1, workers]; 1 = the classic
  /// single shared queue. Admission (`max_queue`) stays a global bound.
  /// Per-shard depth gauges: serve.shard.<i>.queue_depth.
  size_t shards = 1;
  /// When set, Submit probes it by JobRequest::cache_key and a hit completes
  /// the job immediately (kDone, JobResult::from_cache) without queueing;
  /// each successful cold run fills it. Not owned; must outlive the
  /// scheduler. Null = no caching (the default).
  ResultCache* result_cache = nullptr;
  /// Watchdog scan interval, milliseconds; 0 disables the watchdog thread.
  /// Each scan flags — exactly once per job — any running job older than
  /// `watchdog_multiple` times its own deadline: serve.watchdog.flagged is
  /// incremented, an "overdue" slow-log entry is written, and the job's
  /// cancel token is flipped (cooperative-cancel escalation for jobs that
  /// stopped polling their deadline).
  int watchdog_interval_ms = 0;
  double watchdog_multiple = 3.0;
};

/// A bounded, prioritized, cancellable job executor over api::Session calls —
/// the long-lived serving core. Admission control rejects overflow instead of
/// blocking; per-job CancelTokens give cooperative cancellation and deadline
/// enforcement; each job warms its session's shared WarmState, so jobs on one
/// dataset version build its group index once between them. A job drops its
/// session when it reaches a terminal state. All serve.* metrics flow through
/// obs::MetricsRegistry::Global().
class JobScheduler {
 public:
  explicit JobScheduler(SchedulerOptions options = {});
  ~JobScheduler();  ///< Shutdown(/*drain=*/true).

  JobScheduler(const JobScheduler&) = delete;
  JobScheduler& operator=(const JobScheduler&) = delete;

  /// Admits a job or rejects it (Unavailable when the queue is full or the
  /// scheduler is shutting down). Never blocks on a full queue.
  Result<uint64_t> Submit(JobRequest request, JobOptions options = {});

  /// Current state; NotFound for unknown ids.
  Result<JobState> State(uint64_t id) const;

  /// Non-blocking snapshot (results only populated in terminal states).
  Result<JobResult> Peek(uint64_t id) const;

  /// Blocks until the job reaches a terminal state; returns the snapshot.
  Result<JobResult> Wait(uint64_t id);

  /// Queued job: removed and marked kCancelled. Running job: its token is
  /// flipped and the job unwinds at the next cycle-iteration boundary.
  /// Terminal job: no-op. NotFound for unknown ids.
  Status Cancel(uint64_t id);

  /// Stops admission, then either drains the queue (drain=true: queued jobs
  /// still execute) or cancels every queued job; running jobs always finish
  /// (their tokens are left alone — drain=false only cancels queued work).
  /// Joins the workers. Idempotent.
  void Shutdown(bool drain = true);

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
  size_t running_jobs() const;
  const SchedulerOptions& options() const { return options_; }

  /// Shards actually built (options().shards after clamping to workers).
  size_t shard_count() const { return shards_.size(); }
  /// The shard a dataset label hash-assigns to.
  size_t ShardForLabel(const std::string& label) const;
  /// Queued jobs on one shard (operator/test visibility; the gauges mirror
  /// this).
  size_t shard_queue_depth(size_t shard) const;

 private:
  struct Job;

  /// One worker pool: its own ready queue and wakeup cv (still under the
  /// scheduler-wide mutex_ — sharding isolates *scheduling*, not locking;
  /// queue operations are microseconds against multi-ms jobs).
  struct Shard {
    /// Ready queue keyed by (-priority, admission seq): begin() is next.
    std::map<std::pair<int, uint64_t>, std::shared_ptr<Job>> queue;
    std::condition_variable work_cv;  ///< Workers: queue non-empty / shutdown.
    obs::Gauge* depth_gauge = nullptr;  ///< serve.shard.<i>.queue_depth.
  };

  void WorkerLoop(size_t shard_index);
  void WatchdogLoop();
  void Execute(const std::shared_ptr<Job>& job);
  void WarmUp(Job* job);
  /// Transition to a terminal state; caller holds mutex_. Returns the job's
  /// session for the caller to destroy after unlocking: it may hold the last
  /// reference to a dataset version and its warm index.
  [[nodiscard]] api::Session FinishLocked(Job* job, JobState state, Status status);
  void JoinThreadsLocked(std::unique_lock<std::mutex>* lock);
  /// Sum of shard queue depths; caller holds mutex_.
  size_t TotalQueuedLocked() const;
  /// Refreshes one shard's depth gauge and the global queue-depth gauge;
  /// caller holds mutex_.
  void UpdateDepthGaugesLocked(size_t shard_index);
  void NotifyAllShards();

  SchedulerOptions options_;

  mutable std::mutex mutex_;
  std::condition_variable done_cv_;   ///< Waiters: some job reached terminal.
  /// Admission order within a priority band; also the id source.
  uint64_t next_id_ = 1;
  bool draining_ = false;   ///< Admission closed.
  bool shutdown_ = false;   ///< Workers told to exit once the queue is empty.
  bool paused_ = false;     ///< Workers admit but do not pop until Resume.
  std::vector<std::unique_ptr<Shard>> shards_;
  std::map<uint64_t, std::shared_ptr<Job>> jobs_;
  size_t running_ = 0;

  std::condition_variable watchdog_cv_;  ///< Wakes the watchdog early on exit.
  std::vector<std::thread> workers_;
  std::thread watchdog_;
};

}  // namespace vadasa::serve

#endif  // VADASA_SERVE_SCHEDULER_H_
