#ifndef VADASA_SERVE_QUOTA_H_
#define VADASA_SERVE_QUOTA_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>

#include "common/result.h"

/// Per-client admission quotas for the serving front end
/// (docs/robustness.md). The scheduler's bounded queue protects the process;
/// quotas protect it from any *single* client: a connection may hold at most
/// `max_in_flight` unfinished jobs and submit at most `submits_per_second`
/// jobs sustained (a token bucket holding one second of submits, and at least
/// one, so short bursts pass). Over-quota submits are rejected immediately
/// with Unavailable — never blocked — and the protocol attaches a
/// `retry_after_ms` backoff hint scaled by how backed up the scheduler is.

namespace vadasa::serve {

struct QuotaOptions {
  /// Unfinished (queued or running) jobs one connection may hold. 0 = no cap.
  size_t max_in_flight = 0;
  /// Sustained submit rate per connection, jobs/second. 0 = no cap.
  double submits_per_second = 0.0;
};

/// One connection's quota state. Admit() consumes a rate token and reserves
/// an in-flight slot; the slot is released when the job reaches a terminal
/// state (the scheduler decrements `in_flight_cell()`), so quotas reset
/// naturally as a client's jobs finish — and die with the connection.
/// Thread-safe; a ClientQuota is cheap enough to build per connection.
class ClientQuota {
 public:
  /// `now_ns` overrides the token-bucket clock (tests); default steady_clock.
  explicit ClientQuota(QuotaOptions options,
                       std::function<int64_t()> now_ns = nullptr);

  ClientQuota(const ClientQuota&) = delete;
  ClientQuota& operator=(const ClientQuota&) = delete;

  /// Reserves one submit: Unavailable when the connection is at its
  /// in-flight cap or out of rate tokens; OK reserves the slot, whether or
  /// not a cap is set, so in_flight() counts the connection's unfinished jobs
  /// exactly. Never blocks.
  Status Admit();

  /// Returns the reserved slot without submitting (the scheduler rejected
  /// the job after Admit() passed). The rate token is deliberately not
  /// refunded — a rejected submit still spent server attention.
  void Release();

  /// The shared in-flight counter the scheduler decrements once the job is
  /// terminal (JobOptions::quota_slot).
  std::shared_ptr<std::atomic<int64_t>> in_flight_cell() const {
    return in_flight_;
  }

  /// Slots reserved and not yet returned: the connection's unfinished jobs.
  int64_t in_flight() const {
    return in_flight_->load(std::memory_order_relaxed);
  }
  const QuotaOptions& options() const { return options_; }

 private:
  QuotaOptions options_;
  std::function<int64_t()> now_ns_;
  std::shared_ptr<std::atomic<int64_t>> in_flight_;
  std::mutex mutex_;       ///< Guards the token bucket.
  double tokens_ = 0.0;
  int64_t last_refill_ns_ = 0;
};

/// Backoff hint for a rejected submit, milliseconds: how long the client
/// should wait before retrying, growing with the scheduler's backlog per
/// worker so a drowning server pushes clients off harder. Monotone
/// non-decreasing in `queue_depth`, non-negative, capped at 10 seconds.
int64_t RetryAfterMs(size_t queue_depth, size_t workers);

}  // namespace vadasa::serve

#endif  // VADASA_SERVE_QUOTA_H_
