#include "serve/quota.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <utility>

#include "obs/trace.h"

namespace vadasa::serve {

namespace {

int64_t SteadyNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Token-bucket capacity, the largest burst a connection may submit at once:
/// one second of its rate, and at least one token so a rate below 1/s admits.
double BucketCapacity(double submits_per_second) {
  return std::max(1.0, submits_per_second);
}

}  // namespace

ClientQuota::ClientQuota(QuotaOptions options, std::function<int64_t()> now_ns)
    : options_(options),
      now_ns_(now_ns ? std::move(now_ns) : SteadyNowNs),
      in_flight_(std::make_shared<std::atomic<int64_t>>(0)) {
  // A fresh connection starts with a full bucket.
  tokens_ = BucketCapacity(options_.submits_per_second);
  last_refill_ns_ = now_ns_();
}

Status ClientQuota::Admit() {
  // Every admitted submit holds a slot, capped or not: the scheduler hands
  // one back for each job that ends. Optimistic reserve: bump, and roll back
  // if that crossed the cap or the rate refuses. The cell is also
  // decremented by scheduler workers, so this stays a single atomic RMW
  // instead of a CAS loop over a racing value.
  const int64_t now_holding =
      in_flight_->fetch_add(1, std::memory_order_relaxed) + 1;
  if (options_.max_in_flight > 0 &&
      now_holding > static_cast<int64_t>(options_.max_in_flight)) {
    in_flight_->fetch_sub(1, std::memory_order_relaxed);
    VADASA_METRIC_COUNT("serve.quota.rejected.in_flight", 1);
    return Status::Unavailable(
        "client quota: " + std::to_string(options_.max_in_flight) +
        " job(s) already in flight on this connection");
  }
  if (options_.submits_per_second > 0.0) {
    std::lock_guard<std::mutex> lock(mutex_);
    const int64_t now = now_ns_();
    const double elapsed_s =
        static_cast<double>(std::max<int64_t>(0, now - last_refill_ns_)) * 1e-9;
    last_refill_ns_ = now;
    tokens_ = std::min(BucketCapacity(options_.submits_per_second),
                       tokens_ + elapsed_s * options_.submits_per_second);
    if (tokens_ < 1.0) {
      in_flight_->fetch_sub(1, std::memory_order_relaxed);
      VADASA_METRIC_COUNT("serve.quota.rejected.rate", 1);
      return Status::Unavailable(
          "client quota: submit rate above " +
          std::to_string(options_.submits_per_second) + "/s on this connection");
    }
    tokens_ -= 1.0;
  }
  VADASA_METRIC_COUNT("serve.quota.admitted", 1);
  return Status::OK();
}

void ClientQuota::Release() {
  in_flight_->fetch_sub(1, std::memory_order_relaxed);
}

int64_t RetryAfterMs(size_t queue_depth, size_t workers) {
  // 10ms floor so clients never busy-loop, plus ~25ms per queued job per
  // worker — roughly "how many scheduling rounds stand between you and a
  // free slot" — capped at 10s so hints stay actionable.
  const size_t per_worker = queue_depth / std::max<size_t>(1, workers);
  const int64_t hint = 10 + static_cast<int64_t>(per_worker) * 25;
  return std::min<int64_t>(hint, 10000);
}

}  // namespace vadasa::serve
