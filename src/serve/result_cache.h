#ifndef VADASA_SERVE_RESULT_CACHE_H_
#define VADASA_SERVE_RESULT_CACHE_H_

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "api/vadasa.h"
#include "core/microdata.h"
#include "serve/scheduler.h"

namespace vadasa::serve {

/// FNV-1a content fingerprint of a categorized table: attribute schema
/// (names + categories) plus every cell, via the table's CSV text
/// (MicrodataTable::CsvText), hashed a line at a time as it is written.
/// Editing a single cell, renaming a column or recategorizing an attribute
/// all change the fingerprint; the dataset's registry name does not — two
/// names over byte-identical content share cached results safely.
uint64_t FingerprintTable(const core::MicrodataTable& table);

/// Canonical string form of everything besides the dataset that determines a
/// job's payload: the validated SessionOptions in a fixed field order plus
/// the action and its risk extras. Two submits that spell the same policy
/// with different JSON field orders (or rely on defaults) map to one key.
/// The data plane and thread count are deliberately absent — results are
/// bit-identical across them (pinned by the columnar/parallel properties).
std::string CanonicalPolicyKey(const api::SessionOptions& options,
                               JobAction action, double quantile, bool explain);

/// The full cache key: hex fingerprint | canonical policy.
std::string ResultCacheKey(uint64_t fingerprint, const std::string& policy_key);

/// The JSON members a done job's `result` line carries, encoded once when the
/// job completes: `"risk":{...}` for a risk report, `"audit":"...","csv":"..."`
/// for a release. The scheduler shares these bytes between the job, the cache
/// and every reader, so a hit serves exactly the bytes its fill encoded.
std::string EncodeResult(const api::RiskReport& report);
std::string EncodeResult(const api::AnonymizeResponse& response);

struct ResultCacheOptions {
  /// Total bytes the cache may hold, an entry costing its payload's size plus
  /// its key's; inserting past it evicts least-recently-used entries first.
  /// Minimum one entry is always admitted so a single oversized result cannot
  /// wedge the cache.
  size_t byte_budget = 64u << 20;
};

/// A bounded LRU of encoded job payloads (EncodeResult) keyed on (dataset
/// content fingerprint, canonical policy). Thread-safe; the scheduler probes it
/// at admission and fills it after each successful cold run, and the
/// DatasetRegistry invalidates it on delta/replace/quarantine/Clear.
/// Correctness never depends on invalidation — keys carry the content
/// fingerprint, so changed data simply misses — but invalidation keeps dead
/// entries from squatting on the byte budget and is metered:
/// serve.cache.{hits,misses,evictions,invalidations}, plus
/// serve.cache.{bytes,entries} gauges.
///
/// Failpoint site `serve.cache.fill` runs inside Put: a delay policy makes
/// fills slow (the concurrency tests race Get against it), an error policy
/// drops the fill entirely (the cache stays consistent, merely colder).
class ResultCache {
 public:
  explicit ResultCache(ResultCacheOptions options = {});
  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// The payload stored under `key`, marked most recently used; null on a
  /// miss. Counts serve.cache.hits / serve.cache.misses.
  std::shared_ptr<const std::string> Get(const std::string& key);

  /// Stores the non-null `payload` under `key` (refreshing it), evicting LRU
  /// entries until the budget holds. `dataset` is the registry name the entry
  /// was computed under — the handle InvalidateDataset uses.
  void Put(const std::string& key, const std::string& dataset,
           std::shared_ptr<const std::string> payload);

  /// Drops every entry recorded under `dataset`. Counts one
  /// serve.cache.invalidations per dropped entry.
  void InvalidateDataset(const std::string& dataset);

  /// Drops everything (registry Clear()).
  void InvalidateAll();

  size_t entries() const;
  size_t bytes() const;
  size_t byte_budget() const { return options_.byte_budget; }

 private:
  struct Entry {
    std::string dataset;
    std::shared_ptr<const std::string> payload;
    std::list<std::string>::iterator lru_it;  ///< Position in lru_.
  };

  /// Caller holds mutex_. Removes one entry and fixes the accounting.
  void EraseLocked(std::map<std::string, Entry>::iterator it);

  ResultCacheOptions options_;
  mutable std::mutex mutex_;
  size_t bytes_ = 0;
  std::list<std::string> lru_;  ///< Front = most recently used.
  std::map<std::string, Entry> entries_;
};

}  // namespace vadasa::serve

#endif  // VADASA_SERVE_RESULT_CACHE_H_
