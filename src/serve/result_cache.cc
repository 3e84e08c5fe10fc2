#include "serve/result_cache.h"

#include <cstdio>
#include <utility>

#include "common/failpoint.h"
#include "common/json.h"
#include "obs/metrics.h"

namespace vadasa::serve {

namespace {

constexpr uint64_t kFnvOffset = 1469598103934665603ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

void FnvMix(uint64_t* hash, const char* data, size_t size) {
  uint64_t h = *hash;
  for (size_t i = 0; i < size; ++i) {
    h ^= static_cast<unsigned char>(data[i]);
    h *= kFnvPrime;
  }
  *hash = h;
}

// Field separator outside the byte alphabet of the data, so ("ab","c") and
// ("a","bc") hash differently.
constexpr char kFieldSeparator = '\x1f';

void FnvMixString(uint64_t* hash, const std::string& s) {
  FnvMix(hash, s.data(), s.size());
  FnvMix(hash, &kFieldSeparator, 1);
}

/// Shortest round-trippable spelling of a double for key strings.
std::string DoubleKey(double v) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", v);
  return buffer;
}

struct CacheMeters {
  obs::Counter* hits;
  obs::Counter* misses;
  obs::Counter* evictions;
  obs::Counter* invalidations;
  obs::Gauge* bytes;
  obs::Gauge* entries;

  static CacheMeters& Get() {
    static CacheMeters* meters = [] {
      auto& registry = obs::MetricsRegistry::Global();
      auto* m = new CacheMeters();
      m->hits = registry.counter("serve.cache.hits");
      m->misses = registry.counter("serve.cache.misses");
      m->evictions = registry.counter("serve.cache.evictions");
      m->invalidations = registry.counter("serve.cache.invalidations");
      m->bytes = registry.gauge("serve.cache.bytes");
      m->entries = registry.gauge("serve.cache.entries");
      return m;
    }();
    return *meters;
  }
};

}  // namespace

uint64_t FingerprintTable(const core::MicrodataTable& table) {
  uint64_t hash = kFnvOffset;
  for (const core::Attribute& attribute : table.attributes()) {
    FnvMixString(&hash, attribute.name);
    FnvMixString(&hash, core::AttributeCategoryToString(attribute.category));
  }
  // The CSV text covers every cell (weights included) in row-major order; a
  // one-cell edit lands in the stream and flips the fingerprint. FNV-1a reads
  // bytes in order, so mixing it a line at a time hashes the same stream as
  // mixing the whole text at once.
  std::string line;
  table.AppendCsvHeader(&line);
  FnvMix(&hash, line.data(), line.size());
  for (size_t r = 0; r < table.num_rows(); ++r) {
    line.clear();
    table.AppendCsvRow(&line, r);
    FnvMix(&hash, line.data(), line.size());
  }
  FnvMix(&hash, &kFieldSeparator, 1);
  return hash;
}

std::string CanonicalPolicyKey(const api::SessionOptions& options,
                               JobAction action, double quantile,
                               bool explain) {
  std::string key;
  key.reserve(160);
  key += "measure=" + options.risk_measure;
  key += ";k=" + std::to_string(options.k);
  key += ";threshold=" + DoubleKey(options.threshold);
  key += options.standard_nulls ? ";standard_nulls=1" : ";standard_nulls=0";
  key += options.single_step ? ";single_step=1" : ";single_step=0";
  key += options.declarative ? ";declarative=1" : ";declarative=0";
  key += ";posterior_draws=" + std::to_string(options.posterior_draws);
  key += ";seed=" + std::to_string(options.seed);
  key += action == JobAction::kRisk ? ";action=risk" : ";action=anonymize";
  key += ";quantile=" + DoubleKey(quantile);
  key += explain ? ";explain=1" : ";explain=0";
  return key;
}

std::string ResultCacheKey(uint64_t fingerprint,
                           const std::string& policy_key) {
  char prefix[24];
  std::snprintf(prefix, sizeof(prefix), "%016llx|",
                static_cast<unsigned long long>(fingerprint));
  return prefix + policy_key;
}

std::string EncodeResult(const api::RiskReport& report) {
  Json::Object risk;
  risk["threshold"] = report.threshold;
  if (report.inferred_threshold >= 0.0) {
    risk["inferred_threshold"] = report.inferred_threshold;
  }
  Json::Array risky;
  risky.reserve(report.risky.size());
  for (const api::RiskyTuple& tuple : report.risky) {
    Json::Object entry;
    entry["row"] = static_cast<int64_t>(tuple.row);
    entry["risk"] = tuple.risk;
    if (!tuple.explanation.empty()) entry["explanation"] = tuple.explanation;
    risky.emplace_back(std::move(entry));
  }
  risk["risky"] = std::move(risky);
  Json::Object global;
  global["expected_reidentifications"] = report.global.expected_reidentifications;
  global["global_risk_rate"] = report.global.global_risk_rate;
  global["tuples_over_threshold"] =
      static_cast<int64_t>(report.global.tuples_over_threshold);
  global["max_risk"] = report.global.max_risk;
  global["sample_uniques"] = static_cast<int64_t>(report.global.sample_uniques);
  risk["global"] = std::move(global);
  // "tuple_risks" sorts after every other member, so it is the last one
  // Json::Dump would write: the per-tuple numbers are appended behind the
  // dumped members, each through Dump's own number writer, instead of being
  // built as a Json array first.
  std::string out = "\"risk\":";
  out += Json(std::move(risk)).Dump();
  out.pop_back();  // The closing brace.
  // Every number takes at least one byte and a separator.
  out.reserve(out.size() + 2 * report.tuple_risks.size() + 18);
  out += ",\"tuple_risks\":[";
  for (size_t i = 0; i < report.tuple_risks.size(); ++i) {
    if (i > 0) out.push_back(',');
    AppendJsonNumber(&out, report.tuple_risks[i]);
  }
  out += "]}";
  return out;
}

std::string EncodeResult(const api::AnonymizeResponse& response) {
  std::string out = "\"audit\":";
  AppendJsonQuoted(&out, response.ToText());
  // The CSV text is JSON-escaped one line at a time as it is written, the
  // way FingerprintTable hashes it, so the table is never held as text.
  out += ",\"csv\":\"";
  const core::MicrodataTable& table = response.table;
  std::string line;
  table.AppendCsvHeader(&line);
  AppendJsonEscaped(&out, line);
  for (size_t r = 0; r < table.num_rows(); ++r) {
    line.clear();
    table.AppendCsvRow(&line, r);
    AppendJsonEscaped(&out, line);
  }
  out.push_back('"');
  // The payload is kept for the job's life and in the cache: drop the slack
  // its growth left.
  out.shrink_to_fit();
  return out;
}

ResultCache::ResultCache(ResultCacheOptions options) : options_(options) {
  // Touch the meters so scrapes carry them before the first request.
  CacheMeters::Get();
}

std::shared_ptr<const std::string> ResultCache::Get(const std::string& key) {
  auto& meters = CacheMeters::Get();
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    meters.misses->Add(1);
    return nullptr;
  }
  lru_.splice(lru_.begin(), lru_, it->second.lru_it);
  meters.hits->Add(1);
  return it->second.payload;
}

void ResultCache::Put(const std::string& key, const std::string& dataset,
                      std::shared_ptr<const std::string> payload) {
  // Injected slow/failed fill: a delay policy stretches the window the
  // concurrency tests race Get against; an error policy drops the fill (a
  // cache that stays cold is merely slower, never wrong).
  static failpoint::Failpoint* fill_fp =
      failpoint::GetFailpoint("serve.cache.fill");
  if (fill_fp->armed() && fill_fp->Fires()) return;
  const size_t cost = payload->size() + key.size();
  auto& meters = CacheMeters::Get();
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(key);
  if (it != entries_.end()) EraseLocked(it);
  // Evict from the cold end until this entry fits. The newest entry itself
  // is always admitted, even over budget: rejecting it would pin whatever
  // happened to load first and starve the hot set.
  while (!entries_.empty() && bytes_ + cost > options_.byte_budget) {
    auto victim = entries_.find(lru_.back());
    EraseLocked(victim);
    meters.evictions->Add(1);
  }
  lru_.push_front(key);
  entries_.emplace(key, Entry{dataset, std::move(payload), lru_.begin()});
  bytes_ += cost;
  meters.bytes->Set(static_cast<double>(bytes_));
  meters.entries->Set(static_cast<double>(entries_.size()));
}

void ResultCache::InvalidateDataset(const std::string& dataset) {
  auto& meters = CacheMeters::Get();
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (it->second.dataset == dataset) {
      EraseLocked(it++);
      meters.invalidations->Add(1);
    } else {
      ++it;
    }
  }
  meters.bytes->Set(static_cast<double>(bytes_));
  meters.entries->Set(static_cast<double>(entries_.size()));
}

void ResultCache::InvalidateAll() {
  auto& meters = CacheMeters::Get();
  std::lock_guard<std::mutex> lock(mutex_);
  meters.invalidations->Add(entries_.size());
  entries_.clear();
  lru_.clear();
  bytes_ = 0;
  meters.bytes->Set(0.0);
  meters.entries->Set(0.0);
}

size_t ResultCache::entries() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

size_t ResultCache::bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return bytes_;
}

void ResultCache::EraseLocked(std::map<std::string, Entry>::iterator it) {
  bytes_ -= it->second.payload->size() + it->first.size();
  lru_.erase(it->second.lru_it);
  entries_.erase(it);
}

}  // namespace vadasa::serve
