#include "serve/dataset_registry.h"

#include <filesystem>
#include <system_error>
#include <utility>

#include "common/failpoint.h"
#include "core/categorize.h"
#include "obs/trace.h"
#include "serve/result_cache.h"

namespace vadasa::serve {

DatasetRegistry::DatasetRegistry() {
  // Touch the degraded-mode counters so the Prometheus exposition carries
  // them from the first scrape, not only after the first fault.
  obs::MetricsRegistry::Global().counter("serve.registry.load_failures");
  obs::MetricsRegistry::Global().counter("serve.registry.quarantined");
}

Result<std::shared_ptr<const LoadedDataset>> DatasetRegistry::LoadUncached(
    const std::string& path) {
  obs::Span span("serve.registry.load");
  VADASA_FAILPOINT("serve.registry.load");
  // A client names the path, so refuse anything but a regular file before
  // opening it: opening a FIFO blocks the connection thread, and a device
  // such as /dev/zero reads until memory runs out. A missing path is left
  // to the loader's IoError.
  std::error_code ec;
  const std::filesystem::file_status status = std::filesystem::status(path, ec);
  if (std::filesystem::exists(status) && !std::filesystem::is_regular_file(status)) {
    return Status::InvalidArgument("dataset \"" + path + "\" is not a regular file");
  }
  VADASA_ASSIGN_OR_RETURN(core::MicrodataTable table,
                          core::MicrodataTable::LoadCsv(path));
  VADASA_FAILPOINT("serve.registry.categorize");
  core::AttributeCategorizer categorizer =
      core::AttributeCategorizer::WithDefaultExperience();
  auto dictionary = std::make_shared<core::MetadataDictionary>();
  VADASA_RETURN_NOT_OK(
      categorizer.CategorizeTable(&table, dictionary.get()).status());
  auto loaded = std::make_shared<LoadedDataset>();
  loaded->path = path;
  loaded->table = std::make_shared<const core::MicrodataTable>(std::move(table));
  loaded->dictionary = std::move(dictionary);
  loaded->warm = std::make_shared<api::WarmState>(loaded->table);
  loaded->fingerprint = FingerprintTable(*loaded->table);
  return std::shared_ptr<const LoadedDataset>(std::move(loaded));
}

Result<std::shared_ptr<const LoadedDataset>> DatasetRegistry::Load(
    const std::string& path) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = datasets_.find(path);
    if (it != datasets_.end()) {
      VADASA_METRIC_COUNT("serve.registry.hits", 1);
      return it->second;
    }
    auto failed = failures_.find(path);
    if (failed != failures_.end() && failed->second.quarantined) {
      // A poisoned dataset is not retried on every request: the structured
      // error tells the client (and the slow log) why, until Clear().
      return Status::FailedPrecondition(
          "dataset \"" + path + "\" quarantined after " +
          std::to_string(failed->second.failures) +
          " failed load(s); last error: " +
          failed->second.last_error.ToString());
    }
  }
  // Load outside the lock: parsing a big CSV must not serialize lookups of
  // already-cached datasets. A racing double-load is benign — last one wins
  // and both snapshots are correct.
  auto loaded = LoadUncached(path);
  std::lock_guard<std::mutex> lock(mutex_);
  if (!loaded.ok()) {
    VADASA_METRIC_COUNT("serve.registry.load_failures", 1);
    FailureRecord& record = failures_[path];
    record.failures += 1;
    record.last_error = loaded.status();
    if (!record.quarantined && record.failures >= quarantine_after_) {
      record.quarantined = true;
      VADASA_METRIC_COUNT("serve.registry.quarantined", 1);
      // A quarantined dataset stops serving, so its cached payloads (keyed
      // to whatever fingerprint it last loaded with) stop squatting on the
      // cache budget.
      if (result_cache_ != nullptr) result_cache_->InvalidateDataset(path);
    }
    return loaded.status();
  }
  failures_.erase(path);  // A clean load ends the streak.
  VADASA_METRIC_COUNT("serve.registry.loads", 1);
  auto [it, inserted] = datasets_.emplace(path, std::move(*loaded));
  if (inserted) order_.push_back(path);
  return it->second;
}

Status DatasetRegistry::Register(const std::string& name,
                                 core::MicrodataTable table) {
  VADASA_RETURN_NOT_OK(table.Validate());
  auto loaded = std::make_shared<LoadedDataset>();
  loaded->path = name;
  loaded->table = std::make_shared<const core::MicrodataTable>(std::move(table));
  loaded->dictionary = std::make_shared<core::MetadataDictionary>();
  loaded->warm = std::make_shared<api::WarmState>(loaded->table);
  loaded->fingerprint = FingerprintTable(*loaded->table);
  std::lock_guard<std::mutex> lock(mutex_);
  auto [it, inserted] = datasets_.emplace(name, std::move(loaded));
  (void)it;
  if (!inserted) {
    return Status::AlreadyExists("dataset \"" + name + "\" already registered");
  }
  order_.push_back(name);
  return Status::OK();
}

Status DatasetRegistry::Replace(const std::string& name,
                                core::MicrodataTable table) {
  VADASA_RETURN_NOT_OK(table.Validate());
  auto loaded = std::make_shared<LoadedDataset>();
  loaded->path = name;
  loaded->table = std::make_shared<const core::MicrodataTable>(std::move(table));
  loaded->dictionary = std::make_shared<core::MetadataDictionary>();
  loaded->warm = std::make_shared<api::WarmState>(loaded->table);
  loaded->fingerprint = FingerprintTable(*loaded->table);
  std::lock_guard<std::mutex> lock(mutex_);
  auto [it, inserted] = datasets_.insert_or_assign(name, std::move(loaded));
  (void)it;
  if (inserted) order_.push_back(name);
  // Invalidation is hygiene: jobs submitted from now on carry the new
  // fingerprint and would miss anyway.
  if (result_cache_ != nullptr) result_cache_->InvalidateDataset(name);
  return Status::OK();
}

Result<std::shared_ptr<const LoadedDataset>> DatasetRegistry::ApplyDelta(
    const std::string& name, const core::DeltaBatch& batch) {
  obs::Span span("serve.registry.apply_delta");
  VADASA_ASSIGN_OR_RETURN(const auto base, Load(name));
  // The table rebuild and the warm-state derivation happen outside the lock,
  // like Load(): a delta against a wide dataset must not serialize lookups of
  // other datasets. Session::Apply does both; the policy is irrelevant here.
  VADASA_ASSIGN_OR_RETURN(
      const api::Session parent,
      api::Session::FromShared(base->table, base->dictionary, {}, base->warm));
  VADASA_ASSIGN_OR_RETURN(const api::Session child, parent.Apply(batch));
  auto loaded = std::make_shared<LoadedDataset>();
  loaded->path = name;
  loaded->table = child.shared_table();
  loaded->dictionary = base->dictionary;  // Schema unchanged by a delta.
  loaded->warm = child.warm_state();
  loaded->fingerprint = FingerprintTable(*loaded->table);
  loaded->version = base->version + 1;
  std::lock_guard<std::mutex> lock(mutex_);
  auto [it, inserted] = datasets_.insert_or_assign(name, std::move(loaded));
  if (inserted) order_.push_back(name);
  // Invalidation is hygiene: jobs submitted from now on carry the post-delta
  // fingerprint and would miss anyway, but the pre-delta payloads stop
  // squatting on the cache budget.
  if (result_cache_ != nullptr) result_cache_->InvalidateDataset(name);
  VADASA_METRIC_COUNT("serve.registry.delta_applies", 1);
  return it->second;
}

void DatasetRegistry::set_result_cache(ResultCache* cache) {
  std::lock_guard<std::mutex> lock(mutex_);
  result_cache_ = cache;
}

Result<api::Session> DatasetRegistry::OpenSession(const std::string& path,
                                                  api::SessionOptions options) {
  VADASA_ASSIGN_OR_RETURN(const auto dataset, Load(path));
  return api::Session::FromShared(dataset->table, dataset->dictionary,
                                  std::move(options), dataset->warm);
}

std::vector<std::string> DatasetRegistry::Catalog() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return order_;
}

bool DatasetRegistry::IsQuarantined(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = failures_.find(path);
  return it != failures_.end() && it->second.quarantined;
}

void DatasetRegistry::Clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  datasets_.clear();
  order_.clear();
  failures_.clear();
  if (result_cache_ != nullptr) result_cache_->InvalidateAll();
}

}  // namespace vadasa::serve
