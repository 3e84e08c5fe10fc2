#include "serve/dataset_registry.h"

#include <atomic>
#include <filesystem>
#include <system_error>
#include <utility>

#include "common/failpoint.h"
#include "core/categorize.h"
#include "obs/trace.h"
#include "serve/result_cache.h"

namespace vadasa::serve {

namespace {

/// A snapshot of `table` under `name`, stamped with the next generation. The
/// counter is process-wide, not per registry: one result cache may serve
/// several registries, and each generation must name one snapshot among all
/// of them. A null `warm` starts the version cold.
std::shared_ptr<const LoadedDataset> NewSnapshot(
    const std::string& name, std::shared_ptr<const core::MicrodataTable> table,
    std::shared_ptr<const core::MetadataDictionary> dictionary,
    std::shared_ptr<api::WarmState> warm = nullptr, uint64_t version = 1) {
  static std::atomic<uint64_t> last_generation{0};
  auto snapshot = std::make_shared<LoadedDataset>();
  snapshot->path = name;
  snapshot->warm = warm != nullptr ? std::move(warm)
                                   : std::make_shared<api::WarmState>(table);
  snapshot->table = std::move(table);
  snapshot->dictionary = std::move(dictionary);
  snapshot->generation =
      last_generation.fetch_add(1, std::memory_order_relaxed) + 1;
  snapshot->version = version;
  return snapshot;
}

}  // namespace

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
  return NewSnapshot(path,
                     std::make_shared<const core::MicrodataTable>(std::move(table)),
                     std::move(dictionary));
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
  // already-cached datasets. Two racing loads of one path both parse; the
  // publish below keeps whichever snapshot it sees first.
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
      // to the generation it last loaded with) stop squatting on the cache
      // budget.
      if (result_cache_ != nullptr) result_cache_->InvalidateDataset(path);
    }
    return loaded.status();
  }
  failures_.erase(path);  // A clean load ends the streak.
  VADASA_METRIC_COUNT("serve.registry.loads", 1);
  return PublishLocked(std::move(*loaded), /*replace=*/false);
}

std::shared_ptr<const LoadedDataset> DatasetRegistry::PublishLocked(
    std::shared_ptr<const LoadedDataset> snapshot, bool replace) {
  auto [it, inserted] = datasets_.try_emplace(snapshot->path, snapshot);
  if (inserted) order_.push_back(it->first);
  // Without `replace` the first snapshot stays: a load that lost the race to
  // publish, like a second Register, discards its own, generation and all.
  if (!replace) return it->second;
  it->second = std::move(snapshot);
  // Invalidation is hygiene: jobs submitted from now on carry the new
  // generation and would miss anyway, but the replaced snapshot's payloads
  // stop squatting on the cache budget.
  if (result_cache_ != nullptr) result_cache_->InvalidateDataset(it->first);
  return it->second;
}

Status DatasetRegistry::Register(const std::string& name,
                                 core::MicrodataTable table) {
  VADASA_RETURN_NOT_OK(table.Validate());
  auto snapshot = NewSnapshot(
      name, std::make_shared<const core::MicrodataTable>(std::move(table)),
      std::make_shared<core::MetadataDictionary>());
  std::lock_guard<std::mutex> lock(mutex_);
  if (PublishLocked(snapshot, /*replace=*/false) != snapshot) {
    return Status::AlreadyExists("dataset \"" + name + "\" already registered");
  }
  return Status::OK();
}

Status DatasetRegistry::Replace(const std::string& name,
                                core::MicrodataTable table) {
  VADASA_RETURN_NOT_OK(table.Validate());
  auto snapshot = NewSnapshot(
      name, std::make_shared<const core::MicrodataTable>(std::move(table)),
      std::make_shared<core::MetadataDictionary>());
  std::lock_guard<std::mutex> lock(mutex_);
  PublishLocked(std::move(snapshot), /*replace=*/true);
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
  // The dictionary stays: a delta leaves the schema unchanged.
  auto snapshot = NewSnapshot(name, child.shared_table(), base->dictionary,
                              child.warm_state(), base->version + 1);
  std::lock_guard<std::mutex> lock(mutex_);
  VADASA_METRIC_COUNT("serve.registry.delta_applies", 1);
  return PublishLocked(std::move(snapshot), /*replace=*/true);
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
