#ifndef PERFBENCH_SCRIPT_H_
#define PERFBENCH_SCRIPT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/csv.h"
#include "common/result.h"
#include "core/delta.h"

namespace perfbench {

/// Everything a run does is fixed by its seed: the generated tables, the
/// analyst's request order and fresh cache keys, and the feed's delta
/// batches. Scripts are count-bounded, so two runs of one seed send the
/// same operations whatever the machine's speed.

/// One of the three analyst policies the serve workload fills into the
/// result cache during set-up.
struct ServePolicy {
  const char* measure;
  int k;
};
inline constexpr ServePolicy kHitPolicies[3] = {
    {"k-anonymity", 2}, {"k-anonymity", 3}, {"reidentification", 2}};

/// The fixed seed of the cache fills; fresh seeds never take this value.
inline constexpr uint64_t kFillSeed = 7;

/// One step of the analyst connection.
struct AnalystStep {
  uint64_t risk_seed = 0;  ///< Fresh: a new cache key every time.
  int hit[2] = {0, 1};     ///< Two distinct kHitPolicies indices.
  bool release = false;    ///< Every fifth step: a guaranteed miss.
  int release_policy = 0;
  uint64_t release_seed = 0;  ///< Fresh.
};

/// `steps` + 1 steps; step 0 is the untimed warm-up and carries every class.
std::vector<AnalystStep> MakeAnalystScript(uint64_t seed, size_t steps);

/// One row operation of a feed batch, cells in CSV cell syntax.
struct FeedOp {
  enum Kind { kAppend, kUpdate, kDelete };
  Kind kind = kAppend;
  uint32_t row = 0;
  std::vector<std::string> cells;
};
using FeedBatch = std::vector<FeedOp>;

/// Ops per batch as a share of the table's rows, and their fixed mix.
inline constexpr double kFeedBatchShare = 0.002;
inline constexpr double kFeedUpdateShare = 0.6;  ///< Appends = deletes = 0.2.

/// `count` batches against a table whose CSV is `csv`. Appends and deletes
/// are equal in number, so every batch addresses the same row count; cells
/// are drawn from the table's own column values.
std::vector<FeedBatch> MakeFeedBatches(const vadasa::CsvTable& csv,
                                       uint64_t seed, size_t count);

/// The protocol-v2 apply_delta request line for `batch`.
std::string DeltaRequestLine(const std::string& dataset, const FeedBatch& batch);

/// The same batch for the in-process api::Session::Apply reference chain,
/// decoded exactly as the server decodes wire cells.
vadasa::Result<vadasa::core::DeltaBatch> ToDeltaBatch(const FeedBatch& batch,
                                                      size_t num_columns);

}  // namespace perfbench

#endif  // PERFBENCH_SCRIPT_H_
