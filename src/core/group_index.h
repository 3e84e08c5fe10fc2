#ifndef VADASA_CORE_GROUP_INDEX_H_
#define VADASA_CORE_GROUP_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/value.h"
#include "core/columnar.h"
#include "core/delta.h"
#include "core/microdata.h"

namespace vadasa::core {

/// How labelled nulls compare when forming aggregation groups (Section 4.3).
enum class NullSemantics {
  /// The paper's =⊥ maybe-match: a null matches anything, so a tuple with
  /// nulls joins every group it may belong to (groups stop partitioning).
  kMaybeMatch,
  /// Standard (Skolem-chase) semantics: ⊥_i = ⊥_j iff i == j. The Fig. 7c
  /// baseline that makes suppression ineffective.
  kStandard,
};

/// Maybe-match wildcarding tracks null positions in a 32-bit mask, so the
/// class-projection algorithms support at most this many quasi-identifiers.
inline constexpr size_t kMaxMaybeMatchQis = 32;

/// Fails when `qi_columns` is too wide for the chosen semantics. Risk
/// measures and the cycle call this before grouping; ComputeGroupStats itself
/// stays guarded (no undefined behavior) but silently treats columns beyond
/// the mask width as never-null under kMaybeMatch.
Status ValidateQiWidth(const std::vector<size_t>& qi_columns, NullSemantics semantics);

/// Per-row group statistics over a quasi-identifier projection.
struct GroupStats {
  /// Number of rows whose QI projection matches this row's (including it).
  std::vector<double> frequency;
  /// Sum of sampling weights over those matching rows.
  std::vector<double> weight_sum;
};

/// Computes, for every row, the frequency and weight mass of its
/// quasi-identifier combination under the chosen null semantics.
///
/// Under kStandard this is a plain hash partition. Under kMaybeMatch the
/// computation groups patterns by their null-position sets and matches
/// projections, so the cost is
/// O(#rows + #null-set-classes^2 · #patterns · |qi|) rather than the naive
/// O(#rows^2 · |qi|).
///
/// Rows are grouped as packed dictionary codes (see columnar.h). The
/// row→pattern projection and hashing run on ThreadPool::Global(); the result
/// is bit-identical for any thread count (see thread_pool.h).
///
/// Every from-scratch grouping — this function, ComputeEquivalenceClasses and
/// each GroupIndex build — counts one `group_index.partitions_built`.
GroupStats ComputeGroupStats(const MicrodataTable& table,
                             const std::vector<size_t>& qi_columns,
                             NullSemantics semantics);

/// Counts rows of `table` whose QI projection maybe-matches `pattern`
/// (`pattern` has one entry per qi_column; nulls are wildcards). Under
/// kStandard, nulls match only nulls with the same label. Linear scan —
/// intended for small tables and tests; GroupIndex::Query answers the same
/// question from the index.
double CountMatches(const MicrodataTable& table, const std::vector<size_t>& qi_columns,
                    const std::vector<Value>& pattern, NullSemantics semantics);

/// Equivalence-class statistics of a QI projection — the file-level summary
/// SDC tools (sdcMicro, ARX) report next to the per-tuple risks.
struct EquivalenceClassStats {
  size_t num_classes = 0;
  size_t uniques = 0;            ///< Classes of size 1.
  double mean_class_size = 0.0;
  size_t min_class_size = 0;
  size_t max_class_size = 0;
  /// histogram[k] = number of classes of size k+1, up to size 10 (larger
  /// classes are accumulated in the last bucket).
  std::vector<size_t> histogram;
};

/// Computes the partition statistics under *strict* equality (equivalence
/// classes are a partition; the maybe-match relation is not transitive, so
/// class statistics are only defined for the strict semantics).
EquivalenceClassStats ComputeEquivalenceClasses(const MicrodataTable& table,
                                                const std::vector<size_t>& qi_columns);

/// Row count and weight mass compatible with a queried pattern.
struct PatternMass {
  double count = 0.0;
  double weight = 0.0;
};

/// The incremental QI group index — the cycle's replacement for re-running
/// ComputeGroupStats on every iteration, and its what-if oracle: Query()
/// answers "how many rows would maybe-match this (possibly null-bearing)
/// pattern?" for the most-risky-first quasi-identifier heuristic (Section 4.4)
/// without rescanning the table.
///
/// Built once from the table, then kept in sync via UpdateRows() as the
/// anonymizer suppresses or recodes cells. Updates move only the touched rows
/// between patterns and mark the affected null-mask classes dirty; Stats()
/// and Query() re-aggregate lazily, rebuilding only projection indexes of
/// dirty classes (dirty-group invalidation). Both frequencies and weight sums
/// are bit-identical to a from-scratch rebuild: per-pattern aggregates are
/// re-derived in ascending row order and projection indexes accumulate class
/// members in canonical first-row order, so incremental maintenance never
/// drifts from the cold answer (see docs/performance.md and the
/// delta-vs-full-recompute-bit-identical property).
class GroupIndex {
 public:
  GroupIndex(const MicrodataTable& table, std::vector<size_t> qi_columns,
             NullSemantics semantics);

  /// Constructor sharing a caller-owned view: the caller (the RiskEvalCache)
  /// updates the view once per batch of row changes before calling
  /// UpdateRows, so indexes over different QI subsets never re-intern the
  /// same cells. A null view makes the index materialize its own.
  GroupIndex(const MicrodataTable& table, std::vector<size_t> qi_columns,
             NullSemantics semantics, std::shared_ptr<ColumnarView> shared_view);
  ~GroupIndex();

  GroupIndex(const GroupIndex&) = delete;
  GroupIndex& operator=(const GroupIndex&) = delete;

  /// Re-projects `rows` against the current table contents and updates the
  /// pattern partition in place. `table` must be the same (evolving) table
  /// the index was built from.
  void UpdateRows(const MicrodataTable& table, const std::vector<uint32_t>& rows);

  /// Copy-on-write delta maintenance (docs/api.md §"Streaming deltas"): a new
  /// index over `new_table`, which must be this index's table with a
  /// DeltaBatch applied (ApplyDeltaToTable produced both `new_table` and
  /// `plan`). The pattern partition is cloned and patched — deleted rows are
  /// detached and the numbering compacted, updated and appended rows are
  /// re-projected — so only patterns the delta touches are re-aggregated and
  /// only their null-mask classes lose memoized projection indexes; everything
  /// else (pattern keys, row lists, warm projection indexes, the columnar
  /// dictionaries) is inherited. The result is bit-identical to building a
  /// fresh index from `new_table` (enforced end to end by the
  /// delta-vs-full-recompute-bit-identical property). This index is not
  /// modified and stays fully usable — in-flight readers of pre-delta state
  /// are unaffected. `new_table` must outlive the returned index.
  std::unique_ptr<GroupIndex> ApplyDelta(const MicrodataTable& new_table,
                                         const DeltaRowPlan& plan) const;

  /// Per-row group statistics; re-aggregated lazily after updates.
  const GroupStats& Stats() const;

  /// Row count and weight mass compatible with `pattern` (one entry per QI
  /// column; nulls are wildcards under kMaybeMatch). Projection indexes are
  /// built lazily per (null-class, query mask) pair and memoized.
  PatternMass Query(const std::vector<Value>& pattern) const;

  const std::vector<size_t>& qi_columns() const;
  NullSemantics semantics() const;
  size_t num_rows() const;
  size_t num_patterns() const;

  /// Replaces the shared columnar view (cache-internal, used when the table
  /// shape changed and the cache rematerialized). The next UpdateRows
  /// detects the swap and rebuilds from the new view.
  void AdoptView(std::shared_ptr<ColumnarView> view);

  /// The columnar view backing this index — what a RiskEvalCache seeded
  /// with this index hands SUDA instead of materializing its own.
  std::shared_ptr<const ColumnarView> shared_view() const;

  /// Observability: how many times the index was built from scratch (1 unless
  /// the table shape changed under us) and how many incremental row updates
  /// it absorbed.
  size_t full_builds() const;
  size_t incremental_updates() const;

 private:
  struct Impl;

  /// Uninitialized shell for ApplyDelta to graft a cloned impl onto.
  GroupIndex() = default;

  std::unique_ptr<Impl> impl_;
};

/// Memoizes per-iteration risk-evaluation state so that RiskMeasure::Explain
/// (called once per logged row) and the QI-choice heuristic reuse the stats
/// the iteration's ComputeRisks already produced, instead of recomputing full
/// group statistics per call. One cache serves one evolving table, whose
/// owner reports mutations via NotifyRowsChanged; that forwards them to the
/// incremental GroupIndexes and invalidates the per-measure memos.
///
/// `warm` is a dataset version's shared index (api::WarmState) over the exact
/// table this cache serves, Stats() already forced. Until the first
/// NotifyRowsChanged, Stats() and SharedView() answer from it for its QI
/// columns and semantics. It is never queried or updated — Query() and
/// UpdateRows() memoize inside const methods — so Index() is always private.
class RiskEvalCache {
 public:
  explicit RiskEvalCache(std::shared_ptr<const GroupIndex> warm = nullptr);
  ~RiskEvalCache();

  RiskEvalCache(const RiskEvalCache&) = delete;
  RiskEvalCache& operator=(const RiskEvalCache&) = delete;

  /// The (incrementally maintained) group index for this projection; built on
  /// first use. Rebuilt from scratch only if the table row count changed.
  GroupIndex& Index(const MicrodataTable& table, const std::vector<size_t>& qi_columns,
                    NullSemantics semantics);

  /// The warm index's stats while they apply, else Index(...).Stats().
  const GroupStats& Stats(const MicrodataTable& table,
                          const std::vector<size_t>& qi_columns,
                          NullSemantics semantics);

  /// Reports that the given rows of the table were mutated since the last
  /// call. Updates the shared columnar view once (all indexes read the same
  /// refreshed codes), then forwards to every index and drops the
  /// type-erased memos.
  void NotifyRowsChanged(const MicrodataTable& table,
                         const std::vector<uint32_t>& rows);

  /// The columnar view shared by this cache's indexes, created on first use
  /// (and recreated when the table shape changes), or the warm index's view.
  /// The cycle and SUDA reuse it for code-space pattern guards and
  /// projections instead of materializing their own.
  std::shared_ptr<const ColumnarView> SharedView(const MicrodataTable& table);

  /// Bumped on every NotifyRowsChanged; lets measures key their own state.
  uint64_t version() const;

  /// Type-erased per-measure memo slots (e.g. SUDA's MSU details), dropped on
  /// NotifyRowsChanged. Returns nullptr when absent.
  std::shared_ptr<void> Memo(const std::string& key) const;
  void SetMemo(const std::string& key, std::shared_ptr<void> value);

  /// Aggregated counters over the private indexes, surfaced in CycleStats.
  size_t full_builds() const;
  size_t incremental_updates() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace vadasa::core

#endif  // VADASA_CORE_GROUP_INDEX_H_
