#include "core/group_index.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <unordered_map>
#include <utility>

#include "common/thread_pool.h"
#include "obs/trace.h"

// Code-space grouping
// -------------------
// Rows are projected onto packed dictionary codes read out of a ColumnarView
// (core/columnar.h), so per-cell hashing and comparison are flat word
// operations. Code equality coincides with Value::Equals exactly (the
// Dictionary interns through ValueHash/Equals, and labelled nulls get one
// code per label in a reserved band). No output depends on a hash table's
// iteration order or on the numeric value of a code: pattern ids follow
// first-occurrence row order, weights accumulate in ascending row order and
// classes aggregate in ascending mask order, so results are deterministic
// for any thread count. The `grouping-matches-naive-oracle` property in
// src/testing/properties.cc checks every output against a linear scan over
// the Value cells.

namespace vadasa::core {

namespace {

/// Rows per ParallelFor shard in the row→pattern collapse. Fixed (never
/// derived from the pool size) so the shard decomposition — and therefore the
/// result — is identical for every thread count.
constexpr size_t kCollapseGrain = 2048;

/// The QI code columns and weights of a view, bound for one AnonSet. Caches
/// raw pointers to the code and weight arrays — ColumnarView::UpdateRows
/// rewrites them in place and never reallocates, so the pointers stay valid
/// for as long as `view` keeps the view alive.
struct BoundColumns {
  std::shared_ptr<const ColumnarView> view;
  std::vector<const uint32_t*> cols;
  const double* weights = nullptr;

  void Bind(std::shared_ptr<const ColumnarView> v, const MicrodataTable& table,
            const std::vector<size_t>& qis) {
    view = std::move(v);
    view->EnsureColumns(table, qis);
    cols.clear();
    cols.reserve(qis.size());
    for (const size_t c : qis) cols.push_back(view->Codes(c).data());
    weights = view->Weights().data();
  }
  CodeRow Row(size_t r) const {
    CodeRow p;
    p.reserve(cols.size());
    for (const uint32_t* col : cols) p.push_back(col[r]);
    return p;
  }
  double Weight(size_t r) const { return weights[r]; }
};

/// Null positions of a key, confined to the mask width: bit i is set iff
/// key[i] is null and i < kMaxMaybeMatchQis. The explicit bound keeps
/// `1u << i` defined for arbitrarily wide AnonSets (ValidateQiWidth rejects
/// maybe-match grouping beyond the mask width at the risk-measure level).
uint32_t NullMaskOf(const CodeRow& key) {
  uint32_t mask = 0;
  const size_t limit = std::min(key.size(), kMaxMaybeMatchQis);
  for (size_t i = 0; i < limit; ++i) {
    if (IsNullCode(key[i])) mask |= (1u << i);
  }
  return mask;
}

/// Projection of a key onto the positions NOT in `mask`.
CodeRow ProjectOut(const CodeRow& key, uint32_t mask) {
  CodeRow out;
  out.reserve(key.size());
  const size_t limit = std::min(key.size(), kMaxMaybeMatchQis);
  for (size_t i = 0; i < limit; ++i) {
    if ((mask & (1u << i)) == 0) out.push_back(key[i]);
  }
  for (size_t i = limit; i < key.size(); ++i) out.push_back(key[i]);
  return out;
}

using ProjIndexKey = std::pair<uint32_t, uint32_t>;  // (class mask, union mask)

struct PatternInfo {
  CodeRow pattern;
  uint32_t null_mask = 0;  // Bit i set iff pattern[i] is a labelled null.
  double count = 0.0;
  double weight_sum = 0.0;
  std::vector<uint32_t> rows;  // Ascending.
};

using PatternIds = std::unordered_map<CodeRow, size_t, CodeRowHash>;
/// Projection index of one null-mask class under one union mask:
/// projected key -> (count, weight) totals.
using ProjIndex = std::unordered_map<CodeRow, std::pair<double, double>, CodeRowHash>;

ProjIndex BuildProjIndex(const std::vector<PatternInfo>& patterns,
                         const std::vector<size_t>& class_ids, uint32_t union_mask) {
  // Canonical accumulation order: class members sorted by their first row,
  // patterns emptied by deletes skipped. On a cold build this is exactly the
  // given id order (ids are assigned in first-occurrence row order and every
  // pattern is non-empty), so it changes nothing; on an incrementally
  // maintained partition (UpdateRows / ApplyDelta) it reproduces the order a
  // cold rebuild of the current table would use, which keeps the
  // floating-point weight sums bit-identical to that rebuild.
  std::vector<size_t> ordered;
  ordered.reserve(class_ids.size());
  for (const size_t p : class_ids) {
    if (!patterns[p].rows.empty()) ordered.push_back(p);
  }
  std::sort(ordered.begin(), ordered.end(), [&patterns](size_t a, size_t b) {
    return patterns[a].rows[0] < patterns[b].rows[0];
  });
  ProjIndex index;
  index.reserve(ordered.size() * 2);
  for (const size_t p : ordered) {
    auto& agg = index[ProjectOut(patterns[p].pattern, union_mask)];
    agg.first += patterns[p].count;
    agg.second += patterns[p].weight_sum;
  }
  return index;
}

/// Maybe-match aggregation over null-mask classes: for every pattern p1,
/// pat_freq[p1] / pat_wsum[p1] = mass of all patterns whose projections agree
/// with p1 outside the union of the two null sets. `memo` carries projection
/// indexes across calls (the GroupIndex invalidates dirty classes before
/// re-aggregating); missing indexes are built in parallel, and the
/// per-pattern sums run one class per task. All sums are accumulated in
/// ascending class-mask order — deterministic for any thread count.
void AggregateMaybeMatch(const std::vector<PatternInfo>& patterns,
                         const std::map<uint32_t, std::vector<size_t>>& classes,
                         std::map<ProjIndexKey, ProjIndex>* memo,
                         std::vector<double>* pat_freq, std::vector<double>* pat_wsum) {
  std::vector<uint32_t> masks;
  masks.reserve(classes.size());
  for (const auto& [mask, ids] : classes) {
    (void)ids;
    masks.push_back(mask);
  }

  // Phase 1: build the missing (class, union) projection indexes in parallel.
  std::set<ProjIndexKey> needed;
  for (const uint32_t m1 : masks) {
    for (const uint32_t m2 : masks) {
      needed.insert({m2, m1 | m2});
    }
  }
  std::vector<ProjIndexKey> missing;
  for (const ProjIndexKey& key : needed) {
    if (memo->find(key) == memo->end()) missing.push_back(key);
  }
  VADASA_METRIC_COUNT("group_index.proj_indexes_built", missing.size());
  std::vector<ProjIndex> built(missing.size());
  ThreadPool::Global().ParallelFor(0, missing.size(), 1,
                                   [&](size_t lo, size_t hi, size_t) {
                                     for (size_t i = lo; i < hi; ++i) {
                                       built[i] = BuildProjIndex(
                                           patterns, classes.at(missing[i].first),
                                           missing[i].second);
                                     }
                                   });
  for (size_t i = 0; i < missing.size(); ++i) {
    memo->emplace(missing[i], std::move(built[i]));
  }

  // Phase 2: per receiving class, sum every member pattern's compatible mass
  // over all classes. Classes write disjoint pat_freq/pat_wsum slots.
  ThreadPool::Global().ParallelFor(
      0, masks.size(), 1, [&](size_t lo, size_t hi, size_t) {
        for (size_t ci = lo; ci < hi; ++ci) {
          const uint32_t mask1 = masks[ci];
          for (const size_t p1 : classes.at(mask1)) {
            if (patterns[p1].rows.empty()) continue;  // Emptied by a delta; no row maps here.
            double freq = 0.0;
            double wsum = 0.0;
            for (const uint32_t mask2 : masks) {
              const uint32_t u = mask1 | mask2;
              const ProjIndex& index = memo->at({mask2, u});
              auto hit = index.find(ProjectOut(patterns[p1].pattern, u));
              if (hit != index.end()) {
                freq += hit->second.first;
                wsum += hit->second.second;
              }
            }
            (*pat_freq)[p1] = freq;
            (*pat_wsum)[p1] = wsum;
          }
        }
      });
}

/// The pattern partition of a table's QI projection: distinct code rows, row
/// membership, null-mask classes and memoized projection indexes. A cold
/// ComputeGroupStats builds one and discards it; a GroupIndex keeps one and
/// patches it in place.
struct PatternPartition {
  NullSemantics semantics = NullSemantics::kMaybeMatch;
  BoundColumns columns;
  std::vector<PatternInfo> patterns;
  PatternIds pattern_ids;
  std::vector<size_t> row_pattern;
  std::map<uint32_t, std::vector<size_t>> classes;  // mask -> pattern ids

  // Memoized projection indexes, shared by Stats() re-aggregation and
  // Query(); entries of a dirty class are dropped on UpdateRows.
  mutable std::map<ProjIndexKey, ProjIndex> proj_indexes;

  uint32_t ClassMask(const CodeRow& key) const {
    return semantics == NullSemantics::kMaybeMatch ? NullMaskOf(key) : 0;
  }

  /// Collapses rows [0, n) into distinct strict-equality patterns. Pattern
  /// ids are assigned in first-occurrence (row) order and per-pattern
  /// aggregates accumulate in row order, so the partition is independent of
  /// the thread count.
  void Build(size_t n) {
    VADASA_METRIC_COUNT("group_index.partitions_built", 1);
    patterns.clear();
    pattern_ids.clear();
    classes.clear();
    proj_indexes.clear();
    row_pattern.assign(n, 0);
    if (n == 0) return;

    // Parallel phase: each fixed shard of rows builds its own pattern table —
    // the per-row projection, hashing and equality probing is the hot part.
    struct ShardPattern {
      CodeRow values;
      std::vector<uint32_t> rows;
    };
    const size_t num_shards = (n + kCollapseGrain - 1) / kCollapseGrain;
    std::vector<std::vector<ShardPattern>> shards(num_shards);
    ThreadPool::Global().ParallelFor(
        0, n, kCollapseGrain, [&](size_t lo, size_t hi, size_t shard) {
          auto& local = shards[shard];
          PatternIds ids;
          ids.reserve((hi - lo) * 2);
          for (size_t r = lo; r < hi; ++r) {
            CodeRow p = columns.Row(r);
            auto it = ids.find(p);
            size_t id;
            if (it == ids.end()) {
              id = local.size();
              ids.emplace(p, id);
              local.push_back(ShardPattern{std::move(p), {}});
            } else {
              id = it->second;
            }
            local[id].rows.push_back(static_cast<uint32_t>(r));
          }
        });

    // Deterministic merge: shards are contiguous row ranges visited in order,
    // so global first-occurrence order equals row order and every pattern's
    // count/weight accumulates in ascending row order — exactly what a
    // sequential pass produces.
    pattern_ids.reserve(n * 2);
    for (auto& shard : shards) {
      for (auto& sp : shard) {
        auto it = pattern_ids.find(sp.values);
        size_t id;
        if (it == pattern_ids.end()) {
          id = patterns.size();
          PatternInfo info;
          info.null_mask = ClassMask(sp.values);
          info.pattern = std::move(sp.values);
          patterns.push_back(std::move(info));
          pattern_ids.emplace(patterns.back().pattern, id);
          classes[patterns.back().null_mask].push_back(id);
        } else {
          id = it->second;
        }
        PatternInfo& info = patterns[id];
        for (const uint32_t r : sp.rows) {
          info.count += 1.0;
          info.weight_sum += columns.Weight(r);
          info.rows.push_back(r);
          row_pattern[r] = id;
        }
      }
    }
    // Shrink the buckets sized for n rows to the pattern count: a GroupIndex
    // keeps its partition, and every delta clone copies the id map with its
    // bucket array.
    pattern_ids.rehash(patterns.size() * 2);
  }

  /// Re-derives a pattern's count/weight from its row list in row order, so
  /// the aggregates never drift through subtract-then-add rounding.
  void RecomputePatternAggregates(PatternInfo* info) const {
    info->count = static_cast<double>(info->rows.size());
    info->weight_sum = 0.0;
    for (const uint32_t r : info->rows) info->weight_sum += columns.Weight(r);
  }

  /// Finds or creates the pattern of `p` and inserts row `r` into its list
  /// (push_back when `at_tail` — appends carry the largest indices).
  size_t AttachKey(CodeRow p, uint32_t r, bool at_tail) {
    auto it = pattern_ids.find(p);
    size_t id;
    if (it == pattern_ids.end()) {
      id = patterns.size();
      PatternInfo info;
      info.null_mask = ClassMask(p);
      info.pattern = std::move(p);
      patterns.push_back(std::move(info));
      pattern_ids.emplace(patterns.back().pattern, id);
      classes[patterns.back().null_mask].push_back(id);
    } else {
      id = it->second;
    }
    PatternInfo& pat = patterns[id];
    if (at_tail) {
      pat.rows.push_back(r);
    } else {
      pat.rows.insert(std::upper_bound(pat.rows.begin(), pat.rows.end(), r), r);
    }
    return id;
  }

  static void DetachRow(PatternInfo* pat, uint32_t r) {
    pat->rows.erase(std::find(pat->rows.begin(), pat->rows.end(), r));
  }

  /// Dirty-group invalidation: only projection indexes involving a touched
  /// null-mask class are rebuilt by the next Stats()/Query().
  void DropProjIndexes(const std::set<uint32_t>& dirty_classes) {
    size_t dropped = 0;
    for (auto it = proj_indexes.begin(); it != proj_indexes.end();) {
      if (dirty_classes.count(it->first.first) > 0) {
        it = proj_indexes.erase(it);
        ++dropped;
      } else {
        ++it;
      }
    }
    VADASA_METRIC_COUNT("group_index.proj_indexes_dropped", dropped);
  }

  /// Moves the given rows between patterns per their current keys and drops
  /// the projection indexes of the dirtied null-mask classes; returns whether
  /// any row changed pattern.
  bool UpdateRows(const std::vector<uint32_t>& rows) {
    std::set<uint32_t> dirty_classes;
    for (const uint32_t r : rows) {
      CodeRow p = columns.Row(r);
      const size_t old_id = row_pattern[r];
      if (p == patterns[old_id].pattern) continue;  // No-op change.
      PatternInfo& old_pat = patterns[old_id];
      DetachRow(&old_pat, r);
      RecomputePatternAggregates(&old_pat);
      dirty_classes.insert(old_pat.null_mask);
      const size_t id = AttachKey(std::move(p), r, /*at_tail=*/false);
      RecomputePatternAggregates(&patterns[id]);
      dirty_classes.insert(patterns[id].null_mask);
      row_pattern[r] = id;
    }
    if (dirty_classes.empty()) return false;
    VADASA_METRIC_COUNT("group_index.dirty_classes", dirty_classes.size());
    DropProjIndexes(dirty_classes);
    return true;
  }

  /// Patches a partition cloned from the pre-delta state into the post-delta
  /// one. Precondition: `columns` is already bound to the post-delta view and
  /// `plan` came from the ApplyDeltaToTable call that produced that table.
  /// Deleted rows are detached and the row numbering compacted
  /// (order-preserving, so untouched patterns keep their ascending row lists
  /// and therefore their exact weight sums); updated rows are re-projected
  /// like UpdateRows; appended rows are attached at the tail. Only touched
  /// patterns are re-aggregated and only dirty classes lose projection
  /// indexes. Returns (patterns touched, null-mask classes dirtied).
  std::pair<size_t, size_t> ApplyDeltaPlan(const DeltaRowPlan& plan,
                                           size_t new_num_rows) {
    std::set<size_t> touched;
    std::set<uint32_t> dirty_classes;

    // 1. Detach deleted rows (old numbering). Aggregates are re-derived once
    //    at the end, not per detach.
    for (const uint32_t r : plan.deleted_old_rows) {
      PatternInfo& pat = patterns[row_pattern[r]];
      DetachRow(&pat, r);
      touched.insert(row_pattern[r]);
      dirty_classes.insert(pat.null_mask);
    }

    // 2. Order-preserving compaction of the row numbering. Relative order of
    //    survivors is unchanged, so every pattern's row list stays ascending
    //    and its weight-accumulation sequence — hence its float sum — is the
    //    one a cold rebuild would produce.
    if (!plan.deleted_old_rows.empty()) {
      const size_t old_n = row_pattern.size();
      std::vector<uint32_t> del_before(old_n, 0);
      std::vector<size_t> compacted;
      compacted.reserve(new_num_rows);
      size_t next_del = 0;
      for (size_t r = 0; r < old_n; ++r) {
        del_before[r] = static_cast<uint32_t>(next_del);
        if (next_del < plan.deleted_old_rows.size() &&
            plan.deleted_old_rows[next_del] == r) {
          ++next_del;
          continue;
        }
        compacted.push_back(row_pattern[r]);
      }
      row_pattern = std::move(compacted);
      for (PatternInfo& pat : patterns) {
        for (uint32_t& r : pat.rows) r -= del_before[r];
      }
    }
    row_pattern.resize(new_num_rows, 0);

    // 3. Re-project updated rows (new numbering). Unlike UpdateRows, a
    //    key-preserving update still dirties its pattern: a delta may change
    //    the row's sampling weight without changing its QI projection.
    for (const uint32_t r : plan.updated_new_rows) {
      const size_t old_id = row_pattern[r];
      touched.insert(old_id);
      dirty_classes.insert(patterns[old_id].null_mask);
      CodeRow p = columns.Row(r);
      if (p == patterns[old_id].pattern) continue;
      DetachRow(&patterns[old_id], r);
      const size_t id = AttachKey(std::move(p), r, /*at_tail=*/false);
      touched.insert(id);
      dirty_classes.insert(patterns[id].null_mask);
      row_pattern[r] = id;
    }

    // 4. Attach appended rows at the tail, in ascending row order.
    for (size_t r = new_num_rows - plan.appended_rows; r < new_num_rows; ++r) {
      const size_t id =
          AttachKey(columns.Row(r), static_cast<uint32_t>(r), /*at_tail=*/true);
      touched.insert(id);
      dirty_classes.insert(patterns[id].null_mask);
      row_pattern[r] = id;
    }

    // 5. Re-derive aggregates of touched patterns only — the delta's savings:
    //    every other pattern keeps its rows, count and weight sum verbatim.
    for (const size_t id : touched) RecomputePatternAggregates(&patterns[id]);

    // 6. Dirty-group invalidation, exactly as in UpdateRows.
    DropProjIndexes(dirty_classes);
    return {touched.size(), dirty_classes.size()};
  }

  void RecomputeStats(GroupStats* stats) const {
    std::vector<double> pat_freq(patterns.size(), 0.0);
    std::vector<double> pat_wsum(patterns.size(), 0.0);
    if (semantics == NullSemantics::kStandard) {
      for (size_t p = 0; p < patterns.size(); ++p) {
        pat_freq[p] = patterns[p].count;
        pat_wsum[p] = patterns[p].weight_sum;
      }
    } else {
      AggregateMaybeMatch(patterns, classes, &proj_indexes, &pat_freq, &pat_wsum);
    }
    const size_t n = row_pattern.size();
    stats->frequency.assign(n, 0.0);
    stats->weight_sum.assign(n, 0.0);
    for (size_t r = 0; r < n; ++r) {
      stats->frequency[r] = pat_freq[row_pattern[r]];
      stats->weight_sum[r] = pat_wsum[row_pattern[r]];
    }
  }

  PatternMass QueryKey(const CodeRow& key) const {
    PatternMass mass;
    if (semantics == NullSemantics::kStandard) {
      auto it = pattern_ids.find(key);
      if (it != pattern_ids.end()) {
        mass.count = patterns[it->second].count;
        mass.weight = patterns[it->second].weight_sum;
      }
      return mass;
    }
    const uint32_t qmask = NullMaskOf(key);
    for (const auto& [cmask, ids] : classes) {
      const uint32_t u = qmask | cmask;
      const ProjIndexKey pkey{cmask, u};
      auto it = proj_indexes.find(pkey);
      if (it == proj_indexes.end()) {
        VADASA_METRIC_COUNT("group_index.proj_indexes_built", 1);
        it = proj_indexes.emplace(pkey, BuildProjIndex(patterns, ids, u)).first;
      }
      auto hit = it->second.find(ProjectOut(key, u));
      if (hit != it->second.end()) {
        mass.count += hit->second.first;
        mass.weight += hit->second.second;
      }
    }
    return mass;
  }
};

/// A partition of `table` under `semantics`, read through a fresh columnar
/// materialization.
PatternPartition Partition(const MicrodataTable& table,
                           const std::vector<size_t>& qi_columns,
                           NullSemantics semantics) {
  PatternPartition partition;
  partition.semantics = semantics;
  partition.columns.Bind(std::make_shared<ColumnarView>(table), table, qi_columns);
  partition.Build(table.num_rows());
  return partition;
}

}  // namespace

Status ValidateQiWidth(const std::vector<size_t>& qi_columns, NullSemantics semantics) {
  if (semantics == NullSemantics::kMaybeMatch &&
      qi_columns.size() > kMaxMaybeMatchQis) {
    return Status::InvalidArgument(
        "maybe-match grouping supports at most " +
        std::to_string(kMaxMaybeMatchQis) + " quasi-identifiers, got " +
        std::to_string(qi_columns.size()) +
        "; use NullSemantics::kStandard or restrict the AnonSet");
  }
  return Status::OK();
}

GroupStats ComputeGroupStats(const MicrodataTable& table,
                             const std::vector<size_t>& qi_columns,
                             NullSemantics semantics) {
  GroupStats stats;
  Partition(table, qi_columns, semantics).RecomputeStats(&stats);
  return stats;
}

EquivalenceClassStats ComputeEquivalenceClasses(
    const MicrodataTable& table, const std::vector<size_t>& qi_columns) {
  EquivalenceClassStats stats;
  stats.histogram.assign(10, 0);
  const PatternPartition partition =
      Partition(table, qi_columns, NullSemantics::kStandard);
  stats.num_classes = partition.patterns.size();
  if (partition.patterns.empty()) return stats;
  stats.min_class_size = table.num_rows();
  for (const PatternInfo& pattern : partition.patterns) {
    const size_t size = pattern.rows.size();
    if (size == 1) ++stats.uniques;
    stats.min_class_size = std::min(stats.min_class_size, size);
    stats.max_class_size = std::max(stats.max_class_size, size);
    stats.histogram[std::min<size_t>(size, 10) - 1]++;
  }
  stats.mean_class_size =
      static_cast<double>(table.num_rows()) / static_cast<double>(stats.num_classes);
  return stats;
}

double CountMatches(const MicrodataTable& table, const std::vector<size_t>& qi_columns,
                    const std::vector<Value>& pattern, NullSemantics semantics) {
  double count = 0.0;
  for (size_t r = 0; r < table.num_rows(); ++r) {
    bool match = true;
    for (size_t i = 0; i < qi_columns.size() && match; ++i) {
      const Value& cell = table.cell(r, qi_columns[i]);
      match = semantics == NullSemantics::kMaybeMatch ? cell.MaybeEquals(pattern[i])
                                                      : cell.Equals(pattern[i]);
    }
    if (match) count += 1.0;
  }
  return count;
}

// ---------------------------------------------------------------------------
// GroupIndex: the incremental index behind the cycle's risk-evaluation loop.
// ---------------------------------------------------------------------------

struct GroupIndex::Impl {
  std::vector<size_t> qi_columns;
  size_t num_rows = 0;
  /// The mutable handle to the view `partition.columns` reads. When
  /// owns_view, this index refreshes the view's codes itself in UpdateRows;
  /// otherwise the owner (RiskEvalCache) refreshes once per batch first.
  std::shared_ptr<ColumnarView> view;
  bool owns_view = true;
  PatternPartition partition;

  mutable GroupStats stats;
  mutable bool stats_dirty = true;

  size_t full_builds = 0;
  size_t incremental_updates = 0;

  void Build(const MicrodataTable& table) {
    obs::Span span("group_index.build");
    VADASA_METRIC_COUNT("group_index.full_builds", 1);
    num_rows = table.num_rows();
    if (view == nullptr || view->num_rows() != num_rows) {
      view = std::make_shared<ColumnarView>(table);
      owns_view = true;
    }
    partition.columns.Bind(view, table, qi_columns);
    partition.Build(num_rows);
    stats_dirty = true;
    ++full_builds;
  }
};

GroupIndex::GroupIndex(const MicrodataTable& table, std::vector<size_t> qi_columns,
                       NullSemantics semantics)
    : GroupIndex(table, std::move(qi_columns), semantics, nullptr) {}

GroupIndex::GroupIndex(const MicrodataTable& table, std::vector<size_t> qi_columns,
                       NullSemantics semantics,
                       std::shared_ptr<ColumnarView> shared_view)
    : impl_(std::make_unique<Impl>()) {
  if (shared_view != nullptr) {
    impl_->view = std::move(shared_view);
    impl_->owns_view = false;
  }
  impl_->qi_columns = std::move(qi_columns);
  impl_->partition.semantics = semantics;
  impl_->Build(table);
}

GroupIndex::~GroupIndex() = default;

void GroupIndex::UpdateRows(const MicrodataTable& table,
                            const std::vector<uint32_t>& rows) {
  Impl& im = *impl_;
  if (table.num_rows() != im.num_rows || im.partition.columns.view != im.view) {
    // Shape changed under us, or AdoptView swapped the shared view —
    // incremental bookkeeping is void.
    im.Build(table);
    return;
  }
  obs::Span span("group_index.update_rows");
  ++im.incremental_updates;
  VADASA_METRIC_COUNT("group_index.incremental_updates", 1);
  if (im.owns_view) im.view->UpdateRows(table, rows);
  if (im.partition.UpdateRows(rows)) im.stats_dirty = true;
}

std::unique_ptr<GroupIndex> GroupIndex::ApplyDelta(const MicrodataTable& new_table,
                                                   const DeltaRowPlan& plan) const {
  obs::Span span("group_index.apply_delta");
  VADASA_METRIC_COUNT("delta.index_applies", 1);
  auto clone = std::make_unique<Impl>();
  clone->qi_columns = impl_->qi_columns;
  clone->num_rows = new_table.num_rows();
  clone->full_builds = impl_->full_builds;
  clone->incremental_updates = impl_->incremental_updates + 1;
  clone->partition = impl_->partition;
  // Delta-clone the view: inherited dictionaries and code arrays, deleted
  // rows compacted out, changed rows re-interned (see columnar.h). Updated
  // rows are already in new-table numbering; appends occupy the tail.
  std::vector<uint32_t> changed = plan.updated_new_rows;
  changed.reserve(changed.size() + plan.appended_rows);
  for (size_t r = new_table.num_rows() - plan.appended_rows; r < new_table.num_rows();
       ++r) {
    changed.push_back(static_cast<uint32_t>(r));
  }
  clone->view = std::make_shared<ColumnarView>(*impl_->view, new_table,
                                               plan.deleted_old_rows, changed);
  clone->partition.columns.Bind(clone->view, new_table, clone->qi_columns);
  const auto [dirtied, classes_dirtied] =
      clone->partition.ApplyDeltaPlan(plan, clone->num_rows);
  VADASA_METRIC_COUNT("delta.groups_dirtied", dirtied);
  VADASA_METRIC_COUNT("delta.groups_recomputed", dirtied);
  VADASA_METRIC_COUNT("delta.classes_dirtied", classes_dirtied);
  auto out = std::unique_ptr<GroupIndex>(new GroupIndex());
  out->impl_ = std::move(clone);
  return out;
}

const GroupStats& GroupIndex::Stats() const {
  if (impl_->stats_dirty) {
    obs::Span span("group_index.recompute_stats");
    impl_->partition.RecomputeStats(&impl_->stats);
    impl_->stats_dirty = false;
  }
  return impl_->stats;
}

PatternMass GroupIndex::Query(const std::vector<Value>& pattern) const {
  if (pattern.size() != impl_->qi_columns.size()) return PatternMass{};
  CodeRow key;
  key.reserve(pattern.size());
  for (size_t i = 0; i < pattern.size(); ++i) {
    key.push_back(impl_->view->CodeForQuery(impl_->qi_columns[i], pattern[i]));
  }
  return impl_->partition.QueryKey(key);
}

const std::vector<size_t>& GroupIndex::qi_columns() const { return impl_->qi_columns; }
NullSemantics GroupIndex::semantics() const { return impl_->partition.semantics; }
size_t GroupIndex::num_rows() const { return impl_->num_rows; }
size_t GroupIndex::num_patterns() const { return impl_->partition.patterns.size(); }
void GroupIndex::AdoptView(std::shared_ptr<ColumnarView> view) {
  impl_->view = std::move(view);
}
std::shared_ptr<const ColumnarView> GroupIndex::shared_view() const {
  return impl_->view;
}
size_t GroupIndex::full_builds() const { return impl_->full_builds; }
size_t GroupIndex::incremental_updates() const { return impl_->incremental_updates; }

// ---------------------------------------------------------------------------
// RiskEvalCache
// ---------------------------------------------------------------------------

struct RiskEvalCache::Impl {
  struct Key {
    std::vector<size_t> qis;
    NullSemantics semantics;
    bool operator<(const Key& other) const {
      if (semantics != other.semantics) return semantics < other.semantics;
      return qis < other.qis;
    }
  };
  std::map<Key, std::unique_ptr<GroupIndex>> indexes;
  std::map<std::string, std::shared_ptr<void>> memos;
  uint64_t version = 0;

  /// The shared warm index the cache started from; read-only, dropped at
  /// the first NotifyRowsChanged.
  std::shared_ptr<const GroupIndex> warm;

  /// One columnar materialization shared by every index of this cache (and
  /// by the cycle's pattern guards).
  std::shared_ptr<ColumnarView> view;

  std::shared_ptr<ColumnarView> EnsureView(const MicrodataTable& table) {
    if (view == nullptr || view->num_rows() != table.num_rows()) {
      view = std::make_shared<ColumnarView>(table);
    }
    return view;
  }
};

RiskEvalCache::RiskEvalCache(std::shared_ptr<const GroupIndex> warm)
    : impl_(std::make_unique<Impl>()) {
  impl_->warm = std::move(warm);
}
RiskEvalCache::~RiskEvalCache() = default;

GroupIndex& RiskEvalCache::Index(const MicrodataTable& table,
                                 const std::vector<size_t>& qi_columns,
                                 NullSemantics semantics) {
  std::shared_ptr<ColumnarView> shared = impl_->EnsureView(table);
  const Impl::Key key{qi_columns, semantics};
  auto it = impl_->indexes.find(key);
  if (it == impl_->indexes.end()) {
    VADASA_METRIC_COUNT("risk_cache.index_misses", 1);
    it = impl_->indexes
             .emplace(key, std::make_unique<GroupIndex>(table, qi_columns, semantics,
                                                        std::move(shared)))
             .first;
  } else if (it->second->num_rows() != table.num_rows()) {
    VADASA_METRIC_COUNT("risk_cache.index_misses", 1);
    it->second = std::make_unique<GroupIndex>(table, qi_columns, semantics,
                                              std::move(shared));
  } else {
    VADASA_METRIC_COUNT("risk_cache.index_hits", 1);
  }
  return *it->second;
}

const GroupStats& RiskEvalCache::Stats(const MicrodataTable& table,
                                       const std::vector<size_t>& qi_columns,
                                       NullSemantics semantics) {
  const GroupIndex* warm = impl_->warm.get();
  if (warm != nullptr && warm->semantics() == semantics &&
      warm->qi_columns() == qi_columns) {
    VADASA_METRIC_COUNT("risk_cache.warm_hits", 1);
    return warm->Stats();
  }
  return Index(table, qi_columns, semantics).Stats();
}

void RiskEvalCache::NotifyRowsChanged(const MicrodataTable& table,
                                      const std::vector<uint32_t>& rows) {
  ++impl_->version;
  impl_->memos.clear();
  impl_->warm.reset();
  if (impl_->view != nullptr) {
    if (table.num_rows() != impl_->view->num_rows()) {
      // Shape changed: rematerialize and hand the fresh view to every index
      // (each rebuilds from it on its UpdateRows below).
      impl_->view = std::make_shared<ColumnarView>(table);
      for (auto& [key, index] : impl_->indexes) {
        (void)key;
        index->AdoptView(impl_->view);
      }
    } else {
      // One in-place code refresh serves all indexes.
      impl_->view->UpdateRows(table, rows);
    }
  }
  for (auto& [key, index] : impl_->indexes) {
    (void)key;
    index->UpdateRows(table, rows);
  }
}

std::shared_ptr<const ColumnarView> RiskEvalCache::SharedView(
    const MicrodataTable& table) {
  if (impl_->view == nullptr && impl_->warm != nullptr) {
    return impl_->warm->shared_view();
  }
  return impl_->EnsureView(table);
}

uint64_t RiskEvalCache::version() const { return impl_->version; }

std::shared_ptr<void> RiskEvalCache::Memo(const std::string& key) const {
  auto it = impl_->memos.find(key);
  if (it == impl_->memos.end()) {
    VADASA_METRIC_COUNT("risk_cache.memo_misses", 1);
    return nullptr;
  }
  VADASA_METRIC_COUNT("risk_cache.memo_hits", 1);
  return it->second;
}

void RiskEvalCache::SetMemo(const std::string& key, std::shared_ptr<void> value) {
  impl_->memos[key] = std::move(value);
}

size_t RiskEvalCache::full_builds() const {
  size_t total = 0;
  for (const auto& [key, index] : impl_->indexes) {
    (void)key;
    total += index->full_builds();
  }
  return total;
}

size_t RiskEvalCache::incremental_updates() const {
  size_t total = 0;
  for (const auto& [key, index] : impl_->indexes) {
    (void)key;
    total += index->incremental_updates();
  }
  return total;
}

}  // namespace vadasa::core
