#ifndef VADASA_CORE_COLUMNAR_H_
#define VADASA_CORE_COLUMNAR_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "common/dictionary.h"
#include "core/microdata.h"

namespace vadasa::core {

/// A row's quasi-identifier projection as packed dictionary codes, one per
/// QI column — the key every grouping structure hashes and compares. Code
/// equality coincides with Value::Equals (see common/dictionary.h), so
/// grouping on codes is grouping on values.
using CodeRow = std::vector<uint32_t>;

/// splitmix64-style mix over a code row. Only hash-table layout depends on
/// this, never results.
struct CodeRowHash {
  size_t operator()(const CodeRow& row) const {
    uint64_t h = 0x9e3779b97f4a7c15ULL ^ row.size();
    for (const uint32_t x : row) {
      uint64_t z = (h ^ x) + 0x9e3779b97f4a7c15ULL;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
      h = z ^ (z >> 31);
    }
    return static_cast<size_t>(h);
  }
};

/// A columnar (SoA) materialization of a MicrodataTable: one dense
/// uint32_t code array per column, one Dictionary per column as the decode
/// table, plus the row weights as a flat double array. The table stays the
/// source of truth — the view is a derived index the hot paths read instead
/// of chasing Value variants, kept in sync in place via UpdateRows as the
/// anonymizer suppresses or recodes cells.
///
/// Columns are materialized on demand (EnsureColumns): a risk evaluation
/// over 4 QI columns of a 40-column table never pays for the other 36.
/// Thread safety: EnsureColumns/CodeForQuery/Decode are safe to call
/// concurrently (serve-layer jobs share one view per dataset); UpdateRows
/// requires external synchronization against readers, exactly like mutating
/// the underlying table.
class ColumnarView {
 public:
  explicit ColumnarView(const MicrodataTable& table);

  /// Delta-clone: a view over `new_table` (= the parent view's table with a
  /// delta applied, see core/delta.h) that inherits the parent's dictionaries
  /// and code arrays instead of re-interning the whole table. Deleted rows
  /// are compacted out preserving order, `changed_new_rows` (updated +
  /// appended rows, as new-table indices) are re-interned from `new_table`,
  /// and columns the parent never materialized stay unmaterialized. Codes
  /// inherited this way keep their numeric values — harmless, since only
  /// code equality is ever observable. Safe to race with readers of the
  /// parent view; the clone itself is freshly owned.
  ColumnarView(const ColumnarView& parent, const MicrodataTable& new_table,
               const std::vector<uint32_t>& deleted_old_rows,
               const std::vector<uint32_t>& changed_new_rows);

  ColumnarView(const ColumnarView&) = delete;
  ColumnarView& operator=(const ColumnarView&) = delete;

  size_t num_rows() const { return num_rows_; }
  size_t num_columns() const { return columns_.size(); }

  /// Interns every cell of the listed columns that is not yet materialized.
  /// Idempotent; safe to race with other EnsureColumns/readers.
  void EnsureColumns(const MicrodataTable& table, const std::vector<size_t>& cols) const;

  /// The code array of a column. Precondition: the column was ensured (by
  /// this caller or an EnsureColumns it synchronizes with).
  const std::vector<uint32_t>& Codes(size_t col) const { return columns_[col].codes; }

  /// Row weights (the weight cell as double, 1.0 fallback) — one load per
  /// row instead of a per-call schema scan plus variant dispatch.
  const std::vector<double>& Weights() const { return weights_; }

  /// Per-column decode table.
  const Dictionary& dict(size_t col) const { return columns_[col].dict; }
  Value Decode(size_t col, uint32_t code) const { return columns_[col].dict.Decode(code); }

  /// Code of `v` in the column's dictionary, interning it when absent — the
  /// translation used for what-if query patterns, which may probe values
  /// that occur nowhere in the column. Thread-safe.
  uint32_t CodeForQuery(size_t col, const Value& v) const {
    return columns_[col].dict.Intern(v);
  }

  /// Re-reads the given rows of `table` into every materialized column,
  /// interning new cell values and updating codes (and weights) in place.
  void UpdateRows(const MicrodataTable& table, const std::vector<uint32_t>& rows);

  /// Bytes held in materialized code arrays (the columnar.codes_bytes
  /// metric).
  size_t codes_bytes() const;
  /// Total dictionary entries across materialized columns.
  size_t dict_entries() const;

 private:
  struct Column {
    Dictionary dict;
    std::vector<uint32_t> codes;
    bool materialized = false;
  };

  size_t num_rows_ = 0;
  mutable std::mutex materialize_mutex_;
  mutable std::vector<Column> columns_;
  std::vector<double> weights_;
};

}  // namespace vadasa::core

#endif  // VADASA_CORE_COLUMNAR_H_
