#ifndef VADASA_CORE_MICRODATA_H_
#define VADASA_CORE_MICRODATA_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/csv.h"
#include "common/result.h"
#include "common/value.h"

namespace vadasa::core {

/// The four attribute roles of Section 2.1.
enum class AttributeCategory {
  kIdentifier,      ///< Direct identifier: alone re-identifies the respondent.
  kQuasiIdentifier, ///< Jointly selective attributes.
  kNonIdentifying,  ///< Harmless attributes.
  kWeight,          ///< The sampling weight W.
};

std::string AttributeCategoryToString(AttributeCategory c);
Result<AttributeCategory> AttributeCategoryFromString(const std::string& s);

/// One attribute of a microdata DB: name, free-text description, role.
struct Attribute {
  std::string name;
  std::string description;
  AttributeCategory category = AttributeCategory::kNonIdentifying;
};

/// A microdata DB M(i, q, a, W): a named relation whose columns are
/// categorized per Section 2.1. Cells are Values; anonymization replaces
/// quasi-identifier cells with labelled nulls or coarser domain values.
class MicrodataTable {
 public:
  MicrodataTable() = default;
  MicrodataTable(std::string name, std::vector<Attribute> attributes)
      : name_(std::move(name)), attributes_(std::move(attributes)) {
    ReindexSchema();
  }

  const std::string& name() const { return name_; }
  const std::vector<Attribute>& attributes() const { return attributes_; }
  size_t num_columns() const { return attributes_.size(); }
  size_t num_rows() const { return rows_.size(); }

  const std::vector<Value>& row(size_t i) const { return *rows_[i]; }
  const Value& cell(size_t row, size_t col) const { return (*rows_[row])[col]; }

  /// Overwrites one cell. Rows are structurally shared between table copies
  /// (copying a table is O(rows) refcount bumps, not a deep copy — the delta
  /// rebuild in ApplyDeltaToTable leans on this), so a write to a shared row
  /// first detaches a private copy of that row. References returned by row()
  /// for the same index before the write may therefore dangle after it.
  void set_cell(size_t row, size_t col, Value v) {
    MutableRow(row)[col] = std::move(v);
  }

  /// Appends a row; must match the column count.
  Status AddRow(std::vector<Value> row);

  /// Column index by attribute name; -1 if absent. One hash lookup — the
  /// name→index map is cached and rebuilt on schema mutation, so per-row
  /// callers (RowWeight via WeightColumn) never pay a linear schema scan.
  int ColumnIndex(const std::string& name) const;

  /// Changes the category of a named attribute.
  Status SetCategory(const std::string& attribute, AttributeCategory category);

  /// Indices of columns with the given category, in schema order.
  std::vector<size_t> ColumnsWithCategory(AttributeCategory category) const;

  /// Indices of the quasi-identifier columns (the default AnonSet).
  std::vector<size_t> QuasiIdentifierColumns() const {
    return ColumnsWithCategory(AttributeCategory::kQuasiIdentifier);
  }

  /// Index of the (single) weight column; -1 if none. Cached; invalidated on
  /// schema mutation (SetCategory).
  int WeightColumn() const { return weight_column_; }

  /// Sampling weight of a row: the weight cell as double, or 1.0 when the
  /// table has no weight column.
  double RowWeight(size_t row) const;

  /// Counts labelled-null cells across the quasi-identifier columns.
  size_t CountNullCells() const;

  /// Fails unless all rows have the right width, at most one weight column
  /// exists, and weights are numeric.
  Status Validate() const;

  /// Loads from CSV. Category metadata is supplied separately (columns named
  /// in `weight_attribute` get kWeight, `identifier_attributes` get
  /// kIdentifier, remaining default to kQuasiIdentifier). Cells are read by
  /// CellToValue; within one column, equal strings share one payload.
  static Result<MicrodataTable> FromCsv(const std::string& name, const CsvTable& csv,
                                        const std::vector<std::string>& identifier_attributes,
                                        const std::string& weight_attribute);

  /// FromCsv over CSV text with no identifier or weight attribute named, and
  /// no CsvTable in between: each record becomes a row of Values as it is
  /// scanned (ScanCsv), and ParseCsv's errors are this loader's errors.
  static Result<MicrodataTable> FromCsvText(const std::string& name,
                                            std::string_view text);

  /// Reads the CSV file at `path` once and loads it with FromCsvText under the
  /// name `path`.
  static Result<MicrodataTable> LoadCsv(const std::string& path);

  /// Serializes to CSV; each cell is spelled by ValueToCell (labelled nulls
  /// as "NULL_k").
  CsvTable ToCsv() const;

  /// The CSV text of the table, byte for byte WriteCsv(ToCsv()), written
  /// without building a CsvTable.
  std::string CsvText() const;

  /// Appends the header line of CsvText() to `out`.
  void AppendCsvHeader(std::string* out) const;

  /// Appends row `row`'s line of CsvText() to `out`.
  void AppendCsvRow(std::string* out, size_t row) const;

  /// Pretty-prints the first `max_rows` rows as an aligned text table.
  std::string ToText(size_t max_rows = 25) const;

 private:
  /// Turns CSV records into rows; FromCsv and FromCsvText both load through
  /// it (microdata.cc).
  class RowBuilder;

  /// AddRow's width check: InvalidArgument unless `cells` matches the schema.
  Status CheckRowWidth(size_t cells) const;

  /// Rebuilds the name→index map and the cached weight column. Called from
  /// every schema mutation (construction, SetCategory) — the caches are
  /// always current, so const readers need no lazy state or locking.
  void ReindexSchema();

  /// Copy-on-write access: detaches a private copy of the row when other
  /// table copies still share it, then returns the (now exclusive) storage.
  std::vector<Value>& MutableRow(size_t i) {
    if (rows_[i].use_count() > 1) {
      rows_[i] = std::make_shared<std::vector<Value>>(*rows_[i]);
    }
    return *rows_[i];
  }

  // The delta rebuild aliases unchanged rows from the source table instead
  // of copying them; it needs the shared handles, not just the cell values.
  friend Result<MicrodataTable> ApplyDeltaToTable(const MicrodataTable& table,
                                                  const class DeltaBatch& batch,
                                                  struct DeltaRowPlan* plan);

  std::string name_;
  std::vector<Attribute> attributes_;
  /// Row storage. shared_ptr per row so copies of the table (snapshots,
  /// delta generations) share unchanged rows; set_cell copy-on-writes.
  std::vector<std::shared_ptr<std::vector<Value>>> rows_;
  std::unordered_map<std::string, int> name_index_;
  int weight_column_ = -1;
};

}  // namespace vadasa::core

#endif  // VADASA_CORE_MICRODATA_H_
