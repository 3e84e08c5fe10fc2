#ifndef VADASA_CORE_MICRODATA_H_
#define VADASA_CORE_MICRODATA_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
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

  /// Row `i`'s cells, valid until that row is written (set_cell) or the
  /// table is destroyed.
  std::span<const Value> row(size_t i) const { return rows_[i].cells(); }
  const Value& cell(size_t row, size_t col) const { return rows_[row].cells()[col]; }

  /// Overwrites one cell. Rows are structurally shared between table copies
  /// (copying a table is O(rows) refcount bumps, not a deep copy — the delta
  /// rebuild in ApplyDeltaToTable leans on this), so a write to a shared row
  /// first detaches a private copy of that row. Spans and references returned
  /// for the same row before the write may therefore dangle after it.
  void set_cell(size_t row, size_t col, Value v) {
    rows_[row].MutableCells()[col] = std::move(v);
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

  /// One row's cells in one allocation: a 4-byte reference count, a 4-byte
  /// width, then the cells, behind a one-pointer handle. Copies of a handle
  /// share its block, which is how table copies share unchanged rows. The
  /// count is atomic because the copies of one table (snapshots, delta
  /// generations, release copies) are made and dropped on any thread.
  class SharedRow {
   public:
    /// A block of `width` cells built in place, cell c from `make(c)`. If a
    /// cell throws, the cells built before it are destroyed and the block is
    /// freed.
    template <typename MakeCell>
    static SharedRow Build(size_t width, MakeCell&& make) {
      SharedRow row;
      row.block_ = new (::operator new(sizeof(Block) + width * sizeof(Value))) Block;
      Value* const cells = CellsOf(row.block_);
      // The width counts the cells built so far, so the handle's destructor
      // frees exactly those if the next one throws.
      for (size_t c = 0; c < width; ++c) {
        new (cells + c) Value(make(c));
        ++row.block_->width;
      }
      return row;
    }

    /// A block of its own holding copies of `cells`.
    static SharedRow Copy(std::span<const Value> cells) {
      return Build(cells.size(), [cells](size_t c) { return cells[c]; });
    }

    SharedRow(const SharedRow& other) noexcept : block_(other.block_) {
      block_->refs.fetch_add(1, std::memory_order_relaxed);
    }
    SharedRow(SharedRow&& other) noexcept : block_(std::exchange(other.block_, nullptr)) {}
    SharedRow& operator=(SharedRow other) noexcept {
      std::swap(block_, other.block_);
      return *this;
    }
    ~SharedRow() {
      if (block_ != nullptr) Release(block_);  // Null once moved from.
    }

    std::span<const Value> cells() const { return {CellsOf(block_), block_->width}; }

    /// The cells for writing (copy-on-write): while another handle shares
    /// the block, this handle first takes a copy of its own. The load is
    /// acquire, so the reads other holders made before dropping their
    /// handles happen before the sole holder's writes.
    Value* MutableCells() {
      if (block_->refs.load(std::memory_order_acquire) > 1) *this = Copy(cells());
      return CellsOf(block_);
    }

   private:
    struct Block {
      std::atomic<uint32_t> refs{1};
      uint32_t width = 0;
    };
    static_assert(sizeof(Block) == 8 && alignof(Value) <= alignof(std::max_align_t) &&
                      sizeof(Block) % alignof(Value) == 0,
                  "the cells follow the 8-byte head, aligned");

    SharedRow() = default;

    static Value* CellsOf(Block* block) {
      return std::launder(reinterpret_cast<Value*>(block + 1));
    }
    static void Release(Block* block) noexcept {
      if (block->refs.fetch_sub(1, std::memory_order_acq_rel) != 1) return;
      std::destroy_n(CellsOf(block), block->width);
      block->~Block();
      ::operator delete(block);
    }

    Block* block_ = nullptr;
  };
  static_assert(sizeof(SharedRow) == sizeof(void*), "a row handle is one pointer");

  // The delta rebuild aliases unchanged rows from the source table instead
  // of copying them; it needs the shared handles, not just the cell values.
  friend Result<MicrodataTable> ApplyDeltaToTable(const MicrodataTable& table,
                                                  const class DeltaBatch& batch,
                                                  struct DeltaRowPlan* plan);

  std::string name_;
  std::vector<Attribute> attributes_;
  /// Row storage. One shared block per row, so copies of the table
  /// (snapshots, delta generations) share unchanged rows; set_cell
  /// copy-on-writes.
  std::vector<SharedRow> rows_;
  std::unordered_map<std::string, int> name_index_;
  int weight_column_ = -1;
};

}  // namespace vadasa::core

#endif  // VADASA_CORE_MICRODATA_H_
