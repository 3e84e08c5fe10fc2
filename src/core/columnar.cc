#include "core/columnar.h"

#include <array>
#include <chrono>

#include "common/flat_map.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace vadasa::core {

namespace {

void RecordInternSeconds(double seconds) {
  static obs::Histogram* histogram =
      obs::MetricsRegistry::Global().histogram("columnar.intern_seconds");
  histogram->Record(seconds);
}

/// A direct-mapped cache in front of one column's Dictionary for one pass
/// over a table: a cell whose identity (CellKey) sits in its slot takes the
/// code stored there, without the dictionary's lock or a hash of the string.
/// Every code it holds came from Intern, so the codes are those of interning
/// every cell in row order. A column whose first kSlots cells hit less than
/// a quarter of the time holds mostly distinct values, and the rest of its
/// cells go straight to Intern. Identities hold payload addresses, so a
/// cache lives only while the table it reads does.
class CodeCache {
 public:
  explicit CodeCache(Dictionary* dict) : dict_(dict) {}

  uint32_t Code(const Value& v) {
    if (bypassed_) return dict_->Intern(v);
    const CellKey key = CellKey::Of(v);
    Slot& slot = slots_[CellKeyHash()(key) & (kSlots - 1)];
    if (slot.filled && slot.key == key) {
      ++hits_;
    } else {
      slot = Slot{key, dict_->Intern(v), true};
    }
    if (++lookups_ == kSlots) bypassed_ = hits_ < kSlots / 4;
    return slot.code;
  }

 private:
  static constexpr size_t kSlots = 256;
  struct Slot {
    CellKey key;
    uint32_t code = 0;
    bool filled = false;
  };

  Dictionary* dict_;
  std::array<Slot, kSlots> slots_{};
  size_t lookups_ = 0;
  size_t hits_ = 0;
  bool bypassed_ = false;
};

}  // namespace

ColumnarView::ColumnarView(const MicrodataTable& table)
    : num_rows_(table.num_rows()), columns_(table.num_columns()) {
  weights_.resize(num_rows_);
  for (size_t r = 0; r < num_rows_; ++r) weights_[r] = table.RowWeight(r);
}

ColumnarView::ColumnarView(const ColumnarView& parent,
                           const MicrodataTable& new_table,
                           const std::vector<uint32_t>& deleted_old_rows,
                           const std::vector<uint32_t>& changed_new_rows)
    : num_rows_(new_table.num_rows()), columns_(new_table.num_columns()) {
  obs::Span span("columnar.delta_clone");
  std::lock_guard<std::mutex> lock(parent.materialize_mutex_);
  const size_t old_rows = parent.num_rows_;
  // Compacted copy of a parent row-array: drop deleted rows, keep order,
  // leave zeroed tail slots for appended rows (the changed-row pass below
  // overwrites every one of them).
  auto compact = [&](const auto& src, auto* dst) {
    dst->assign(num_rows_, {});
    size_t w = 0;
    size_t next_del = 0;
    for (size_t r = 0; r < old_rows; ++r) {
      if (next_del < deleted_old_rows.size() && deleted_old_rows[next_del] == r) {
        ++next_del;
        continue;
      }
      (*dst)[w++] = src[r];
    }
  };
  for (size_t c = 0; c < columns_.size() && c < parent.columns_.size(); ++c) {
    const Column& src = parent.columns_[c];
    if (!src.materialized) continue;
    Column& column = columns_[c];
    column.dict.CopyFrom(src.dict);
    compact(src.codes, &column.codes);
    for (const uint32_t r : changed_new_rows) {
      column.codes[r] = column.dict.Intern(new_table.cell(r, c));
    }
    column.materialized = true;
    VADASA_METRIC_COUNT("columnar.codes_bytes", num_rows_ * sizeof(uint32_t));
    VADASA_METRIC_COUNT("columnar.columns_materialized", 1);
  }
  compact(parent.weights_, &weights_);
  for (const uint32_t r : changed_new_rows) {
    weights_[r] = new_table.RowWeight(r);
  }
  VADASA_METRIC_COUNT("columnar.row_updates", changed_new_rows.size());
}

void ColumnarView::EnsureColumns(const MicrodataTable& table,
                                 const std::vector<size_t>& cols) const {
  std::lock_guard<std::mutex> lock(materialize_mutex_);
  const auto t0 = std::chrono::steady_clock::now();
  size_t interned_cells = 0;
  for (const size_t c : cols) {
    Column& column = columns_[c];
    if (column.materialized) continue;
    obs::Span span("columnar.materialize_column");
    column.codes.resize(num_rows_);
    CodeCache cache(&column.dict);
    for (size_t r = 0; r < num_rows_; ++r) column.codes[r] = cache.Code(table.cell(r, c));
    column.materialized = true;
    interned_cells += num_rows_;
    VADASA_METRIC_COUNT("columnar.codes_bytes", num_rows_ * sizeof(uint32_t));
    VADASA_METRIC_COUNT("columnar.dict_entries", column.dict.size());
    VADASA_METRIC_COUNT("columnar.columns_materialized", 1);
  }
  if (interned_cells > 0) {
    RecordInternSeconds(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count());
  }
}

void ColumnarView::UpdateRows(const MicrodataTable& table,
                              const std::vector<uint32_t>& rows) {
  obs::Span span("columnar.update_rows");
  VADASA_METRIC_COUNT("columnar.row_updates", rows.size());
  for (size_t c = 0; c < columns_.size(); ++c) {
    Column& column = columns_[c];
    if (!column.materialized) continue;
    for (const uint32_t r : rows) {
      column.codes[r] = column.dict.Intern(table.cell(r, c));
    }
  }
  for (const uint32_t r : rows) weights_[r] = table.RowWeight(r);
}

size_t ColumnarView::codes_bytes() const {
  std::lock_guard<std::mutex> lock(materialize_mutex_);
  size_t bytes = 0;
  for (const Column& column : columns_) {
    bytes += column.codes.capacity() * sizeof(uint32_t);
  }
  return bytes + weights_.capacity() * sizeof(double);
}

size_t ColumnarView::dict_entries() const {
  std::lock_guard<std::mutex> lock(materialize_mutex_);
  size_t entries = 0;
  for (const Column& column : columns_) entries += column.dict.size();
  return entries;
}

}  // namespace vadasa::core
