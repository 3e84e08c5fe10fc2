#include "core/delta.h"

#include <algorithm>
#include <string>
#include <utility>

#include "obs/trace.h"

namespace vadasa::core {

DeltaBatchBuilder::DeltaBatchBuilder(size_t num_columns) {
  batch_.num_columns_ = num_columns;
}

DeltaBatchBuilder& DeltaBatchBuilder::Append(std::vector<Value> row) {
  if (!error_.ok()) return *this;
  if (row.size() != batch_.num_columns_) {
    error_ = Status::InvalidArgument(
        "DeltaBatch::Append: row has " + std::to_string(row.size()) +
        " cells, table has " + std::to_string(batch_.num_columns_) +
        " columns");
    return *this;
  }
  DeltaOp op;
  op.kind = DeltaOpKind::kAppend;
  op.values = std::move(row);
  batch_.ops_.push_back(std::move(op));
  return *this;
}

DeltaBatchBuilder& DeltaBatchBuilder::Update(size_t row, std::vector<Value> values) {
  if (!error_.ok()) return *this;
  if (values.size() != batch_.num_columns_) {
    error_ = Status::InvalidArgument(
        "DeltaBatch::Update(" + std::to_string(row) + "): row has " +
        std::to_string(values.size()) + " cells, table has " +
        std::to_string(batch_.num_columns_) + " columns");
    return *this;
  }
  DeltaOp op;
  op.kind = DeltaOpKind::kUpdate;
  op.row = static_cast<uint32_t>(row);
  op.values = std::move(values);
  batch_.ops_.push_back(std::move(op));
  return *this;
}

DeltaBatchBuilder& DeltaBatchBuilder::Delete(size_t row) {
  if (!error_.ok()) return *this;
  DeltaOp op;
  op.kind = DeltaOpKind::kDelete;
  op.row = static_cast<uint32_t>(row);
  batch_.ops_.push_back(std::move(op));
  return *this;
}

Result<DeltaBatch> DeltaBatchBuilder::Build() {
  VADASA_RETURN_NOT_OK(error_);
  return std::move(batch_);
}

Result<MicrodataTable> ApplyDeltaToTable(const MicrodataTable& table,
                                         const DeltaBatch& batch,
                                         DeltaRowPlan* plan) {
  obs::Span span("delta.apply_table");
  const size_t n = table.num_rows();
  if (batch.num_columns() != table.num_columns()) {
    return Status::InvalidArgument(
        "DeltaBatch targets " + std::to_string(batch.num_columns()) +
        " columns, table \"" + table.name() + "\" has " +
        std::to_string(table.num_columns()));
  }
  // Validate every op before touching anything: a half-applied batch must be
  // unobservable.
  const int weight_col = table.WeightColumn();
  for (const DeltaOp& op : batch.ops()) {
    if (op.kind != DeltaOpKind::kAppend && op.row >= n) {
      return Status::InvalidArgument(
          "DeltaBatch row index " + std::to_string(op.row) +
          " out of range for table of " + std::to_string(n) + " rows");
    }
    if (op.kind != DeltaOpKind::kDelete && weight_col >= 0 &&
        !op.values[static_cast<size_t>(weight_col)].is_numeric()) {
      return Status::TypeError(
          "DeltaBatch row carries a non-numeric sampling weight");
    }
  }

  // Resolve the batch: last update per row wins; deletes deduplicate.
  std::vector<const std::vector<Value>*> update_of(n, nullptr);
  std::vector<bool> deleted(n, false);
  size_t appended = 0;
  for (const DeltaOp& op : batch.ops()) {
    switch (op.kind) {
      case DeltaOpKind::kUpdate:
        update_of[op.row] = &op.values;
        break;
      case DeltaOpKind::kDelete:
        deleted[op.row] = true;
        break;
      case DeltaOpKind::kAppend:
        ++appended;
        break;
    }
  }

  DeltaRowPlan local_plan;
  DeltaRowPlan* out_plan = plan != nullptr ? plan : &local_plan;
  out_plan->updated_new_rows.clear();
  out_plan->deleted_old_rows.clear();
  out_plan->appended_rows = appended;

  size_t num_deleted = 0;
  for (size_t r = 0; r < n; ++r) {
    if (deleted[r]) {
      out_plan->deleted_old_rows.push_back(static_cast<uint32_t>(r));
      ++num_deleted;
    } else if (update_of[r] != nullptr) {
      // Order-preserving compaction: a surviving row's new index is its old
      // index minus the deletions before it.
      out_plan->updated_new_rows.push_back(static_cast<uint32_t>(r - num_deleted));
    }
  }

  VADASA_METRIC_COUNT("delta.batches_applied", 1);
  VADASA_METRIC_COUNT("delta.rows_touched",
                      out_plan->updated_new_rows.size() + num_deleted + appended);

  // Materialize the post-delta table by structural sharing: surviving rows
  // alias the source table's row storage (one refcount bump each — rows are
  // immutable-unless-detached, see MicrodataTable::set_cell), and only the
  // touched rows allocate. This makes the rebuild O(rows) pointer work plus
  // O(delta) copies, which is what keeps the incremental Session::Apply path
  // several times cheaper than a cold re-warm even on one core.
  MicrodataTable out(table.name(), table.attributes());
  out.rows_.reserve(n - num_deleted + appended);
  for (size_t r = 0; r < n; ++r) {
    if (deleted[r]) continue;
    if (update_of[r] != nullptr) {
      out.rows_.push_back(MicrodataTable::SharedRow::Copy(*update_of[r]));
    } else {
      out.rows_.push_back(table.rows_[r]);
    }
  }
  for (const DeltaOp& op : batch.ops()) {
    if (op.kind == DeltaOpKind::kAppend) {
      out.rows_.push_back(MicrodataTable::SharedRow::Copy(op.values));
    }
  }
  return out;
}

}  // namespace vadasa::core
