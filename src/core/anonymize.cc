#include "core/anonymize.h"

#include <algorithm>

namespace vadasa::core {

namespace {

/// Highest labelled-null label anywhere in the table. Suppression must start
/// *above* it: under standard semantics ⊥_i = ⊥_j iff i = j, so reusing a
/// label already present in a partially pre-anonymized input silently merges
/// unrelated groups and under-reports risk.
uint64_t MaxNullLabel(const MicrodataTable& table) {
  uint64_t max_label = 0;
  for (size_t r = 0; r < table.num_rows(); ++r) {
    for (size_t c = 0; c < table.num_columns(); ++c) {
      const Value& v = table.cell(r, c);
      if (v.is_null()) max_label = std::max(max_label, v.null_label());
    }
  }
  return max_label;
}

}  // namespace

std::string AnonymizationStep::ToString(const MicrodataTable& table) const {
  std::string out = method + ": row " + std::to_string(row) + ", " +
                    table.attributes()[column].name + ": " + before.ToString() +
                    " -> " + after.ToString();
  if (affected_rows > 1) {
    out += " (" + std::to_string(affected_rows) + " rows)";
  }
  return out;
}

bool LocalSuppression::CanApply(const MicrodataTable& table, size_t row,
                                size_t column) const {
  if (row >= table.num_rows() || column >= table.num_columns()) return false;
  if (table.attributes()[column].category != AttributeCategory::kQuasiIdentifier) {
    return false;
  }
  return !table.cell(row, column).is_null();
}

Result<AnonymizationStep> LocalSuppression::Apply(MicrodataTable* table, size_t row,
                                                  size_t column) {
  if (!CanApply(*table, row, column)) {
    return Status::FailedPrecondition("local suppression not applicable to row " +
                                      std::to_string(row) + " column " +
                                      std::to_string(column));
  }
  if (!label_seeded_) {
    next_label_ = std::max(next_label_, MaxNullLabel(*table) + 1);
    label_seeded_ = true;
  }
  AnonymizationStep step;
  step.row = row;
  step.column = column;
  step.before = table->cell(row, column);
  step.after = Value::Null(next_label_++);
  step.method = name();
  step.nulls_injected = 1;
  ++nulls_created_;
  step.changed_rows.push_back(static_cast<uint32_t>(row));
  table->set_cell(row, column, step.after);
  return step;
}

bool GlobalRecoding::CanApply(const MicrodataTable& table, size_t row,
                              size_t column) const {
  if (row >= table.num_rows() || column >= table.num_columns()) return false;
  if (table.attributes()[column].category != AttributeCategory::kQuasiIdentifier) {
    return false;
  }
  const Value& v = table.cell(row, column);
  if (v.is_null()) return false;
  return hierarchy_->CanGeneralize(table.attributes()[column].name, v);
}

Result<AnonymizationStep> GlobalRecoding::Apply(MicrodataTable* table, size_t row,
                                                size_t column) {
  if (!CanApply(*table, row, column)) {
    return Status::FailedPrecondition("global recoding not applicable to row " +
                                      std::to_string(row) + " column " +
                                      std::to_string(column));
  }
  const std::string& attr = table->attributes()[column].name;
  const Value before = table->cell(row, column);
  VADASA_ASSIGN_OR_RETURN(const Value after, hierarchy_->Generalize(attr, before));
  AnonymizationStep step;
  step.row = row;
  step.column = column;
  step.before = before;
  step.after = after;
  step.method = name();
  step.affected_rows = 0;
  for (size_t r = 0; r < table->num_rows(); ++r) {
    if (table->cell(r, column).Equals(before)) {
      table->set_cell(r, column, after);
      step.changed_rows.push_back(static_cast<uint32_t>(r));
      ++step.affected_rows;
    }
  }
  return step;
}

bool RecordSuppression::CanApply(const MicrodataTable& table, size_t row,
                                 size_t column) const {
  if (row >= table.num_rows() || column >= table.num_columns()) return false;
  // Applicable while the row still has any visible quasi-identifier.
  for (const size_t c : table.QuasiIdentifierColumns()) {
    if (!table.cell(row, c).is_null()) return true;
  }
  return false;
}

Result<AnonymizationStep> RecordSuppression::Apply(MicrodataTable* table, size_t row,
                                                   size_t column) {
  if (!CanApply(*table, row, column)) {
    return Status::FailedPrecondition("record suppression not applicable to row " +
                                      std::to_string(row));
  }
  if (!label_seeded_) {
    next_label_ = std::max(next_label_, MaxNullLabel(*table) + 1);
    label_seeded_ = true;
  }
  AnonymizationStep step;
  step.row = row;
  step.column = column;
  step.before = table->cell(row, column);
  step.method = name();
  step.affected_rows = 1;
  step.changed_rows.push_back(static_cast<uint32_t>(row));
  for (const size_t c : table->QuasiIdentifierColumns()) {
    if (table->cell(row, c).is_null()) continue;
    table->set_cell(row, c, Value::Null(next_label_++));
    ++step.nulls_injected;
  }
  step.after = table->cell(row, column);
  return step;
}

bool RecodeThenSuppress::CanApply(const MicrodataTable& table, size_t row,
                                  size_t column) const {
  return recode_.CanApply(table, row, column) || suppress_.CanApply(table, row, column);
}

Result<AnonymizationStep> RecodeThenSuppress::Apply(MicrodataTable* table, size_t row,
                                                    size_t column) {
  if (recode_.CanApply(*table, row, column)) return recode_.Apply(table, row, column);
  return suppress_.Apply(table, row, column);
}

}  // namespace vadasa::core
