#include "testing/shrink.h"

#include <algorithm>
#include <span>
#include <vector>

#include "common/string_util.h"

namespace vadasa::testing {

using core::MicrodataTable;

namespace {

MicrodataTable KeepRows(const MicrodataTable& table, const std::vector<bool>& keep) {
  MicrodataTable out(table.name(), table.attributes());
  for (size_t r = 0; r < table.num_rows(); ++r) {
    if (keep[r]) {
      const std::span<const Value> row = table.row(r);
      Status st = out.AddRow(std::vector<Value>(row.begin(), row.end()));
      (void)st;
    }
  }
  return out;
}

/// One pass of chunked row removal; returns true when anything was removed.
bool ShrinkRowsOnce(MicrodataTable* table, const TableStillFails& still_fails,
                    ShrinkStats* stats) {
  bool removed_any = false;
  for (size_t chunk = std::max<size_t>(1, table->num_rows() / 2); chunk >= 1;
       chunk /= 2) {
    bool removed_at_this_size = true;
    while (removed_at_this_size && table->num_rows() > chunk) {
      removed_at_this_size = false;
      for (size_t start = 0; start + chunk <= table->num_rows(); start += chunk) {
        std::vector<bool> keep(table->num_rows(), true);
        for (size_t r = start; r < start + chunk; ++r) keep[r] = false;
        MicrodataTable candidate = KeepRows(*table, keep);
        ++stats->evaluations;
        if (still_fails(candidate)) {
          stats->rows_removed += chunk;
          *table = std::move(candidate);
          removed_at_this_size = true;
          removed_any = true;
          break;  // Offsets shifted; rescan at this chunk size.
        }
      }
    }
    if (chunk == 1) break;
  }
  return removed_any;
}

/// One pass of column removal; returns true when anything was removed.
bool ShrinkColumnsOnce(MicrodataTable* table, const TableStillFails& still_fails,
                       ShrinkStats* stats) {
  bool removed_any = false;
  for (size_t c = 0; c < table->num_columns();) {
    MicrodataTable candidate = DropColumn(*table, c);
    ++stats->evaluations;
    if (still_fails(candidate)) {
      ++stats->columns_removed;
      *table = std::move(candidate);
      removed_any = true;
      // Re-test the same index: a new column shifted into it.
    } else {
      ++c;
    }
  }
  return removed_any;
}

}  // namespace

core::MicrodataTable DropRow(const core::MicrodataTable& table, size_t row) {
  std::vector<bool> keep(table.num_rows(), true);
  if (row < keep.size()) keep[row] = false;
  return KeepRows(table, keep);
}

core::MicrodataTable DropColumn(const core::MicrodataTable& table, size_t column) {
  std::vector<core::Attribute> attrs;
  for (size_t c = 0; c < table.num_columns(); ++c) {
    if (c != column) attrs.push_back(table.attributes()[c]);
  }
  MicrodataTable out(table.name(), std::move(attrs));
  for (size_t r = 0; r < table.num_rows(); ++r) {
    std::vector<Value> row;
    for (size_t c = 0; c < table.num_columns(); ++c) {
      if (c != column) row.push_back(table.cell(r, c));
    }
    Status st = out.AddRow(std::move(row));
    (void)st;
  }
  return out;
}

core::MicrodataTable ShrinkTable(const core::MicrodataTable& failing,
                                 const TableStillFails& still_fails,
                                 ShrinkStats* stats) {
  ShrinkStats local;
  if (stats == nullptr) stats = &local;
  MicrodataTable current = failing;
  // Alternate row and column passes until neither makes progress.
  for (bool progress = true; progress;) {
    progress = ShrinkRowsOnce(&current, still_fails, stats);
    progress |= ShrinkColumnsOnce(&current, still_fails, stats);
  }
  return current;
}

std::string ShrinkProgram(const std::string& failing,
                          const ProgramStillFails& still_fails,
                          ShrinkStats* stats) {
  ShrinkStats local;
  if (stats == nullptr) stats = &local;
  std::vector<std::string> lines = Split(failing, '\n');
  // Drop a trailing empty segment so the fixpoint does not chase it.
  while (!lines.empty() && Trim(lines.back()).empty()) lines.pop_back();
  for (bool progress = true; progress;) {
    progress = false;
    for (size_t i = 0; i < lines.size();) {
      std::vector<std::string> candidate_lines = lines;
      candidate_lines.erase(candidate_lines.begin() + static_cast<long>(i));
      std::string candidate;
      for (const auto& l : candidate_lines) candidate += l + "\n";
      ++stats->evaluations;
      if (still_fails(candidate)) {
        lines = std::move(candidate_lines);
        ++stats->lines_removed;
        progress = true;
      } else {
        ++i;
      }
    }
  }
  std::string out;
  for (const auto& l : lines) out += l + "\n";
  return out;
}

}  // namespace vadasa::testing
