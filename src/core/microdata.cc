#include "core/microdata.h"

#include <algorithm>
#include <iomanip>
#include <optional>
#include <sstream>

#include "common/flat_map.h"
#include "common/string_util.h"

namespace vadasa::core {

std::string AttributeCategoryToString(AttributeCategory c) {
  switch (c) {
    case AttributeCategory::kIdentifier:
      return "Identifier";
    case AttributeCategory::kQuasiIdentifier:
      return "Quasi-identifier";
    case AttributeCategory::kNonIdentifying:
      return "Non-identifying";
    case AttributeCategory::kWeight:
      return "Sampling Weight";
  }
  return "?";
}

Result<AttributeCategory> AttributeCategoryFromString(const std::string& s) {
  if (s == "Identifier") return AttributeCategory::kIdentifier;
  if (s == "Quasi-identifier") return AttributeCategory::kQuasiIdentifier;
  if (s == "Non-identifying") return AttributeCategory::kNonIdentifying;
  if (s == "Sampling Weight" || s == "Weight") return AttributeCategory::kWeight;
  return Status::InvalidArgument("unknown attribute category: " + s);
}

Status MicrodataTable::CheckRowWidth(size_t cells) const {
  if (cells == attributes_.size()) return Status::OK();
  return Status::InvalidArgument("row has " + std::to_string(cells) +
                                 " cells, schema has " +
                                 std::to_string(attributes_.size()));
}

Status MicrodataTable::AddRow(std::vector<Value> row) {
  VADASA_RETURN_NOT_OK(CheckRowWidth(row.size()));
  rows_.push_back(
      SharedRow::Build(row.size(), [&row](size_t c) { return std::move(row[c]); }));
  return Status::OK();
}

void MicrodataTable::ReindexSchema() {
  name_index_.clear();
  name_index_.reserve(attributes_.size());
  weight_column_ = -1;
  for (size_t i = 0; i < attributes_.size(); ++i) {
    // First occurrence wins, matching the former linear scan on duplicates.
    name_index_.emplace(attributes_[i].name, static_cast<int>(i));
    if (weight_column_ < 0 &&
        attributes_[i].category == AttributeCategory::kWeight) {
      weight_column_ = static_cast<int>(i);
    }
  }
}

int MicrodataTable::ColumnIndex(const std::string& name) const {
  auto it = name_index_.find(name);
  return it == name_index_.end() ? -1 : it->second;
}

Status MicrodataTable::SetCategory(const std::string& attribute,
                                   AttributeCategory category) {
  const int idx = ColumnIndex(attribute);
  if (idx < 0) return Status::NotFound("no attribute named " + attribute);
  attributes_[idx].category = category;
  ReindexSchema();
  return Status::OK();
}

std::vector<size_t> MicrodataTable::ColumnsWithCategory(
    AttributeCategory category) const {
  std::vector<size_t> out;
  for (size_t i = 0; i < attributes_.size(); ++i) {
    if (attributes_[i].category == category) out.push_back(i);
  }
  return out;
}

double MicrodataTable::RowWeight(size_t row) const {
  const int w = weight_column_;
  if (w < 0) return 1.0;
  const Value& v = cell(row, static_cast<size_t>(w));
  return v.is_numeric() ? v.as_double() : 1.0;
}

size_t MicrodataTable::CountNullCells() const {
  size_t count = 0;
  const auto qis = QuasiIdentifierColumns();
  for (const SharedRow& row : rows_) {
    const std::span<const Value> cells = row.cells();
    for (const size_t c : qis) {
      if (cells[c].is_null()) ++count;
    }
  }
  return count;
}

Status MicrodataTable::Validate() const {
  size_t weights = 0;
  for (const Attribute& a : attributes_) {
    if (a.category == AttributeCategory::kWeight) ++weights;
  }
  if (weights > 1) {
    return Status::FailedPrecondition("microdata DB " + name_ +
                                      " has more than one weight column");
  }
  const int w = WeightColumn();
  for (size_t i = 0; i < rows_.size(); ++i) {
    const std::span<const Value> cells = rows_[i].cells();
    if (cells.size() != attributes_.size()) {
      return Status::FailedPrecondition("row " + std::to_string(i) + " has wrong width");
    }
    if (w >= 0 && !cells[static_cast<size_t>(w)].is_numeric()) {
      return Status::TypeError("row " + std::to_string(i) +
                               " has a non-numeric sampling weight");
    }
  }
  return Status::OK();
}

/// Loads CSV records into a table under FromCsv's rules, each row built in
/// place in its block. Every cell is read by CellToValue, but each column
/// interns its strings: the trimmed cell text is looked up before anything is
/// allocated, so a repeated value costs a refcount instead of a payload of its
/// own. The intern tables live only as long as the load.
class MicrodataTable::RowBuilder {
 public:
  RowBuilder(const std::string& name, const std::vector<std::string_view>& header,
             const std::vector<std::string>& identifier_attributes,
             const std::string& weight_attribute)
      : table_(name, CsvSchema(header, identifier_attributes, weight_attribute)),
        interned_(header.size()) {}

  Status Add(const std::vector<std::string_view>& record) {
    VADASA_RETURN_NOT_OK(table_.CheckRowWidth(record.size()));
    table_.rows_.push_back(
        SharedRow::Build(record.size(), [&](size_t c) { return Cell(c, record[c]); }));
    return Status::OK();
  }

  Result<MicrodataTable> Finish() {
    VADASA_RETURN_NOT_OK(table_.Validate());
    return std::move(table_);
  }

 private:
  static std::vector<Attribute> CsvSchema(
      const std::vector<std::string_view>& header,
      const std::vector<std::string>& identifier_attributes,
      const std::string& weight_attribute) {
    std::vector<Attribute> attrs;
    for (const std::string_view col : header) {
      Attribute a;
      a.name = col;
      if (col == weight_attribute) {
        a.category = AttributeCategory::kWeight;
      } else if (std::find(identifier_attributes.begin(), identifier_attributes.end(),
                           col) != identifier_attributes.end()) {
        a.category = AttributeCategory::kIdentifier;
      } else {
        a.category = AttributeCategory::kQuasiIdentifier;
      }
      attrs.push_back(std::move(a));
    }
    return attrs;
  }

  /// Each string value of one column seen so far, keyed by a view of its own
  /// payload.
  using InternTable = FlatMap<std::string_view, Value, BytesHash>;

  /// Trims the cell once: CellToValue finds nothing left to trim.
  Value Cell(size_t column, std::string_view text) {
    const std::string_view trimmed = TrimView(text);
    InternTable& interned = interned_[column];
    if (const Value* hit = interned.Find(trimmed)) return *hit;
    Value value = CellToValue(trimmed);
    if (value.is_string()) {
      bool inserted = false;
      interned.Emplace(value.as_string(), &inserted) = value;
    }
    return value;
  }

  MicrodataTable table_;
  std::vector<InternTable> interned_;
};

Result<MicrodataTable> MicrodataTable::FromCsv(
    const std::string& name, const CsvTable& csv,
    const std::vector<std::string>& identifier_attributes,
    const std::string& weight_attribute) {
  std::vector<std::string_view> fields(csv.header.begin(), csv.header.end());
  RowBuilder builder(name, fields, identifier_attributes, weight_attribute);
  for (const auto& row : csv.rows) {
    fields.assign(row.begin(), row.end());
    VADASA_RETURN_NOT_OK(builder.Add(fields));
  }
  return builder.Finish();
}

Result<MicrodataTable> MicrodataTable::FromCsvText(const std::string& name,
                                                   std::string_view text) {
  std::optional<RowBuilder> builder;
  VADASA_RETURN_NOT_OK(ScanCsv(
      text,
      [&](const std::vector<std::string_view>& header) {
        builder.emplace(name, header, std::vector<std::string>{}, "");
        return Status::OK();
      },
      [&](const std::vector<std::string_view>& record) { return builder->Add(record); }));
  return builder->Finish();
}

Result<MicrodataTable> MicrodataTable::LoadCsv(const std::string& path) {
  VADASA_ASSIGN_OR_RETURN(const std::string text, ReadTextFile(path));
  return FromCsvText(path, text);
}

CsvTable MicrodataTable::ToCsv() const {
  CsvTable csv;
  for (const Attribute& a : attributes_) csv.header.push_back(a.name);
  csv.rows.reserve(rows_.size());
  std::string scratch;
  for (const SharedRow& row : rows_) {
    std::vector<std::string> cells;
    cells.reserve(row.cells().size());
    for (const Value& v : row.cells()) cells.emplace_back(ValueToCell(v, &scratch));
    csv.rows.push_back(std::move(cells));
  }
  return csv;
}

std::string MicrodataTable::CsvText() const {
  std::string out;
  AppendCsvHeader(&out);
  for (size_t r = 0; r < rows_.size(); ++r) AppendCsvRow(&out, r);
  return out;
}

void MicrodataTable::AppendCsvHeader(std::string* out) const {
  for (size_t c = 0; c < attributes_.size(); ++c) {
    if (c > 0) out->push_back(',');
    AppendCsvField(out, attributes_[c].name);
  }
  out->push_back('\n');
}

void MicrodataTable::AppendCsvRow(std::string* out, size_t row) const {
  const size_t start = out->size();
  std::string scratch;
  const std::span<const Value> cells = rows_[row].cells();
  for (size_t c = 0; c < cells.size(); ++c) {
    if (c > 0) out->push_back(',');
    AppendCsvField(out, ValueToCell(cells[c], &scratch));
  }
  EndCsvRecord(out, start);
}

std::string MicrodataTable::ToText(size_t max_rows) const {
  std::vector<size_t> widths(attributes_.size());
  for (size_t c = 0; c < attributes_.size(); ++c) {
    widths[c] = attributes_[c].name.size();
  }
  const size_t shown = std::min(max_rows, rows_.size());
  std::vector<std::vector<std::string>> cells(shown);
  for (size_t r = 0; r < shown; ++r) {
    for (size_t c = 0; c < attributes_.size(); ++c) {
      std::string s = cell(r, c).ToString();
      widths[c] = std::max(widths[c], s.size());
      cells[r].push_back(std::move(s));
    }
  }
  std::ostringstream os;
  os << "# " << name_ << " (" << rows_.size() << " rows)\n";
  for (size_t c = 0; c < attributes_.size(); ++c) {
    os << std::left << std::setw(static_cast<int>(widths[c]) + 2) << attributes_[c].name;
  }
  os << "\n";
  for (size_t r = 0; r < shown; ++r) {
    for (size_t c = 0; c < attributes_.size(); ++c) {
      os << std::left << std::setw(static_cast<int>(widths[c]) + 2) << cells[r][c];
    }
    os << "\n";
  }
  if (shown < rows_.size()) os << "... (" << rows_.size() - shown << " more)\n";
  return os.str();
}

}  // namespace vadasa::core
