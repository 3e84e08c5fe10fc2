#include "vadalog/storage.h"

#include <algorithm>
#include <filesystem>
#include <vector>

#include "common/csv.h"

namespace vadasa::vadalog {

namespace fs = std::filesystem;

Status SaveDatabase(const Database& db, const std::string& directory) {
  std::error_code ec;
  fs::create_directories(directory, ec);
  if (ec) {
    return Status::IoError("cannot create " + directory + ": " + ec.message());
  }
  for (const std::string& predicate : db.Predicates()) {
    const auto& rows = db.Rows(predicate);
    if (rows.empty()) continue;
    CsvTable csv;
    for (size_t c = 0; c < rows[0].size(); ++c) {
      csv.header.push_back("c" + std::to_string(c));
    }
    std::string scratch;
    for (const auto& row : rows) {
      std::vector<std::string> cells;
      cells.reserve(row.size());
      for (const Value& v : row) cells.emplace_back(ValueToCell(v, &scratch));
      csv.rows.push_back(std::move(cells));
    }
    VADASA_RETURN_NOT_OK(
        WriteCsvFile((fs::path(directory) / (predicate + ".csv")).string(), csv));
  }
  return Status::OK();
}

Status LoadDatabase(const std::string& directory, Database* db) {
  std::error_code ec;
  if (!fs::is_directory(directory, ec)) {
    return Status::NotFound(directory + " is not a directory");
  }
  // Deterministic order: collect then sort.
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(directory, ec)) {
    if (entry.path().extension() == ".csv") files.push_back(entry.path());
  }
  if (ec) return Status::IoError("cannot list " + directory + ": " + ec.message());
  std::sort(files.begin(), files.end());
  for (const fs::path& file : files) {
    VADASA_ASSIGN_OR_RETURN(const CsvTable csv, ReadCsvFile(file.string()));
    const std::string predicate = file.stem().string();
    for (const auto& row : csv.rows) {
      std::vector<Value> values;
      values.reserve(row.size());
      for (const std::string& cell : row) values.push_back(CellToValue(cell));
      db->AddFact(predicate, std::move(values));
    }
  }
  return Status::OK();
}

}  // namespace vadasa::vadalog
