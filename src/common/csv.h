#ifndef VADASA_COMMON_CSV_H_
#define VADASA_COMMON_CSV_H_

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/value.h"

namespace vadasa {

/// A parsed CSV document: a header row plus data rows of equal width.
struct CsvTable {
  std::vector<std::string> header;
  std::vector<std::vector<std::string>> rows;
};

/// Reads the whole file at `path` with one read into a string sized from the
/// file. IoError when it cannot be opened.
Result<std::string> ReadTextFile(const std::string& path);

/// Receives one scanned CSV record.
using CsvRecordFn = std::function<Status(const std::vector<std::string_view>& fields)>;

/// Scans a CSV document one record at a time under ParseCsv's rules:
/// `on_header` sees the first record, `on_row` every later one except blank
/// lines, and a row whose width differs from the header's stops the scan with
/// ParseCsv's error. A field that is one run of `text` (unquoted, or quoted
/// with no doubled quote) is a view of `text`; any other field is a view of
/// the scanner's own buffer, rewritten by the next record. So the views are
/// valid during the callback only, and a callback copies what it keeps.
/// A callback's error stops the scan and is returned.
Status ScanCsv(std::string_view text, const CsvRecordFn& on_header,
               const CsvRecordFn& on_row);

/// RFC-4180-ish CSV parsing: quoted fields with embedded commas, quotes
/// doubled inside quoted fields, \r\n or \n row separators. The first row is
/// the header. Rows whose width differs from the header are an error.
Result<CsvTable> ParseCsv(std::string_view text);

/// Reads and parses a CSV file from disk.
Result<CsvTable> ReadCsvFile(const std::string& path);

/// Appends `field` as one CSV field, quoted when it holds a comma, a quote or
/// a line break. WriteCsv and MicrodataTable's text writer both quote through
/// it.
void AppendCsvField(std::string* out, std::string_view field);

/// Ends the data record that began at `record_start` in `out`. A record whose
/// only field is empty would be a blank line, which ParseCsv skips; it is
/// written as a quoted space instead, which CellToValue trims back to the
/// empty string.
void EndCsvRecord(std::string* out, size_t record_start);

/// Serializes to CSV, quoting fields when needed.
std::string WriteCsv(const CsvTable& table);

/// Writes a CSV file to disk.
Status WriteCsvFile(const std::string& path, const CsvTable& table);

/// Converts a cell to a Value. The cell is trimmed of ASCII whitespace; then
/// the literal token "NULL_k" (or "⊥_k") becomes a labelled null, a cell that
/// std::from_chars reads whole as an int64_t an integer, one it reads whole as
/// a double a double, and everything else a string.
Value CellToValue(std::string_view cell);

/// Spells a value as a CSV cell, the way CellToValue reads it back: labelled
/// nulls as "NULL_k", doubles with the fewest significant digits (at least 6)
/// that parse back to the same double, everything else as Value::ToString.
/// Returns a view of a string value's own payload, or of `*scratch`, where
/// every other spelling is written.
std::string_view ValueToCell(const Value& value, std::string* scratch);

}  // namespace vadasa

#endif  // VADASA_COMMON_CSV_H_
