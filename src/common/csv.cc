#include "common/csv.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "common/string_util.h"

namespace vadasa {

namespace {

/// Bytes that end an unquoted run in the scanner and that make a field need
/// quoting in the writer: the separator, the quote and the line breaks.
constexpr std::array<bool, 256> kCsvSpecial = [] {
  std::array<bool, 256> table{};
  for (const char c : {',', '"', '\n', '\r'}) table[static_cast<unsigned char>(c)] = true;
  return table;
}();

bool IsCsvSpecial(char c) { return kCsvSpecial[static_cast<unsigned char>(c)]; }

/// One scanned record, its buffers reused from record to record.
struct ScannedRecord {
  /// Each field, a view of the text or of `assembled`.
  std::vector<std::string_view> fields;
  /// The bytes of the fields that are not one run of the text, back to back.
  std::string assembled;
  /// Where each of those fields is: its index in `fields` and its bytes in
  /// `assembled`.
  struct Span {
    size_t field;
    size_t offset;
    size_t size;
  };
  std::vector<Span> spans;
};

/// Scans the record starting at *pos into *record and advances *pos past the
/// record's trailing newline (if any). A record with no quote and no carriage
/// return before its line break is split at its commas into views of `text`.
/// Any other record is read by the general loop: a field stays a view of
/// `text` while its bytes are one run of it; a second run copies it into
/// `record->assembled`, and those fields get their views once the record is
/// complete, so no view points into a buffer that can still grow.
void ScanRecord(std::string_view text, size_t* pos, ScannedRecord* record) {
  record->fields.clear();
  const char* const data = text.data();
  const size_t size = text.size();
  for (size_t begin = *pos, i = *pos;; ++i) {
    while (i < size && !IsCsvSpecial(data[i])) ++i;
    if (i < size && data[i] == ',') {
      record->fields.emplace_back(data + begin, i - begin);
      begin = i + 1;
      continue;
    }
    if (i == size || data[i] == '\n') {
      record->fields.emplace_back(data + begin, i - begin);
      *pos = i == size ? size : i + 1;
      return;
    }
    break;  // A quote or a carriage return: the general loop reads the record.
  }
  record->fields.clear();
  record->assembled.clear();
  record->spans.clear();
  size_t i = *pos;
  // The current field: the run [run_begin, run_end) of the text or, once
  // `in_buffer`, the bytes of `assembled` from `buffer_offset` on.
  size_t run_begin = i;
  size_t run_end = i;
  bool in_buffer = false;
  size_t buffer_offset = 0;
  const auto add_run = [&](size_t begin, size_t end) {
    if (begin == end) return;
    if (!in_buffer) {
      if (run_begin == run_end || run_end == begin) {
        if (run_begin == run_end) run_begin = begin;
        run_end = end;
        return;
      }
      in_buffer = true;
      buffer_offset = record->assembled.size();
      record->assembled.append(data + run_begin, run_end - run_begin);
    }
    record->assembled.append(data + begin, end - begin);
  };
  const auto end_field = [&]() {
    if (in_buffer) {
      record->spans.push_back({record->fields.size(), buffer_offset,
                               record->assembled.size() - buffer_offset});
      record->fields.emplace_back();
      in_buffer = false;
    } else {
      record->fields.emplace_back(data + run_begin, run_end - run_begin);
    }
    run_begin = run_end = i;
  };
  bool in_quotes = false;
  while (i < size) {
    if (in_quotes) {
      // Everything up to the next quote is literal, line breaks included.
      const void* found = std::memchr(data + i, '"', size - i);
      const size_t quote =
          found == nullptr ? size : static_cast<size_t>(static_cast<const char*>(found) - data);
      add_run(i, quote);
      if (quote == size) {
        i = size;
        break;
      }
      if (quote + 1 < size && data[quote + 1] == '"') {
        add_run(quote, quote + 1);  // A doubled quote is one quote.
        i = quote + 2;
      } else {
        in_quotes = false;
        i = quote + 1;
      }
      continue;
    }
    size_t end = i;
    while (end < size && !IsCsvSpecial(data[end])) ++end;
    add_run(i, end);
    if (end == size) {
      i = size;
      break;
    }
    i = end + 1;
    const char c = data[end];
    if (c == '"') {
      in_quotes = true;
    } else if (c == ',') {
      end_field();
    } else if (c == '\n') {
      break;
    }
    // A '\r' outside quotes is dropped; \r\n ends the record at its '\n'.
  }
  end_field();
  const std::string_view assembled = record->assembled;
  for (const ScannedRecord::Span& span : record->spans) {
    record->fields[span.field] = assembled.substr(span.offset, span.size);
  }
  *pos = i;
}

bool NeedsQuoting(std::string_view field) {
  return std::any_of(field.begin(), field.end(), IsCsvSpecial);
}

/// Whether `c` can start a number std::from_chars reads as a double: a minus
/// sign, a digit, a point, or the first letter of inf or nan.
bool CanStartDouble(char c) {
  return c == '-' || c == '.' || (c >= '0' && c <= '9') || c == 'i' || c == 'I' ||
         c == 'n' || c == 'N';
}

/// Whether std::from_chars reads all of `s` into `*value`.
template <typename Number>
bool ParsesWhole(std::string_view s, Number* value) {
  const char* const end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, *value);
  return ec == std::errc() && ptr == end;
}

template <typename Int>
void AppendInteger(std::string* out, Int value) {
  char buffer[24];
  const auto result = std::to_chars(buffer, buffer + sizeof(buffer), value);
  out->append(buffer, result.ptr);
}

/// The shortest "%.{p}g" spelling with p >= 6 that parses back to `d`. At
/// p = 6 it is what `std::ostream << d` writes, so a double that 6 digits
/// already round-trip keeps those bytes; 17 digits round-trip every double.
/// No p below the digit count of d's shortest round-trip form parses back, so
/// the search starts there, and std::to_chars writes what printf would. The
/// correctly rounded form at that count parses back except at some powers of
/// two, whose shortest form lies on the wide side of their rounding interval
/// (2^-1017 takes 17 digits, its shortest form 16); those step on.
/// Non-finite values keep the 6-digit spelling. Negative zero is "-0.0": "-0"
/// would read back as the integer 0.
void AppendRoundTripDouble(std::string* out, double d) {
  if (d == 0 && std::signbit(d)) {
    out->append("-0.0");
    return;
  }
  char buffer[32];
  int precision = 6;
  if (std::isfinite(d)) {
    char* const shortest =
        std::to_chars(buffer, buffer + sizeof(buffer), d, std::chars_format::scientific).ptr;
    const auto digits = std::count_if(buffer, std::find(buffer, shortest, 'e'),
                                      [](char c) { return c >= '0' && c <= '9'; });
    precision = std::max(precision, static_cast<int>(digits));
  }
  for (;; ++precision) {
    char* const end =
        std::to_chars(buffer, buffer + sizeof(buffer), d, std::chars_format::general, precision)
            .ptr;
    double parsed = 0;
    std::from_chars(buffer, end, parsed);
    if (parsed == d || !std::isfinite(d) || precision >= 17) {
      out->append(buffer, end);
      return;
    }
  }
}

}  // namespace

Result<std::string> ReadTextFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open " + path);
  std::error_code ec;
  const uintmax_t size = std::filesystem::file_size(path, ec);
  std::string text(ec ? 0 : static_cast<size_t>(size), '\0');
  in.read(text.data(), static_cast<std::streamsize>(text.size()));
  text.resize(static_cast<size_t>(in.gcount()));
  // Whatever the size did not cover (a pipe has none, a file may have grown
  // since) is read on in chunks.
  char chunk[1 << 14];
  while (in.read(chunk, sizeof(chunk)) || in.gcount() > 0) {
    text.append(chunk, static_cast<size_t>(in.gcount()));
  }
  return text;
}

Status ScanCsv(std::string_view text, const CsvRecordFn& on_header,
               const CsvRecordFn& on_row) {
  if (text.empty()) return Status::ParseError("empty CSV document");
  ScannedRecord record;
  const std::vector<std::string_view>& fields = record.fields;
  size_t pos = 0;
  ScanRecord(text, &pos, &record);
  const size_t width = fields.size();
  VADASA_RETURN_NOT_OK(on_header(fields));
  size_t line = 1;
  while (pos < text.size()) {
    ++line;
    ScanRecord(text, &pos, &record);
    if (fields.size() == 1 && fields[0].empty()) continue;  // Trailing blank line.
    if (fields.size() != width) {
      return Status::ParseError("CSV row " + std::to_string(line) + " has " +
                                std::to_string(fields.size()) + " fields, header has " +
                                std::to_string(width));
    }
    VADASA_RETURN_NOT_OK(on_row(fields));
  }
  return Status::OK();
}

Result<CsvTable> ParseCsv(std::string_view text) {
  CsvTable table;
  VADASA_RETURN_NOT_OK(ScanCsv(
      text,
      [&](const std::vector<std::string_view>& header) {
        table.header = std::vector<std::string>(header.begin(), header.end());
        return Status::OK();
      },
      [&](const std::vector<std::string_view>& row) {
        table.rows.emplace_back(row.begin(), row.end());
        return Status::OK();
      }));
  return table;
}

Result<CsvTable> ReadCsvFile(const std::string& path) {
  VADASA_ASSIGN_OR_RETURN(const std::string text, ReadTextFile(path));
  return ParseCsv(text);
}

void AppendCsvField(std::string* out, std::string_view field) {
  if (!NeedsQuoting(field)) {
    out->append(field);
    return;
  }
  out->push_back('"');
  for (char c : field) {
    if (c == '"') out->push_back('"');
    out->push_back(c);
  }
  out->push_back('"');
}

void EndCsvRecord(std::string* out, size_t record_start) {
  if (out->size() == record_start) out->append("\" \"");
  out->push_back('\n');
}

std::string WriteCsv(const CsvTable& table) {
  std::string out;
  for (size_t i = 0; i < table.header.size(); ++i) {
    if (i > 0) out += ',';
    AppendCsvField(&out, table.header[i]);
  }
  out += '\n';
  for (const auto& row : table.rows) {
    const size_t start = out.size();
    for (size_t i = 0; i < row.size(); ++i) {
      if (i > 0) out += ',';
      AppendCsvField(&out, row[i]);
    }
    EndCsvRecord(&out, start);
  }
  return out;
}

Status WriteCsvFile(const std::string& path, const CsvTable& table) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IoError("cannot open " + path + " for writing");
  out << WriteCsv(table);
  if (!out) return Status::IoError("write failed: " + path);
  return Status::OK();
}

Value CellToValue(std::string_view cell) {
  const std::string_view trimmed = TrimView(cell);
  if (trimmed.empty()) return Value::String(std::string());
  const char lead = trimmed.front();
  // A labelled null starts with the N of "NULL_" or ⊥'s first UTF-8 byte.
  if (lead == 'N' || lead == '\xE2') {
    const std::string_view prefix = lead == 'N' ? "NULL_" : "⊥_";
    uint64_t label = 0;
    if (StartsWith(trimmed, prefix) && ParsesWhole(trimmed.substr(prefix.size()), &label)) {
      return Value::Null(label);
    }
  }
  int64_t integer = 0;
  if (ParsesWhole(trimmed, &integer)) return Value::Int(integer);
  double number = 0;
  if (CanStartDouble(lead) && ParsesWhole(trimmed, &number)) return Value::Double(number);
  return Value::String(std::string(trimmed));
}

std::string_view ValueToCell(const Value& value, std::string* scratch) {
  scratch->clear();
  switch (value.kind()) {
    case ValueKind::kString:
      return value.as_string();
    case ValueKind::kNull:
      scratch->append("NULL_");
      AppendInteger(scratch, value.null_label());
      break;
    case ValueKind::kInt:
      AppendInteger(scratch, value.as_int());
      break;
    case ValueKind::kDouble:
      AppendRoundTripDouble(scratch, value.as_double());
      break;
    default:
      *scratch = value.ToString();
      break;
  }
  return *scratch;
}

}  // namespace vadasa
