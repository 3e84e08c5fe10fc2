#include "common/csv.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "common/string_util.h"

namespace vadasa {

namespace {

bool EndsUnquotedRun(char c) {
  return c == ',' || c == '"' || c == '\n' || c == '\r';
}

/// Scans the record starting at *pos into *fields, resized to the record's
/// width with each field's buffer reused, and advances *pos past the record's
/// trailing newline (if any).
void ScanRecord(std::string_view text, size_t* pos, std::vector<std::string>* fields) {
  size_t width = 0;
  const auto next_field = [&]() {
    if (width == fields->size()) fields->emplace_back();
    std::string* field = &(*fields)[width++];
    field->clear();
    return field;
  };
  std::string* cur = next_field();
  bool in_quotes = false;
  size_t i = *pos;
  while (i < text.size()) {
    if (in_quotes) {
      // Everything up to the next quote is literal, line breaks included.
      const size_t quote = std::min(text.find('"', i), text.size());
      cur->append(text.data() + i, quote - i);
      if (quote == text.size()) {
        i = quote;
      } else if (quote + 1 < text.size() && text[quote + 1] == '"') {
        cur->push_back('"');
        i = quote + 2;
      } else {
        in_quotes = false;
        i = quote + 1;
      }
      continue;
    }
    size_t end = i;
    while (end < text.size() && !EndsUnquotedRun(text[end])) ++end;
    cur->append(text.data() + i, end - i);
    if (end == text.size()) {
      i = end;
      break;
    }
    i = end + 1;
    const char c = text[end];
    if (c == '"') {
      in_quotes = true;
    } else if (c == ',') {
      cur = next_field();
    } else if (c == '\n') {
      break;
    }
    // A '\r' outside quotes is dropped; \r\n ends the record at its '\n'.
  }
  fields->resize(width);
  *pos = i;
}

bool NeedsQuoting(std::string_view field) {
  return field.find_first_of(",\"\n\r") != std::string_view::npos;
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
/// Non-finite values keep the 6-digit spelling. Negative zero is "-0.0":
/// "-0" would read back as the integer 0.
void AppendRoundTripDouble(std::string* out, double d) {
  if (d == 0 && std::signbit(d)) {
    out->append("-0.0");
    return;
  }
  char buffer[32];
  int precision = 6;
  int size = std::snprintf(buffer, sizeof(buffer), "%.*g", precision, d);
  while (std::isfinite(d) && precision < 17) {
    double parsed = 0;
    std::from_chars(buffer, buffer + size, parsed);
    if (parsed == d) break;
    size = std::snprintf(buffer, sizeof(buffer), "%.*g", ++precision, d);
  }
  out->append(buffer, static_cast<size_t>(size));
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
  std::vector<std::string> fields;
  size_t pos = 0;
  ScanRecord(text, &pos, &fields);
  const size_t width = fields.size();
  VADASA_RETURN_NOT_OK(on_header(fields));
  size_t line = 1;
  while (pos < text.size()) {
    ++line;
    ScanRecord(text, &pos, &fields);
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
      [&](const std::vector<std::string>& header) {
        table.header = header;
        return Status::OK();
      },
      [&](const std::vector<std::string>& row) {
        table.rows.push_back(row);
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
  for (std::string_view prefix : {std::string_view("NULL_"), std::string_view("⊥_")}) {
    if (StartsWith(trimmed, prefix)) {
      const std::string_view rest = trimmed.substr(prefix.size());
      uint64_t label = 0;
      auto [ptr, ec] = std::from_chars(rest.data(), rest.data() + rest.size(), label);
      if (ec == std::errc() && ptr == rest.data() + rest.size()) {
        return Value::Null(label);
      }
    }
  }
  if (LooksLikeInt(trimmed)) {
    int64_t v = 0;
    std::from_chars(trimmed.data(), trimmed.data() + trimmed.size(), v);
    return Value::Int(v);
  }
  if (LooksLikeDouble(trimmed)) {
    double v = 0;
    std::from_chars(trimmed.data(), trimmed.data() + trimmed.size(), v);
    return Value::Double(v);
  }
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
