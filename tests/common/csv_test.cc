#include "common/csv.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <string_view>

#include "common/random.h"
#include "testing/oracles.h"

namespace vadasa {
namespace {

TEST(CsvTest, ParsesSimpleTable) {
  auto table = ParseCsv("a,b,c\n1,2,3\n4,5,6\n");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->header, (std::vector<std::string>{"a", "b", "c"}));
  ASSERT_EQ(table->rows.size(), 2u);
  EXPECT_EQ(table->rows[1][2], "6");
}

TEST(CsvTest, HandlesQuotedFields) {
  auto table = ParseCsv("name,desc\n\"Rossi, Mario\",\"said \"\"ciao\"\"\"\n");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->rows[0][0], "Rossi, Mario");
  EXPECT_EQ(table->rows[0][1], "said \"ciao\"");
}

TEST(CsvTest, HandlesCrLf) {
  auto table = ParseCsv("a,b\r\n1,2\r\n");
  ASSERT_TRUE(table.ok());
  ASSERT_EQ(table->rows.size(), 1u);
  EXPECT_EQ(table->rows[0][1], "2");
}

TEST(CsvTest, RejectsRaggedRows) {
  auto table = ParseCsv("a,b\n1,2,3\n");
  EXPECT_FALSE(table.ok());
  EXPECT_EQ(table.status().code(), StatusCode::kParseError);
}

TEST(CsvTest, RejectsEmptyDocument) {
  EXPECT_FALSE(ParseCsv("").ok());
}

TEST(CsvTest, RoundTrip) {
  CsvTable t;
  t.header = {"x", "y"};
  t.rows = {{"plain", "with,comma"}, {"with\"quote", "multi\nline"}};
  auto parsed = ParseCsv(WriteCsv(t));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->rows, t.rows);
}

TEST(CsvTest, FileRoundTrip) {
  CsvTable t;
  t.header = {"id", "area"};
  t.rows = {{"1", "North"}, {"2", "South"}};
  const std::string path = ::testing::TempDir() + "/vadasa_csv_test.csv";
  ASSERT_TRUE(WriteCsvFile(path, t).ok());
  auto loaded = ReadCsvFile(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->rows, t.rows);
}

TEST(CsvTest, ReadMissingFileFails) {
  EXPECT_EQ(ReadCsvFile("/nonexistent/file.csv").status().code(), StatusCode::kIoError);
}

TEST(CsvTest, ScanCsvHandsOverTheHeaderAndEachRow) {
  std::vector<std::string> header;
  std::vector<std::vector<std::string>> rows;
  const Status scanned = ScanCsv(
      "a,b\r\n1,\"two, three\"\r\n\r\n4,5\n\n",
      [&](const std::vector<std::string_view>& fields) {
        header.assign(fields.begin(), fields.end());
        return Status::OK();
      },
      [&](const std::vector<std::string_view>& fields) {
        rows.emplace_back(fields.begin(), fields.end());
        return Status::OK();
      });
  ASSERT_TRUE(scanned.ok()) << scanned.ToString();
  EXPECT_EQ(header, (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(rows, (std::vector<std::vector<std::string>>{{"1", "two, three"},
                                                         {"4", "5"}}));
}

TEST(CsvTest, ScanCsvStopsAtTheCallbacksError) {
  size_t rows = 0;
  const Status scanned = ScanCsv(
      "a\n1\n2\n3\n", [](const std::vector<std::string_view>&) { return Status::OK(); },
      [&](const std::vector<std::string_view>&) {
        return ++rows == 2 ? Status::Cancelled("enough") : Status::OK();
      });
  EXPECT_EQ(scanned.code(), StatusCode::kCancelled);
  EXPECT_EQ(rows, 2u);
}

TEST(CsvTest, ScanCsvViewsOneRunFieldsInTheTextAndAssemblesTheRest) {
  // Unquoted and escape-free quoted fields are views of the text; a field
  // of several runs is assembled, and its view stays valid while later
  // fields of the record grow the assembly buffer.
  const std::string long_run(5000, 'x');
  const std::string text = "a,b,c,d\nplain,\"q, one\",\"say \"\"hi\"\"\",ab\"" + long_run +
                           "\"cd\r\n";
  std::vector<std::string_view> row;
  std::vector<std::string> copies;
  const Status scanned = ScanCsv(
      text, [](const std::vector<std::string_view>&) { return Status::OK(); },
      [&](const std::vector<std::string_view>& fields) {
        row = fields;
        copies.assign(fields.begin(), fields.end());
        return Status::OK();
      });
  ASSERT_TRUE(scanned.ok()) << scanned.ToString();
  ASSERT_EQ(copies.size(), 4u);
  EXPECT_EQ(copies[0], "plain");
  EXPECT_EQ(copies[1], "q, one");
  EXPECT_EQ(copies[2], "say \"hi\"");
  EXPECT_EQ(copies[3], "ab" + long_run + "cd");
  const auto in_text = [&](std::string_view field) {
    return field.data() >= text.data() && field.data() + field.size() <= text.data() + text.size();
  };
  EXPECT_TRUE(in_text(row[0]));
  EXPECT_TRUE(in_text(row[1]));
  EXPECT_FALSE(in_text(row[2]));
  EXPECT_FALSE(in_text(row[3]));
}

TEST(CsvTest, PlainAndGeneralRecordsInOneDocumentMatchTheReference) {
  // A record with no quote and no carriage return before its line break is
  // split at its commas; any other goes through the general loop. Both kinds
  // alternate here, with empty fields at either end of a record, blank lines
  // and a last record with no line break.
  const std::string text =
      "area,sector,w\n"
      "North,Bank,1\n"
      "South,,\n"
      ",Bank,2\n"
      "\"East, upper\",Bank,3\n"
      " North ,Ban\rk,4\r\n"
      "\n"
      "West,\"multi\nline\",5\n"
      ",,\n"
      "\r\n"
      "North,\"say \"\"hi\"\"\",6\n"
      "South,Bank,";
  const Result<CsvTable> parsed = ParseCsv(text);
  const Result<CsvTable> reference = testing::ReferenceParseCsv(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  EXPECT_EQ(parsed->header, reference->header);
  EXPECT_EQ(parsed->rows, reference->rows);
  EXPECT_EQ(parsed->rows,
            (std::vector<std::vector<std::string>>{{"North", "Bank", "1"},
                                                   {"South", "", ""},
                                                   {"", "Bank", "2"},
                                                   {"East, upper", "Bank", "3"},
                                                   {" North ", "Bank", "4"},
                                                   {"West", "multi\nline", "5"},
                                                   {"", "", ""},
                                                   {"North", "say \"hi\"", "6"},
                                                   {"South", "Bank", ""}}));
  const Status loaded = testing::CheckLoadMatchesReference(text);
  EXPECT_TRUE(loaded.ok()) << loaded.ToString();
}

TEST(CsvTest, ReadTextFileReadsTheWholeFile) {
  const std::string path = ::testing::TempDir() + "/vadasa_csv_text_test.csv";
  std::string contents = "id,area\n";
  for (int i = 0; i < 5000; ++i) contents += std::to_string(i) + ",North\n";
  {
    std::ofstream out(path, std::ios::binary);
    out << contents;
  }
  auto text = ReadTextFile(path);
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  EXPECT_EQ(*text, contents);
  std::remove(path.c_str());
  EXPECT_EQ(ReadTextFile(path).status().code(), StatusCode::kIoError);
}

TEST(CsvTest, LoneEmptyFieldIsWrittenAsAQuotedSpace) {
  // A blank line would be skipped on the way back in; a quoted space is a
  // field, and CellToValue trims it back to the empty string.
  CsvTable t;
  t.header = {"note"};
  t.rows = {{"first"}, {""}, {"last"}};
  const std::string text = WriteCsv(t);
  EXPECT_EQ(text, "note\nfirst\n\" \"\nlast\n");
  auto parsed = ParseCsv(text);
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->rows.size(), 3u);
  EXPECT_EQ(CellToValue(parsed->rows[1][0]).as_string(), "");
}

TEST(CsvTest, ValueToCellRoundTripsDoubles) {
  std::string scratch;
  EXPECT_EQ(ValueToCell(Value::Double(26284.5678), &scratch), "26284.5678");
  EXPECT_EQ(ValueToCell(Value::Double(1234567.1), &scratch), "1234567.1");
  EXPECT_EQ(ValueToCell(Value::Double(0.1 + 0.2), &scratch), "0.30000000000000004");
  // Where 6 digits round-trip, the spelling is `std::ostream << d`'s.
  EXPECT_EQ(ValueToCell(Value::Double(2.5), &scratch), "2.5");
  EXPECT_EQ(ValueToCell(Value::Double(1e6), &scratch), "1e+06");
  EXPECT_EQ(ValueToCell(Value::Double(3.0), &scratch), "3");
  EXPECT_EQ(ValueToCell(Value::Double(HUGE_VAL), &scratch), "inf");
  // "-0" would read back as the integer 0.
  EXPECT_EQ(ValueToCell(Value::Double(-0.0), &scratch), "-0.0");
  EXPECT_TRUE(std::signbit(CellToValue("-0.0").as_double()));
  for (const double d : {26284.5678, 1234567.1, 1e-300, -123456789.123456789}) {
    EXPECT_EQ(CellToValue(ValueToCell(Value::Double(d), &scratch)).as_double(), d);
  }
}

TEST(CsvTest, ValueToCellSpellsTheOtherKinds) {
  std::string scratch;
  const Value name = Value::String("Rossi, Mario");
  const std::string_view spelled = ValueToCell(name, &scratch);
  EXPECT_EQ(spelled, "Rossi, Mario");
  EXPECT_EQ(spelled.data(), name.as_string().data());  // The payload itself.
  EXPECT_EQ(ValueToCell(Value::Null(7), &scratch), "NULL_7");
  EXPECT_EQ(ValueToCell(Value::Int(-42), &scratch), "-42");
  EXPECT_EQ(ValueToCell(Value::Bool(true), &scratch), "true");
}

/// Same kind and spelling, and for doubles the same bits (Value::Equals
/// holds -0.0 equal to 0 and NaN equal to every number).
void ExpectSameValue(const Value& got, const Value& want, std::string_view cell) {
  EXPECT_EQ(got.kind(), want.kind()) << "cell \"" << cell << "\"";
  EXPECT_EQ(got.ToString(), want.ToString()) << "cell \"" << cell << "\"";
  if (got.is_double() && want.is_double()) {
    uint64_t got_bits = 0;
    uint64_t want_bits = 0;
    const double got_double = got.as_double();
    const double want_double = want.as_double();
    std::memcpy(&got_bits, &got_double, sizeof(got_bits));
    std::memcpy(&want_bits, &want_double, sizeof(want_bits));
    EXPECT_EQ(got_bits, want_bits) << "cell \"" << cell << "\"";
  }
}

TEST(CsvTest, CellToValueMatchesReference) {
  // A spelling at each branch of the cell reader, bare and padded by each
  // "C"-locale space (and by bytes that are none), against the retired
  // reader that trimmed with std::isspace and parsed twice.
  static const char* const kCells[] = {
      "", "North", "x y", "+5", "-0", "007", "1e5", ".5", "5.", "-", "inf",
      "-Infinity", "INF", "nan", "NaN", "nan(1)", "0x10", "N/A", "NULL_", "NULL_7",
      "NULL_x", "NULL_-1", "NULL_18446744073709551616", "⊥_3", "⊥_", "⊥ sign",
      "\xE2\x82\xAC", "99999999999999999999", "-9223372036854775808",
      "9223372036854775807", "9223372036854775808", "1e400", "-1e-400", "4.9e-324",
      "0-30", "1.2.3", "e5", "i", "n", ".", "-.5"};
  static const char* const kPads[] = {"", " ", "\t", "\n", "\v", "\f", "\r", " \t\r\n",
                                      "\xC2\xA0", "\x1f", "\x85"};
  size_t checked = 0;
  for (const char* cell : kCells) {
    for (const char* before : kPads) {
      for (const char* after : kPads) {
        const std::string text = std::string(before) + cell + after;
        ExpectSameValue(CellToValue(text), testing::ReferenceCellToValue(text), text);
        ++checked;
      }
    }
  }
  EXPECT_EQ(checked, std::size(kCells) * std::size(kPads) * std::size(kPads));
}

TEST(CsvTest, ValueToCellMatchesTheRoundTripReference) {
  // Seeded doubles of every shape against the retired snprintf search: random
  // bit patterns, probabilities, money-like amounts, every power of two
  // (where the shortest form can lie outside printf's rounding), and the
  // edges.
  Rng rng(20251019);
  std::vector<double> doubles = {0.0, -0.0, 1.0, -1.0, 0.1, 1e6, 1e-300, 5e-324,
                                 std::numeric_limits<double>::max(),
                                 std::numeric_limits<double>::min(), HUGE_VAL, -HUGE_VAL,
                                 std::nan(""), -std::nan("")};
  for (int k = -1074; k <= 1023; ++k) {
    doubles.push_back(std::ldexp(1.0, k));
    doubles.push_back(-std::ldexp(3.0, k));
  }
  for (int i = 0; i < 100000; ++i) {
    const uint64_t bits = rng.Next();
    double random_bits = 0;
    std::memcpy(&random_bits, &bits, sizeof(random_bits));
    doubles.push_back(random_bits);
    doubles.push_back(rng.NextDouble());
    doubles.push_back(static_cast<double>(rng.NextInt(-100000000, 100000000)) / 100.0);
  }
  std::string scratch;
  size_t differ = 0;
  for (const double d : doubles) {
    const std::string want = testing::ReferenceRoundTripDouble(d);
    const std::string_view got = ValueToCell(Value::Double(d), &scratch);
    if (got != want && ++differ <= 5) {
      ADD_FAILURE() << "ValueToCell spells " << want << " as " << got;
    }
  }
  EXPECT_EQ(differ, 0u) << "of " << doubles.size();
}

TEST(CsvTest, CellToValueDetectsTypes) {
  EXPECT_TRUE(CellToValue("42").is_int());
  EXPECT_TRUE(CellToValue("-3.5").is_double());
  EXPECT_TRUE(CellToValue("North").is_string());
  EXPECT_TRUE(CellToValue("0-30").is_string());  // Range labels stay strings.
  const Value null_cell = CellToValue("NULL_7");
  ASSERT_TRUE(null_cell.is_null());
  EXPECT_EQ(null_cell.null_label(), 7u);
  EXPECT_TRUE(CellToValue("NULL_x").is_string());  // Malformed label: literal.
}

}  // namespace
}  // namespace vadasa
