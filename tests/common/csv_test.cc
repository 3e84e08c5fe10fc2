#include "common/csv.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>

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
      [&](const std::vector<std::string>& fields) {
        header = fields;
        return Status::OK();
      },
      [&](const std::vector<std::string>& fields) {
        rows.push_back(fields);
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
      "a\n1\n2\n3\n", [](const std::vector<std::string>&) { return Status::OK(); },
      [&](const std::vector<std::string>&) {
        return ++rows == 2 ? Status::Cancelled("enough") : Status::OK();
      });
  EXPECT_EQ(scanned.code(), StatusCode::kCancelled);
  EXPECT_EQ(rows, 2u);
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
