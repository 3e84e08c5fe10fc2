#include "core/microdata.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/datagen.h"

namespace vadasa::core {
namespace {

MicrodataTable TwoColumnTable() {
  MicrodataTable t("demo", {{"Id", "", AttributeCategory::kIdentifier},
                            {"Area", "", AttributeCategory::kQuasiIdentifier},
                            {"Weight", "", AttributeCategory::kWeight}});
  EXPECT_TRUE(t.AddRow({Value::Int(1), Value::String("North"), Value::Int(10)}).ok());
  EXPECT_TRUE(t.AddRow({Value::Int(2), Value::String("South"), Value::Int(20)}).ok());
  return t;
}

TEST(MicrodataTest, CategoryRoundTrip) {
  for (const AttributeCategory c :
       {AttributeCategory::kIdentifier, AttributeCategory::kQuasiIdentifier,
        AttributeCategory::kNonIdentifying, AttributeCategory::kWeight}) {
    auto parsed = AttributeCategoryFromString(AttributeCategoryToString(c));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, c);
  }
  EXPECT_FALSE(AttributeCategoryFromString("Nonsense").ok());
}

TEST(MicrodataTest, AddRowChecksWidth) {
  MicrodataTable t = TwoColumnTable();
  EXPECT_FALSE(t.AddRow({Value::Int(3)}).ok());
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(MicrodataTest, ColumnLookups) {
  const MicrodataTable t = TwoColumnTable();
  EXPECT_EQ(t.ColumnIndex("Area"), 1);
  EXPECT_EQ(t.ColumnIndex("Missing"), -1);
  EXPECT_EQ(t.WeightColumn(), 2);
  EXPECT_EQ(t.QuasiIdentifierColumns(), std::vector<size_t>{1});
  EXPECT_EQ(t.ColumnsWithCategory(AttributeCategory::kIdentifier),
            std::vector<size_t>{0});
}

TEST(MicrodataTest, RowWeightDefaultsToOne) {
  MicrodataTable t("noweight", {{"A", "", AttributeCategory::kQuasiIdentifier}});
  ASSERT_TRUE(t.AddRow({Value::String("x")}).ok());
  EXPECT_DOUBLE_EQ(t.RowWeight(0), 1.0);
  const MicrodataTable w = TwoColumnTable();
  EXPECT_DOUBLE_EQ(w.RowWeight(1), 20.0);
}

TEST(MicrodataTest, SetCategory) {
  MicrodataTable t = TwoColumnTable();
  ASSERT_TRUE(t.SetCategory("Area", AttributeCategory::kNonIdentifying).ok());
  EXPECT_TRUE(t.QuasiIdentifierColumns().empty());
  EXPECT_FALSE(t.SetCategory("Missing", AttributeCategory::kWeight).ok());
}

TEST(MicrodataTest, ValidateRejectsTwoWeights) {
  MicrodataTable t("bad", {{"W1", "", AttributeCategory::kWeight},
                           {"W2", "", AttributeCategory::kWeight}});
  EXPECT_FALSE(t.Validate().ok());
}

TEST(MicrodataTest, ValidateRejectsNonNumericWeight) {
  MicrodataTable t("bad", {{"W", "", AttributeCategory::kWeight}});
  ASSERT_TRUE(t.AddRow({Value::String("heavy")}).ok());
  EXPECT_EQ(t.Validate().code(), StatusCode::kTypeError);
}

TEST(MicrodataTest, CountNullCellsOnlyQuasiIdentifiers) {
  MicrodataTable t = TwoColumnTable();
  t.set_cell(0, 1, Value::Null(1));
  t.set_cell(1, 0, Value::Null(2));  // Identifier column: not counted.
  EXPECT_EQ(t.CountNullCells(), 1u);
}

TEST(MicrodataTest, CsvRoundTripPreservesNulls) {
  MicrodataTable t = TwoColumnTable();
  t.set_cell(0, 1, Value::Null(7));
  const CsvTable csv = t.ToCsv();
  auto back = MicrodataTable::FromCsv("demo", csv, {"Id"}, "Weight");
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_TRUE(back->cell(0, 1).is_null());
  EXPECT_EQ(back->cell(0, 1).null_label(), 7u);
  EXPECT_EQ(back->cell(1, 1).as_string(), "South");
  EXPECT_EQ(back->WeightColumn(), 2);
  EXPECT_EQ(back->attributes()[0].category, AttributeCategory::kIdentifier);
}

/// Writes `contents` to a fresh temp file; returns its path.
std::string TempFile(const std::string& tag, const std::string& contents) {
  const std::string path = ::testing::TempDir() + "vadasa_microdata_" + tag + ".csv";
  std::ofstream out(path, std::ios::binary);
  out << contents;
  return path;
}

TEST(MicrodataTest, LoadCsvSharesOnePayloadPerStringInAColumn) {
  const std::string path = TempFile(
      "intern", "area,sector,w\nNorth,Bank,1\n North ,Bank,2\nSouth,North,3\nNorth,Bank,4\n");
  auto table = MicrodataTable::LoadCsv(path);
  std::remove(path.c_str());
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  ASSERT_EQ(table->num_rows(), 4u);
  EXPECT_EQ(table->name(), path);
  // Padded or not, equal strings in one column are one payload...
  EXPECT_EQ(&table->cell(0, 0).as_string(), &table->cell(1, 0).as_string());
  EXPECT_EQ(&table->cell(0, 0).as_string(), &table->cell(3, 0).as_string());
  EXPECT_EQ(table->cell(1, 0).as_string(), "North");
  EXPECT_NE(&table->cell(0, 0).as_string(), &table->cell(2, 0).as_string());
  // ...within a column only: "North" under sector is its own.
  EXPECT_EQ(table->cell(2, 1).as_string(), "North");
  EXPECT_NE(&table->cell(2, 1).as_string(), &table->cell(0, 0).as_string());
  EXPECT_EQ(&table->cell(0, 1).as_string(), &table->cell(3, 1).as_string());
  EXPECT_TRUE(table->cell(0, 2).is_int());
}

TEST(MicrodataTest, SetCellOnOneRowLeavesItsSharedPayloadIntact) {
  const std::string path = TempFile("cow", "area\nNorth\nNorth\n");
  auto loaded = MicrodataTable::LoadCsv(path);
  std::remove(path.c_str());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  MicrodataTable table = std::move(*loaded);
  ASSERT_EQ(&table.cell(0, 0).as_string(), &table.cell(1, 0).as_string());
  table.set_cell(0, 0, Value::String("South"));
  EXPECT_EQ(table.cell(0, 0).as_string(), "South");
  EXPECT_EQ(table.cell(1, 0).as_string(), "North");
}

TEST(MicrodataTest, LoadCsvFailsLikeTheReader) {
  EXPECT_EQ(MicrodataTable::LoadCsv("/does/not/exist.csv").status().code(),
            StatusCode::kIoError);
  const std::string empty = TempFile("empty", "");
  EXPECT_EQ(MicrodataTable::LoadCsv(empty).status().code(), StatusCode::kParseError);
  std::remove(empty.c_str());
  const std::string ragged = TempFile("ragged", "a,b\n1,2\n1,2,3\n");
  const Status status = MicrodataTable::LoadCsv(ragged).status();
  std::remove(ragged.c_str());
  EXPECT_EQ(status.code(), StatusCode::kParseError);
  EXPECT_EQ(status.message(), "CSV row 3 has 3 fields, header has 2");
}

TEST(MicrodataTest, HeaderOnlyCsvLoadsAsAnEmptyTable) {
  auto table = MicrodataTable::FromCsvText("empty", "area,sector\n");
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  EXPECT_EQ(table->num_columns(), 2u);
  EXPECT_EQ(table->num_rows(), 0u);
}

TEST(MicrodataTest, FromCsvTextMatchesFromCsv) {
  // With no weight attribute named, a column named "" is the weight.
  const std::string text =
      "Id,Area,\r\n1,\"North, East\",10\r\n2,NULL_4,2.5\r\n3, South ,20\r\n";
  auto streamed = MicrodataTable::FromCsvText("demo", text);
  auto csv = ParseCsv(text);
  ASSERT_TRUE(csv.ok());
  auto reference = MicrodataTable::FromCsv("demo", *csv, {}, "");
  ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  EXPECT_EQ(streamed->WeightColumn(), 2);
  EXPECT_EQ(streamed->attributes()[0].category, AttributeCategory::kQuasiIdentifier);
  ASSERT_EQ(streamed->num_rows(), reference->num_rows());
  for (size_t r = 0; r < streamed->num_rows(); ++r) {
    const std::span<const Value> got = streamed->row(r);
    const std::span<const Value> want = reference->row(r);
    EXPECT_EQ(std::vector<Value>(got.begin(), got.end()),
              std::vector<Value>(want.begin(), want.end()))
        << "row " << r;
  }
  EXPECT_TRUE(streamed->cell(1, 1).is_null());
  EXPECT_EQ(streamed->cell(2, 1).as_string(), "South");
  // A weight that is not numeric fails validation the same way.
  const std::string bad = "Id,Area,\n1,North,heavy\n";
  auto bad_csv = ParseCsv(bad);
  ASSERT_TRUE(bad_csv.ok());
  const Status status = MicrodataTable::FromCsvText("demo", bad).status();
  EXPECT_EQ(status.code(), StatusCode::kTypeError);
  EXPECT_EQ(status.message(),
            MicrodataTable::FromCsv("demo", *bad_csv, {}, "").status().message());
}

TEST(MicrodataTest, CsvTextIsWriteCsvOfToCsv) {
  MicrodataTable t = TwoColumnTable();
  t.set_cell(0, 1, Value::Null(7));
  t.set_cell(1, 1, Value::String("say \"hi\", twice\n"));
  t.set_cell(1, 2, Value::Double(26284.5678));
  const std::string text = t.CsvText();
  EXPECT_EQ(text, WriteCsv(t.ToCsv()));
  EXPECT_EQ(text,
            "Id,Area,Weight\n1,NULL_7,10\n2,\"say \"\"hi\"\", twice\n\",26284.5678\n");
  std::string lines;
  t.AppendCsvHeader(&lines);
  for (size_t r = 0; r < t.num_rows(); ++r) t.AppendCsvRow(&lines, r);
  EXPECT_EQ(lines, text);
}

TEST(MicrodataTest, ToTextTruncates) {
  const MicrodataTable t = Figure1Microdata();
  const std::string text = t.ToText(3);
  EXPECT_NE(text.find("(17 more)"), std::string::npos);
  EXPECT_NE(text.find("I&G"), std::string::npos);
}

TEST(Figure1Test, MatchesPaperShape) {
  const MicrodataTable t = Figure1Microdata();
  EXPECT_EQ(t.num_rows(), 20u);
  EXPECT_EQ(t.num_columns(), 9u);
  EXPECT_EQ(t.QuasiIdentifierColumns().size(), 5u);
  ASSERT_TRUE(t.Validate().ok());
  // Tuple 15 (index 14) has the smallest weight, 30; tuple 7 (index 6) the
  // largest, 300.
  EXPECT_DOUBLE_EQ(t.RowWeight(14), 30.0);
  EXPECT_DOUBLE_EQ(t.RowWeight(6), 300.0);
}

TEST(Figure5Test, MatchesPaperShape) {
  const MicrodataTable t = Figure5Microdata();
  EXPECT_EQ(t.num_rows(), 7u);
  EXPECT_EQ(t.QuasiIdentifierColumns().size(), 4u);
  EXPECT_EQ(t.cell(0, 1).as_string(), "Roma");
  // Ids keep their leading zeros (strings, not ints).
  EXPECT_EQ(t.cell(0, 0).as_string(), "099876");
}

TEST(MicrodataTest, CopiedTablesShareRowsUntilWritten) {
  // Rows are structurally shared between table copies (the delta rebuild
  // relies on it); set_cell must detach a private copy instead of writing
  // through to every copy.
  MicrodataTable original = TwoColumnTable();
  MicrodataTable copy = original;
  EXPECT_EQ(copy.row(0).data(), original.row(0).data()) << "copies alias unchanged rows";

  copy.set_cell(0, 1, Value::String("East"));
  EXPECT_EQ(copy.cell(0, 1).as_string(), "East");
  EXPECT_EQ(original.cell(0, 1).as_string(), "North")
      << "a write to one copy must never leak into the other";
  EXPECT_NE(copy.row(0).data(), original.row(0).data());
  EXPECT_EQ(copy.row(1).data(), original.row(1).data()) << "untouched rows stay shared";

  // Writing the sole owner must not detach again (no copy churn).
  const auto* before = copy.row(0).data();
  copy.set_cell(0, 1, Value::String("West"));
  EXPECT_EQ(copy.row(0).data(), before);
}

TEST(MicrodataTest, ConcurrentCopiesWriteOnlyTheirOwnRows) {
  // Four threads each copy one table (every row handle shared), write their
  // own copy (each write detaches a row) and read the original while the
  // others do the same; the row blocks' counts are shared by all of them.
  const std::string path = TempFile("threads", "area,sector,w\nNorth,Bank,1\nSouth,Bank,2\n"
                                               "North,Insurance,3\nEast,Bank,4\n");
  auto loaded = MicrodataTable::LoadCsv(path);
  std::remove(path.c_str());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const MicrodataTable original = std::move(*loaded);
  const std::string before = original.CsvText();
  const std::vector<std::string> areas = {"North", "South", "North", "East"};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      const std::string mine = std::to_string(t) + "t";
      for (int round = 0; round < 200; ++round) {
        MicrodataTable copy = original;
        for (size_t r = 0; r < copy.num_rows(); ++r) {
          copy.set_cell(r, 0, Value::String(mine));
          copy.set_cell(r, 2, Value::Int(round));
        }
        for (size_t r = 0; r < copy.num_rows(); ++r) {
          const bool copy_ok = copy.cell(r, 0).as_string() == mine &&
                               copy.cell(r, 1) == original.cell(r, 1) &&
                               copy.cell(r, 2) == Value::Int(round);
          const bool original_ok =
              original.cell(r, 0).as_string() == areas[r] &&
              original.cell(r, 2) == Value::Int(static_cast<int64_t>(r) + 1);
          if (!copy_ok || !original_ok) ++mismatches;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(original.CsvText(), before);
  EXPECT_EQ(&original.cell(0, 0).as_string(), &original.cell(2, 0).as_string());
}

}  // namespace
}  // namespace vadasa::core
