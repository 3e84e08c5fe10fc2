#include "testing/shrink.h"

#include <gtest/gtest.h>

#include "core/microdata.h"
#include "testing/harness.h"
#include "testing/properties.h"

namespace vadasa::testing {
namespace {

using core::Attribute;
using core::AttributeCategory;
using core::MicrodataTable;

MicrodataTable TenRows() {
  MicrodataTable table("t", {{"Q1", "", AttributeCategory::kQuasiIdentifier},
                             {"Q2", "", AttributeCategory::kQuasiIdentifier},
                             {"Q3", "", AttributeCategory::kQuasiIdentifier}});
  for (int r = 0; r < 10; ++r) {
    const std::string v = (r == 3 || r == 8) ? "dup" : "u" + std::to_string(r);
    EXPECT_TRUE(table
                    .AddRow({Value::String(v), Value::Int(r),
                             Value::String("x" + std::to_string(r))})
                    .ok());
  }
  return table;
}

size_t CountDup(const MicrodataTable& table) {
  size_t count = 0;
  for (size_t r = 0; r < table.num_rows(); ++r) {
    for (size_t c = 0; c < table.num_columns(); ++c) {
      const Value& v = table.cell(r, c);
      if (v.is_string() && v.as_string() == "dup") ++count;
    }
  }
  return count;
}

TEST(ShrinkTableTest, ReachesMinimalFailingInput) {
  ShrinkStats stats;
  const auto shrunk = ShrinkTable(
      TenRows(), [](const MicrodataTable& t) { return CountDup(t) >= 2; }, &stats);
  // Exactly the two "dup" rows survive, and only the column carrying them.
  EXPECT_EQ(shrunk.num_rows(), 2u);
  EXPECT_EQ(shrunk.num_columns(), 1u);
  EXPECT_EQ(CountDup(shrunk), 2u);
  EXPECT_EQ(stats.rows_removed, 8u);
  EXPECT_EQ(stats.columns_removed, 2u);
  EXPECT_GT(stats.evaluations, 0u);
}

TEST(ShrinkTableTest, ResultAlwaysFails) {
  // A predicate with a non-contiguous trigger set: both Q2==2 and Q2==7 rows.
  const auto shrunk = ShrinkTable(TenRows(), [](const MicrodataTable& t) {
    bool two = false, seven = false;
    for (size_t r = 0; r < t.num_rows(); ++r) {
      for (size_t c = 0; c < t.num_columns(); ++c) {
        const Value& v = t.cell(r, c);
        if (v.is_int() && v.as_int() == 2) two = true;
        if (v.is_int() && v.as_int() == 7) seven = true;
      }
    }
    return two && seven;
  });
  EXPECT_EQ(shrunk.num_rows(), 2u);
  EXPECT_EQ(shrunk.num_columns(), 1u);
}

TEST(ShrinkTableTest, DeterministicAcrossRuns) {
  const auto predicate = [](const MicrodataTable& t) { return CountDup(t) >= 1; };
  const auto a = ShrinkTable(TenRows(), predicate);
  const auto b = ShrinkTable(TenRows(), predicate);
  ASSERT_EQ(a.num_rows(), b.num_rows());
  ASSERT_EQ(a.num_columns(), b.num_columns());
  for (size_t r = 0; r < a.num_rows(); ++r) {
    for (size_t c = 0; c < a.num_columns(); ++c) {
      EXPECT_TRUE(a.cell(r, c).Equals(b.cell(r, c)));
    }
  }
}

TEST(ShrinkProgramTest, DropsIrrelevantLines) {
  const std::string failing = "p(a).\nq(b).\nkeep(me).\nr(c).\n";
  ShrinkStats stats;
  const std::string shrunk = ShrinkProgram(
      failing,
      [](const std::string& s) { return s.find("keep") != std::string::npos; },
      &stats);
  EXPECT_EQ(shrunk, "keep(me).\n");
  EXPECT_EQ(stats.lines_removed, 3u);
}

/// A property with two failure modes: a table holding the value "dup", and a
/// table of fewer than three rows. Dropping rows from a case that fails by
/// "dup" reaches the small-table failure first; the shrinker must stay with
/// the original one (digits in the message may change).
TEST(ShrinkCaseTest, StaysWithinTheOriginalFailureMode) {
  Property property;
  property.name = "two-modes";
  property.evaluate = [](const ReproCase& repro) {
    const std::string rows = std::to_string(repro.table.num_rows());
    if (repro.table.num_rows() < 3) {
      return Status::FailedPrecondition("only " + rows + " rows");
    }
    if (CountDup(repro.table) > 0) {
      return Status::FailedPrecondition("a row of " + rows + " holds dup");
    }
    return Status::OK();
  };
  ReproCase failing;
  failing.property = property.name;
  failing.table = TenRows();
  const ReproCase shrunk = ShrinkCase(property, failing);
  EXPECT_EQ(shrunk.message, "FailedPrecondition: a row of 3 holds dup");
  EXPECT_EQ(shrunk.table.num_rows(), 3u);
  EXPECT_EQ(CountDup(shrunk.table), 1u);
}

TEST(DropHelpersTest, DropRowAndColumn) {
  const auto table = TenRows();
  const auto no_row0 = DropRow(table, 0);
  EXPECT_EQ(no_row0.num_rows(), 9u);
  EXPECT_TRUE(no_row0.cell(0, 1).Equals(Value::Int(1)));
  const auto no_col1 = DropColumn(table, 1);
  EXPECT_EQ(no_col1.num_columns(), 2u);
  EXPECT_EQ(no_col1.attributes()[1].name, "Q3");
  EXPECT_EQ(no_col1.num_rows(), 10u);
}

}  // namespace
}  // namespace vadasa::testing
