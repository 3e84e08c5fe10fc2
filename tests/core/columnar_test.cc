#include "core/columnar.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/dictionary.h"
#include "core/datagen.h"
#include "core/microdata.h"

namespace vadasa::core {
namespace {

MicrodataTable SmallTable() {
  MicrodataTable t("columnar-test",
                   {{"Q1", "", AttributeCategory::kQuasiIdentifier},
                    {"Q2", "", AttributeCategory::kQuasiIdentifier},
                    {"W", "", AttributeCategory::kWeight}});
  EXPECT_TRUE(t.AddRow({Value::String("a"), Value::Int(1), Value::Double(2.0)}).ok());
  EXPECT_TRUE(t.AddRow({Value::String("b"), Value::Int(1), Value::Double(3.0)}).ok());
  EXPECT_TRUE(t.AddRow({Value::String("a"), Value::Int(2), Value::Double(1.5)}).ok());
  return t;
}

TEST(ColumnarViewTest, MaterializesOnDemandAndEncodesEqualCellsEqually) {
  const MicrodataTable t = SmallTable();
  const ColumnarView view(t);
  EXPECT_EQ(view.num_rows(), 3u);
  EXPECT_EQ(view.num_columns(), 3u);
  const size_t empty_bytes = view.codes_bytes();  // Weights only, no codes.

  view.EnsureColumns(t, {0, 1});
  const std::vector<uint32_t>& q1 = view.Codes(0);
  ASSERT_EQ(q1.size(), 3u);
  EXPECT_EQ(q1[0], q1[2]) << "both rows hold \"a\"";
  EXPECT_NE(q1[0], q1[1]);
  EXPECT_TRUE(view.Decode(0, q1[1]).Equals(Value::String("b")));
  EXPECT_GE(view.codes_bytes(), empty_bytes + 2u * 3u * sizeof(uint32_t));
  EXPECT_EQ(view.dict_entries(), 2u + 2u) << "two distinct values per column";

  const std::vector<double>& w = view.Weights();
  ASSERT_EQ(w.size(), 3u);
  EXPECT_DOUBLE_EQ(w[1], 3.0);
}

TEST(ColumnarViewTest, CodesAreThoseOfInterningEveryCellInRowOrder) {
  // The materializing pass caches codes by cell identity. Equal values with
  // different identities (two payloads of one string, Int(2) and
  // Double(2.0), 0.0 and -0.0), kinds that share a payload word (Int(7),
  // ⊥_7, Bool) and more distinct strings than the cache has slots must
  // still get the codes a plain Intern of every cell in row order gives.
  MicrodataTable t("columnar-cache", {{"Q", "", AttributeCategory::kQuasiIdentifier}});
  const Value shared = Value::String("north");
  std::vector<Value> cells = {shared,          Value::String("north"), shared,
                              Value::Int(2),   Value::Double(2.0),     Value::Double(0.0),
                              Value::Double(-0.0), Value::Int(7),      Value::Null(7),
                              Value::Bool(true), Value::Int(1),        Value::Null(7)};
  for (int i = 0; i < 700; ++i) cells.push_back(Value::String(std::to_string(i % 600) + "s"));
  for (int i = 0; i < 50; ++i) cells.push_back(cells[static_cast<size_t>(i) * 7 % cells.size()]);
  for (const Value& v : cells) ASSERT_TRUE(t.AddRow({v}).ok());

  const ColumnarView view(t);
  view.EnsureColumns(t, {0});
  Dictionary reference;
  ASSERT_EQ(view.Codes(0).size(), cells.size());
  for (size_t r = 0; r < cells.size(); ++r) {
    EXPECT_EQ(view.Codes(0)[r], reference.Intern(t.cell(r, 0))) << "row " << r;
  }
  EXPECT_EQ(view.dict(0).size(), reference.size());
}

TEST(ColumnarViewTest, UpdateRowsRewritesCodesInPlaceOnSuppression) {
  MicrodataTable t = SmallTable();
  ColumnarView view(t);
  view.EnsureColumns(t, {0, 1});
  const uint32_t before = view.Codes(0)[0];
  EXPECT_FALSE(IsNullCode(before));

  // Suppress Q1 of row 0 with a fresh labelled null, as the cycle does.
  t.set_cell(0, 0, Value::Null(9));
  view.UpdateRows(t, {0});

  EXPECT_TRUE(IsNullCode(view.Codes(0)[0]))
      << "the suppressed cell's code moved into the null band";
  EXPECT_EQ(view.Codes(0)[2], before)
      << "untouched rows keep their codes (in-place update, no rebuild)";
  EXPECT_EQ(view.Codes(1)[0], view.Codes(1)[1])
      << "columns not named by the mutation are refreshed, not corrupted";
}

TEST(ColumnarViewTest, UpdateRowsRewritesCodesInPlaceOnRecoding) {
  MicrodataTable t = SmallTable();
  ColumnarView view(t);
  view.EnsureColumns(t, {0});

  // Recode row 1's "b" to the existing "a": its code must land on the code
  // rows 0/2 already carry, merging the group.
  t.set_cell(1, 0, Value::String("a"));
  view.UpdateRows(t, {1});
  EXPECT_EQ(view.Codes(0)[1], view.Codes(0)[0]);

  // Recode to a brand-new domain value: a fresh code is interned.
  t.set_cell(2, 0, Value::String("coarse-band"));
  view.UpdateRows(t, {2});
  EXPECT_NE(view.Codes(0)[2], view.Codes(0)[0]);
  EXPECT_TRUE(view.Decode(0, view.Codes(0)[2]).Equals(Value::String("coarse-band")));
}

TEST(ColumnarViewTest, DistinctNullLabelsStayDistinctUnderEncoding) {
  MicrodataTable t = SmallTable();
  t.set_cell(0, 0, Value::Null(1));
  t.set_cell(1, 0, Value::Null(2));
  t.set_cell(2, 0, Value::Null(1));
  const ColumnarView view(t);
  view.EnsureColumns(t, {0});
  const std::vector<uint32_t>& codes = view.Codes(0);
  EXPECT_TRUE(IsNullCode(codes[0]));
  EXPECT_TRUE(IsNullCode(codes[1]));
  EXPECT_NE(codes[0], codes[1]) << "⊥_1 and ⊥_2 must not collapse";
  EXPECT_EQ(codes[0], codes[2]) << "equal labels share a code";
}

TEST(ColumnarViewTest, CodeForQueryInternsAbsentPatternValues) {
  const MicrodataTable t = SmallTable();
  const ColumnarView view(t);
  view.EnsureColumns(t, {0});
  const uint32_t absent = view.CodeForQuery(0, Value::String("never-in-table"));
  const uint32_t again = view.CodeForQuery(0, Value::String("never-in-table"));
  EXPECT_EQ(absent, again);
  for (const uint32_t code : view.Codes(0)) EXPECT_NE(code, absent);
}

TEST(ColumnarViewTest, UpdateThenAppendInterleavingViaDeltaClone) {
  MicrodataTable t = SmallTable();
  ColumnarView parent(t);
  parent.EnsureColumns(t, {0, 1});
  const uint32_t code_a = parent.Codes(0)[0];
  const uint32_t code_b = parent.Codes(0)[1];

  // Delta: update row 1 ("b" -> "a"), append two rows, one reusing "b" and
  // one introducing a new value — the update-then-append interleaving.
  MicrodataTable next = t;
  next.set_cell(1, 0, Value::String("a"));
  ASSERT_TRUE(
      next.AddRow({Value::String("b"), Value::Int(9), Value::Double(1.0)}).ok());
  ASSERT_TRUE(
      next.AddRow({Value::String("zig"), Value::Int(1), Value::Double(1.0)}).ok());
  const ColumnarView child(parent, next, /*deleted_old_rows=*/{},
                           /*changed_new_rows=*/{1, 3, 4});

  ASSERT_EQ(child.num_rows(), 5u);
  EXPECT_EQ(child.Codes(0)[0], code_a) << "untouched rows keep inherited codes";
  EXPECT_EQ(child.Codes(0)[1], code_a) << "updated cell re-interns to the shared code";
  EXPECT_EQ(child.Codes(0)[3], code_b) << "appended cell reuses the inherited dictionary";
  EXPECT_TRUE(child.Decode(0, child.Codes(0)[4]).Equals(Value::String("zig")));
  EXPECT_DOUBLE_EQ(child.Weights()[3], 1.0);
  EXPECT_DOUBLE_EQ(child.Weights()[0], 2.0);

  // The parent is untouched: old snapshots keep serving pre-delta codes.
  EXPECT_EQ(parent.num_rows(), 3u);
  EXPECT_EQ(parent.Codes(0)[1], code_b);
}

TEST(ColumnarViewTest, DeltaCloneCompactsDeletesAndReInternsLabelledNulls) {
  MicrodataTable t = SmallTable();
  t.set_cell(2, 0, Value::Null(5));
  ColumnarView parent(t);
  parent.EnsureColumns(t, {0});
  const uint32_t null5 = parent.Codes(0)[2];
  ASSERT_TRUE(IsNullCode(null5));

  // Delete row 1 and append a row carrying the same labelled null plus a row
  // with a fresh label: equal labels must collapse onto the inherited code,
  // distinct labels must not.
  MicrodataTable next("columnar-test", t.attributes());
  for (const size_t r : {0, 2}) {
    const std::span<const Value> row = t.row(r);
    ASSERT_TRUE(next.AddRow(std::vector<Value>(row.begin(), row.end())).ok());
  }
  ASSERT_TRUE(next.AddRow({Value::Null(5), Value::Int(3), Value::Double(1.0)}).ok());
  ASSERT_TRUE(next.AddRow({Value::Null(6), Value::Int(3), Value::Double(1.0)}).ok());
  const ColumnarView child(parent, next, /*deleted_old_rows=*/{1},
                           /*changed_new_rows=*/{2, 3});

  ASSERT_EQ(child.num_rows(), 4u);
  EXPECT_EQ(child.Codes(0)[1], null5) << "survivors compact down preserving codes";
  EXPECT_EQ(child.Codes(0)[2], null5) << "⊥_5 re-interns onto the inherited code";
  EXPECT_TRUE(IsNullCode(child.Codes(0)[3]));
  EXPECT_NE(child.Codes(0)[3], null5) << "⊥_6 stays distinct from ⊥_5";
  EXPECT_DOUBLE_EQ(child.Weights()[1], 1.5);
}

TEST(ColumnarViewTest, DeltaCloneLeavesUnmaterializedColumnsUnmaterialized) {
  MicrodataTable t = SmallTable();
  ColumnarView parent(t);
  parent.EnsureColumns(t, {0});  // Column 1 never materialized.
  const size_t parent_bytes = parent.codes_bytes();
  MicrodataTable next = t;
  next.set_cell(0, 0, Value::String("b"));
  const ColumnarView child(parent, next, {}, {0});
  EXPECT_EQ(child.codes_bytes(), parent_bytes)
      << "only column 0's codes (and weights) were cloned";
  // Materializing column 1 afterwards still works against the new table.
  child.EnsureColumns(next, {1});
  EXPECT_EQ(child.Codes(1).size(), 3u);
}

}  // namespace
}  // namespace vadasa::core
