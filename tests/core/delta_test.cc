#include "core/delta.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/datagen.h"
#include "core/group_index.h"
#include "core/microdata.h"

namespace vadasa::core {
namespace {

MicrodataTable DeltaTable() {
  MicrodataTable t("delta-test",
                   {{"Q1", "", AttributeCategory::kQuasiIdentifier},
                    {"Q2", "", AttributeCategory::kQuasiIdentifier},
                    {"W", "", AttributeCategory::kWeight}});
  EXPECT_TRUE(t.AddRow({Value::String("a"), Value::Int(1), Value::Double(2.0)}).ok());
  EXPECT_TRUE(t.AddRow({Value::String("b"), Value::Int(1), Value::Double(3.0)}).ok());
  EXPECT_TRUE(t.AddRow({Value::String("a"), Value::Int(2), Value::Double(1.5)}).ok());
  EXPECT_TRUE(t.AddRow({Value::String("b"), Value::Int(2), Value::Double(0.5)}).ok());
  return t;
}

TEST(DeltaBatchBuilderTest, BuildsValidatedBatches) {
  DeltaBatchBuilder builder(3);
  builder.Append({Value::String("c"), Value::Int(3), Value::Double(1.0)})
      .Update(1, {Value::String("a"), Value::Int(1), Value::Double(3.0)})
      .Delete(2);
  auto batch = builder.Build();
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  EXPECT_EQ(batch->size(), 3u);
  EXPECT_EQ(batch->num_columns(), 3u);
  EXPECT_FALSE(batch->empty());
  EXPECT_EQ(batch->ops()[0].kind, DeltaOpKind::kAppend);
  EXPECT_EQ(batch->ops()[1].kind, DeltaOpKind::kUpdate);
  EXPECT_EQ(batch->ops()[2].kind, DeltaOpKind::kDelete);
}

TEST(DeltaBatchBuilderTest, WidthMismatchPoisonsTheBuilder) {
  DeltaBatchBuilder builder(3);
  builder.Append({Value::String("c"), Value::Int(3)});  // Two cells, not three.
  builder.Append({Value::String("d"), Value::Int(4), Value::Double(1.0)});
  const auto batch = builder.Build();
  ASSERT_FALSE(batch.ok());
  EXPECT_EQ(batch.status().code(), StatusCode::kInvalidArgument);
}

TEST(DeltaBatchBuilderTest, UpdateWidthMismatchReportsTheRow) {
  DeltaBatchBuilder builder(2);
  builder.Update(7, {Value::Int(1)});
  const auto batch = builder.Build();
  ASSERT_FALSE(batch.ok());
  EXPECT_NE(batch.status().message().find("7"), std::string::npos);
}

TEST(ApplyDeltaToTableTest, AppendUpdateDeleteSemantics) {
  const MicrodataTable t = DeltaTable();
  DeltaBatchBuilder builder(3);
  builder.Update(0, {Value::String("z"), Value::Int(9), Value::Double(2.0)})
      .Update(0, {Value::String("y"), Value::Int(8), Value::Double(2.5)})
      .Delete(2)
      .Delete(2)
      .Append({Value::String("c"), Value::Int(3), Value::Double(1.0)});
  auto batch = builder.Build();
  ASSERT_TRUE(batch.ok());

  DeltaRowPlan plan;
  auto next = ApplyDeltaToTable(t, *batch, &plan);
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  ASSERT_EQ(next->num_rows(), 4u);
  // Last update wins; survivors keep their relative order; append lands last.
  EXPECT_TRUE(next->cell(0, 0).Equals(Value::String("y")));
  EXPECT_TRUE(next->cell(1, 0).Equals(Value::String("b")));
  EXPECT_TRUE(next->cell(2, 0).Equals(Value::String("b")));
  EXPECT_TRUE(next->cell(3, 0).Equals(Value::String("c")));
  // Duplicate deletes collapse; the plan reports new-space updated rows.
  EXPECT_EQ(plan.deleted_old_rows, (std::vector<uint32_t>{2}));
  EXPECT_EQ(plan.updated_new_rows, (std::vector<uint32_t>{0}));
  EXPECT_EQ(plan.appended_rows, 1u);
  // The parent table is untouched.
  EXPECT_TRUE(t.cell(0, 0).Equals(Value::String("a")));
  EXPECT_EQ(t.num_rows(), 4u);
}

TEST(ApplyDeltaToTableTest, DeletingAnUpdatedRowDiscardsTheUpdate) {
  const MicrodataTable t = DeltaTable();
  DeltaBatchBuilder builder(3);
  builder.Update(1, {Value::String("q"), Value::Int(7), Value::Double(1.0)}).Delete(1);
  auto batch = builder.Build();
  ASSERT_TRUE(batch.ok());
  DeltaRowPlan plan;
  auto next = ApplyDeltaToTable(t, *batch, &plan);
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(next->num_rows(), 3u);
  EXPECT_TRUE(plan.updated_new_rows.empty());
  for (size_t r = 0; r < next->num_rows(); ++r) {
    EXPECT_FALSE(next->cell(r, 0).Equals(Value::String("q")));
  }
}

TEST(ApplyDeltaToTableTest, RejectsBadBatchesBeforeMutating) {
  const MicrodataTable t = DeltaTable();
  {
    DeltaBatchBuilder builder(2);  // Wrong arity for the table.
    builder.Delete(0);
    auto batch = builder.Build();
    ASSERT_TRUE(batch.ok());
    EXPECT_EQ(ApplyDeltaToTable(t, *batch).status().code(),
              StatusCode::kInvalidArgument);
  }
  {
    DeltaBatchBuilder builder(3);
    builder.Delete(99);  // Out of range.
    auto batch = builder.Build();
    ASSERT_TRUE(batch.ok());
    EXPECT_EQ(ApplyDeltaToTable(t, *batch).status().code(),
              StatusCode::kInvalidArgument);
  }
  {
    DeltaBatchBuilder builder(3);
    builder.Append({Value::String("c"), Value::Int(3), Value::String("heavy")});
    auto batch = builder.Build();
    ASSERT_TRUE(batch.ok());
    EXPECT_EQ(ApplyDeltaToTable(t, *batch).status().code(), StatusCode::kTypeError);
  }
}

/// GroupIndex::ApplyDelta must be bit-identical to a cold rebuild of the
/// post-delta table — the unit-sized version of the
/// delta-vs-full-recompute-bit-identical property.
TEST(GroupIndexDeltaTest, ColumnarPlaneMatchesColdRebuild) {
  MicrodataTable t = Figure5Microdata();
  const auto qis = t.QuasiIdentifierColumns();
  GroupIndex base(t, qis, NullSemantics::kMaybeMatch);
  (void)base.Stats();  // Warm the projection-index memo pre-delta.

  DeltaBatchBuilder builder(t.num_columns());
  const std::span<const Value> row1 = t.row(1);
  std::vector<Value> moved(row1.begin(), row1.end());
  moved[qis[0]] = Value::Null(41);
  builder.Update(1, std::move(moved));
  builder.Delete(3);
  const std::span<const Value> row0 = t.row(0);
  builder.Append(std::vector<Value>(row0.begin(), row0.end()));
  const std::span<const Value> row2 = t.row(2);
  std::vector<Value> fresh(row2.begin(), row2.end());
  fresh[qis[1]] = Value::String("brand-new");
  builder.Append(std::move(fresh));
  auto batch = builder.Build();
  ASSERT_TRUE(batch.ok());

  DeltaRowPlan plan;
  auto next = ApplyDeltaToTable(t, *batch, &plan);
  ASSERT_TRUE(next.ok()) << next.status().ToString();

  const std::unique_ptr<GroupIndex> patched = base.ApplyDelta(*next, plan);
  GroupIndex cold(*next, qis, NullSemantics::kMaybeMatch);
  EXPECT_EQ(patched->num_rows(), cold.num_rows());
  EXPECT_EQ(patched->Stats().frequency, cold.Stats().frequency);
  EXPECT_EQ(patched->Stats().weight_sum, cold.Stats().weight_sum);
  EXPECT_EQ(patched->incremental_updates(), base.incremental_updates() + 1);

  // The base index still answers pre-delta queries — old snapshots stay valid.
  EXPECT_EQ(base.num_rows(), t.num_rows());
  GroupIndex pre(t, qis, NullSemantics::kMaybeMatch);
  EXPECT_EQ(base.Stats().frequency, pre.Stats().frequency);
  EXPECT_EQ(base.Stats().weight_sum, pre.Stats().weight_sum);
}

TEST(GroupIndexDeltaTest, ChainedDeltasStayIdenticalUnderStandardNulls) {
  MicrodataTable t = DeltaTable();
  const auto qis = t.QuasiIdentifierColumns();
  std::unique_ptr<GroupIndex> index =
      std::make_unique<GroupIndex>(t, qis, NullSemantics::kStandard);

  // Tables must outlive the indexes patched over them (ApplyDelta contract),
  // so the chain keeps every generation alive.
  std::vector<std::unique_ptr<MicrodataTable>> history;
  history.push_back(std::make_unique<MicrodataTable>(t));
  for (int step = 0; step < 3; ++step) {
    const MicrodataTable& current = *history.back();
    DeltaBatchBuilder builder(current.num_columns());
    builder.Append({Value::String("a"), Value::Int(1 + step), Value::Double(1.0)});
    builder.Delete(0);
    auto batch = builder.Build();
    ASSERT_TRUE(batch.ok());
    DeltaRowPlan plan;
    auto next = ApplyDeltaToTable(current, *batch, &plan);
    ASSERT_TRUE(next.ok());
    history.push_back(std::make_unique<MicrodataTable>(std::move(*next)));
    index = index->ApplyDelta(*history.back(), plan);
    GroupIndex cold(*history.back(), qis, NullSemantics::kStandard);
    EXPECT_EQ(index->Stats().frequency, cold.Stats().frequency) << "step " << step;
    EXPECT_EQ(index->Stats().weight_sum, cold.Stats().weight_sum) << "step " << step;
  }
}

}  // namespace
}  // namespace vadasa::core
