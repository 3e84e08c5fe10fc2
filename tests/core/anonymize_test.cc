#include "core/anonymize.h"

#include <gtest/gtest.h>

#include <set>

#include "core/cycle.h"
#include "core/datagen.h"
#include "core/group_index.h"

namespace vadasa::core {
namespace {

TEST(LocalSuppressionTest, ReplacesCellWithFreshNull) {
  MicrodataTable t = Figure5Microdata();
  LocalSuppression anon;
  ASSERT_TRUE(anon.CanApply(t, 0, 2));
  auto step = anon.Apply(&t, 0, 2);
  ASSERT_TRUE(step.ok());
  EXPECT_TRUE(t.cell(0, 2).is_null());
  EXPECT_EQ(step->before.as_string(), "Textiles");
  EXPECT_TRUE(step->after.is_null());
  EXPECT_EQ(step->nulls_injected, 1u);
  EXPECT_EQ(step->affected_rows, 1u);
  EXPECT_EQ(anon.nulls_created(), 1u);
}

TEST(LocalSuppressionTest, FreshLabelsDiffer) {
  MicrodataTable t = Figure5Microdata();
  LocalSuppression anon;
  auto s1 = anon.Apply(&t, 0, 2);
  auto s2 = anon.Apply(&t, 1, 2);
  ASSERT_TRUE(s1.ok());
  ASSERT_TRUE(s2.ok());
  EXPECT_NE(t.cell(0, 2).null_label(), t.cell(1, 2).null_label());
}

TEST(LocalSuppressionTest, NotApplicableTwice) {
  MicrodataTable t = Figure5Microdata();
  LocalSuppression anon;
  ASSERT_TRUE(anon.Apply(&t, 0, 2).ok());
  EXPECT_FALSE(anon.CanApply(t, 0, 2));
  EXPECT_FALSE(anon.Apply(&t, 0, 2).ok());
}

TEST(LocalSuppressionTest, OnlyQuasiIdentifiers) {
  MicrodataTable t = Figure5Microdata();
  LocalSuppression anon;
  EXPECT_FALSE(anon.CanApply(t, 0, 0));  // Id is a direct identifier.
  EXPECT_FALSE(anon.CanApply(t, 99, 2));  // Out of range.
  EXPECT_FALSE(anon.CanApply(t, 0, 99));
}

TEST(LocalSuppressionTest, ReproducesFigure5bFrequencies) {
  // Suppressing Sector of tuple 1 gives the Fig. 5b frequencies 5,3,3,3,3.
  MicrodataTable t = Figure5Microdata();
  LocalSuppression anon;
  ASSERT_TRUE(anon.Apply(&t, 0, 2).ok());
  const GroupStats stats =
      ComputeGroupStats(t, t.QuasiIdentifierColumns(), NullSemantics::kMaybeMatch);
  EXPECT_DOUBLE_EQ(stats.frequency[0], 5.0);
  for (size_t r = 1; r <= 4; ++r) EXPECT_DOUBLE_EQ(stats.frequency[r], 3.0);
  EXPECT_DOUBLE_EQ(stats.frequency[5], 1.0);
}

TEST(GlobalRecodingTest, ReplacesEveryOccurrence) {
  MicrodataTable t = Figure5Microdata();
  Hierarchy h = Hierarchy::ItalianGeography();
  h.SetAttributeType("Area", "City");
  GlobalRecoding anon(&h);
  ASSERT_TRUE(anon.CanApply(t, 0, 1));
  auto step = anon.Apply(&t, 0, 1);  // Roma -> Center, on all 5 rows.
  ASSERT_TRUE(step.ok());
  EXPECT_EQ(step->affected_rows, 5u);
  EXPECT_EQ(step->nulls_injected, 0u);
  for (size_t r = 0; r <= 4; ++r) {
    EXPECT_EQ(t.cell(r, 1).as_string(), "Center");
  }
  EXPECT_EQ(t.cell(5, 1).as_string(), "Milano");  // Untouched.
}

TEST(GlobalRecodingTest, ReproducesFigure5bGeography) {
  // Fig. 5b: Milano and Torino both recode to North, merging tuples 6 and 7.
  MicrodataTable t = Figure5Microdata();
  Hierarchy h = Hierarchy::ItalianGeography();
  h.SetAttributeType("Area", "City");
  GlobalRecoding anon(&h);
  ASSERT_TRUE(anon.Apply(&t, 5, 1).ok());
  ASSERT_TRUE(anon.Apply(&t, 6, 1).ok());
  EXPECT_EQ(t.cell(5, 1).as_string(), "North");
  EXPECT_EQ(t.cell(6, 1).as_string(), "North");
  const GroupStats stats =
      ComputeGroupStats(t, t.QuasiIdentifierColumns(), NullSemantics::kMaybeMatch);
  EXPECT_DOUBLE_EQ(stats.frequency[5], 2.0);
  EXPECT_DOUBLE_EQ(stats.frequency[6], 2.0);
}

TEST(GlobalRecodingTest, FailsWithoutHierarchyEntry) {
  MicrodataTable t = Figure5Microdata();
  Hierarchy h = Hierarchy::ItalianGeography();  // No attribute types declared.
  GlobalRecoding anon(&h);
  EXPECT_FALSE(anon.CanApply(t, 0, 1));
  EXPECT_FALSE(anon.Apply(&t, 0, 1).ok());
}

TEST(RecodeThenSuppressTest, PrefersRecodingFallsBackToNulls) {
  MicrodataTable t = Figure5Microdata();
  Hierarchy h = Hierarchy::ItalianGeography();
  h.SetAttributeType("Area", "City");
  RecodeThenSuppress anon(&h);
  // Area is recodable: recoding applies.
  auto step = anon.Apply(&t, 0, 1);
  ASSERT_TRUE(step.ok());
  EXPECT_EQ(step->method, "global-recoding");
  // Sector has no hierarchy: suppression applies.
  step = anon.Apply(&t, 0, 2);
  ASSERT_TRUE(step.ok());
  EXPECT_EQ(step->method, "local-suppression");
  EXPECT_TRUE(t.cell(0, 2).is_null());
}

TEST(RecordSuppressionTest, WipesAllQuasiIdentifiers) {
  MicrodataTable t = Figure5Microdata();
  RecordSuppression anon;
  ASSERT_TRUE(anon.CanApply(t, 0, 1));
  auto step = anon.Apply(&t, 0, 1);
  ASSERT_TRUE(step.ok());
  EXPECT_EQ(step->nulls_injected, 4u);
  for (const size_t c : t.QuasiIdentifierColumns()) {
    EXPECT_TRUE(t.cell(0, c).is_null());
  }
  // The identifier column is untouched (dropped elsewhere in the pipeline).
  EXPECT_FALSE(t.cell(0, 0).is_null());
  // A fully wiped row cannot be suppressed again.
  EXPECT_FALSE(anon.CanApply(t, 0, 1));
}

TEST(RecordSuppressionTest, DistinctLabelsPerCell) {
  MicrodataTable t = Figure5Microdata();
  RecordSuppression anon;
  ASSERT_TRUE(anon.Apply(&t, 0, 1).ok());
  std::set<uint64_t> labels;
  for (const size_t c : t.QuasiIdentifierColumns()) {
    labels.insert(t.cell(0, c).null_label());
  }
  EXPECT_EQ(labels.size(), 4u);
}

TEST(RecordSuppressionTest, ResolvesAnyCombinationRisk) {
  MicrodataTable t = Figure5Microdata();
  RecordSuppression anon;
  ASSERT_TRUE(anon.Apply(&t, 0, 1).ok());
  const GroupStats stats =
      ComputeGroupStats(t, t.QuasiIdentifierColumns(), NullSemantics::kMaybeMatch);
  // All-wildcards matches every row.
  EXPECT_DOUBLE_EQ(stats.frequency[0], 7.0);
}

TEST(AnonymizationStepTest, ToStringIsReadable) {
  MicrodataTable t = Figure5Microdata();
  LocalSuppression anon;
  auto step = anon.Apply(&t, 0, 2);
  ASSERT_TRUE(step.ok());
  const std::string text = step->ToString(t);
  EXPECT_NE(text.find("local-suppression"), std::string::npos);
  EXPECT_NE(text.find("Sector"), std::string::npos);
  EXPECT_NE(text.find("Textiles"), std::string::npos);
}

}  // namespace
}  // namespace vadasa::core
