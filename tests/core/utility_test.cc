#include "core/utility.h"

#include <gtest/gtest.h>

#include "core/anonymize.h"
#include "core/cycle.h"
#include "core/datagen.h"
#include "core/risk.h"

namespace vadasa::core {
namespace {

TEST(UtilityTest, IdenticalTablesAreLossless) {
  const MicrodataTable t = Figure1Microdata();
  auto report = MeasureUtility(t, t);
  ASSERT_TRUE(report.ok());
  EXPECT_DOUBLE_EQ(report->max_total_variation, 0.0);
  EXPECT_DOUBLE_EQ(report->weighted_mean_ratio, 1.0);
  EXPECT_DOUBLE_EQ(report->disturbed_pairs_fraction, 0.0);
  EXPECT_EQ(report->marginals.size(), t.QuasiIdentifierColumns().size());
}

TEST(UtilityTest, ShapeMismatchFails) {
  const MicrodataTable a = Figure1Microdata();
  const MicrodataTable b = Figure5Microdata();
  EXPECT_FALSE(MeasureUtility(a, b).ok());
}

TEST(UtilityTest, SuppressionRaisesSuppressedFraction) {
  const MicrodataTable original = Figure5Microdata();
  MicrodataTable anonymized = original;
  anonymized.set_cell(0, 1, Value::Null(1));
  anonymized.set_cell(1, 1, Value::Null(2));
  auto report = MeasureUtility(original, anonymized);
  ASSERT_TRUE(report.ok());
  // Area column: 2 of 7 cells suppressed.
  EXPECT_NEAR(report->marginals[0].suppressed_fraction, 2.0 / 7, 1e-12);
  EXPECT_DOUBLE_EQ(report->marginals[1].suppressed_fraction, 0.0);
}

TEST(UtilityTest, ColumnTotalVariationDetectsShift) {
  MicrodataTable a("a", {{"X", "", AttributeCategory::kQuasiIdentifier}});
  MicrodataTable b("b", {{"X", "", AttributeCategory::kQuasiIdentifier}});
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(a.AddRow({Value::String(i < 2 ? "p" : "q")}).ok());
    ASSERT_TRUE(b.AddRow({Value::String("p")}).ok());
  }
  // a: 50/50; b: 100/0 -> TV = 0.5.
  auto shifted = MeasureUtility(a, b);
  auto same = MeasureUtility(a, a);
  ASSERT_TRUE(shifted.ok());
  ASSERT_TRUE(same.ok());
  EXPECT_DOUBLE_EQ(shifted->marginals[0].total_variation, 0.5);
  EXPECT_DOUBLE_EQ(same->marginals[0].total_variation, 0.0);
}

TEST(UtilityTest, NullsExcludedAndRenormalized) {
  MicrodataTable a("a", {{"X", "", AttributeCategory::kQuasiIdentifier}});
  MicrodataTable b("b", {{"X", "", AttributeCategory::kQuasiIdentifier}});
  for (int i = 0; i < 4; ++i) {
    const char* v = i < 2 ? "p" : "q";
    ASSERT_TRUE(a.AddRow({Value::String(v)}).ok());
    ASSERT_TRUE(b.AddRow({Value::String(v)}).ok());
  }
  // Suppress one p and one q: remaining marginal is still 50/50.
  b.set_cell(0, 0, Value::Null(1));
  b.set_cell(2, 0, Value::Null(2));
  auto report = MeasureUtility(a, b);
  ASSERT_TRUE(report.ok());
  EXPECT_DOUBLE_EQ(report->marginals[0].total_variation, 0.0);
}

TEST(UtilityTest, CellsCompareBySpellingNotByValue) {
  // Int 1234567 and Double 1234567.0 are equal values spelled apart
  // ("1234567", "1.23457e+06"); Double 1234567.0 and 1234568.0 are unequal
  // values with one spelling. Each marginal counts spellings.
  MicrodataTable a("a", {{"X", "", AttributeCategory::kQuasiIdentifier}});
  MicrodataTable b("b", {{"X", "", AttributeCategory::kQuasiIdentifier}});
  ASSERT_TRUE(a.AddRow({Value::Int(1234567)}).ok());
  ASSERT_TRUE(a.AddRow({Value::Double(1234567.0)}).ok());
  ASSERT_TRUE(b.AddRow({Value::Double(1234567.0)}).ok());
  ASSERT_TRUE(b.AddRow({Value::Double(1234568.0)}).ok());
  auto report = MeasureUtility(a, b);
  ASSERT_TRUE(report.ok());
  // a: 1234567 50%, 1.23457e+06 50%; b: 1.23457e+06 100% -> TV = 0.5.
  EXPECT_DOUBLE_EQ(report->marginals[0].total_variation, 0.5);
  EXPECT_DOUBLE_EQ(report->disturbed_pairs_fraction, 0.0);
}

TEST(UtilityTest, PairsAreKeyedByBothSpellings) {
  // ("a\x1f", "b") and ("a", "\x1f" "b") are two cells of the pair table,
  // though joining each pair's spellings with 0x1F would spell both
  // "a\x1f\x1fb" and merge them into one undisturbed cell.
  MicrodataTable original("o", {{"X", "", AttributeCategory::kQuasiIdentifier},
                                {"Y", "", AttributeCategory::kQuasiIdentifier}});
  ASSERT_TRUE(original.AddRow({Value::String("a\x1f"), Value::String("b")}).ok());
  ASSERT_TRUE(original.AddRow({Value::String("a"), Value::String("\x1f" "b")}).ok());
  MicrodataTable released = original;
  released.set_cell(1, 0, Value::Null(1));
  auto report = MeasureUtility(original, released);
  ASSERT_TRUE(report.ok());
  // Cell 1 moves from 1/2 to 1/1, cell 2 from 1/2 to 0: both disturbed.
  EXPECT_DOUBLE_EQ(report->disturbed_pairs_fraction, 1.0);
}

TEST(UtilityTest, CycleOnRealisticDataPreservesStatistics) {
  // The paper's statistics-preservation claim, measured: after anonymizing
  // R25A4U-like data at k=2, QI marginals barely move and the weighted mean
  // of the non-identifying attribute is untouched.
  const MicrodataTable original =
      GenerateInflationGrowth("util", 5000, 4, DistributionKind::kUnbalanced, 23);
  MicrodataTable anonymized = original;
  KAnonymityRisk risk;
  LocalSuppression anon;
  CycleOptions options;
  options.risk.k = 2;
  AnonymizationCycle cycle(&risk, &anon, options);
  ASSERT_TRUE(cycle.Run(&anonymized).ok());
  auto report = MeasureUtility(original, anonymized);
  ASSERT_TRUE(report.ok());
  EXPECT_LT(report->max_total_variation, 0.05);
  EXPECT_DOUBLE_EQ(report->weighted_mean_ratio, 1.0);  // Growth never touched.
  EXPECT_LT(report->disturbed_pairs_fraction, 0.2);
}

TEST(UtilityTest, RecordSuppressionWildcardDominatesAtK2) {
  // A fully wiped record maybe-matches *everything*, so under k=2 a single
  // record suppression lifts every other risky tuple's frequency past the
  // threshold: the cycle converges after wiping exactly one row (#QI nulls).
  // An instructive degenerate case of the =⊥ semantics — and the reason the
  // paper's minimal cell-wise methods are the default, since that one row is
  // statistically destroyed while cell-wise suppression spreads tiny nicks.
  const MicrodataTable original =
      GenerateInflationGrowth("util2", 3000, 4, DistributionKind::kVeryUnbalanced, 29);
  MicrodataTable t = original;
  KAnonymityRisk risk;
  RecordSuppression rowwise;
  CycleOptions options;
  options.risk.k = 2;
  AnonymizationCycle cycle(&risk, &rowwise, options);
  auto stats = cycle.Run(&t);
  ASSERT_TRUE(stats.ok());
  EXPECT_GT(stats->initial_risky, 1u);
  EXPECT_EQ(stats->nulls_injected, 4u);  // One row, all four QIs.
  EXPECT_EQ(stats->anonymization_steps, 1u);
  // The wiped row is statistically dead: every QI marginal lost one record.
  auto report = MeasureUtility(original, t);
  ASSERT_TRUE(report.ok());
  for (const auto& m : report->marginals) {
    EXPECT_NEAR(m.suppressed_fraction, 1.0 / 3000, 1e-9);
  }
}

TEST(UtilityTest, ReportToStringMentionsAttributes) {
  const MicrodataTable t = Figure5Microdata();
  auto report = MeasureUtility(t, t);
  ASSERT_TRUE(report.ok());
  const std::string text = report->ToString();
  EXPECT_NE(text.find("Area"), std::string::npos);
  EXPECT_NE(text.find("utility"), std::string::npos);
}

}  // namespace
}  // namespace vadasa::core
