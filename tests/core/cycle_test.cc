#include "core/cycle.h"

#include <gtest/gtest.h>

#include "core/datagen.h"
#include "core/infoloss.h"

namespace vadasa::core {
namespace {

CycleOptions KAnonOptions(int k) {
  CycleOptions options;
  options.threshold = 0.5;
  options.risk.k = k;
  return options;
}

TEST(CycleTest, Figure5ConvergesWithFewNulls) {
  MicrodataTable t = Figure5Microdata();
  KAnonymityRisk risk;
  LocalSuppression anon;
  AnonymizationCycle cycle(&risk, &anon, KAnonOptions(2));
  auto stats = cycle.Run(&t);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->initial_risky, 3u);  // Rows 0, 5, 6.
  EXPECT_EQ(stats->unresolved, 0u);
  EXPECT_GT(stats->nulls_injected, 0u);
  EXPECT_LE(stats->nulls_injected, 3u);
  // Post-condition: nobody is risky anymore.
  RiskContext ctx;
  ctx.k = 2;
  auto final_risks = risk.ComputeRisks(t, ctx);
  ASSERT_TRUE(final_risks.ok());
  for (const double r : *final_risks) EXPECT_LE(r, 0.5);
}

TEST(CycleTest, AlreadySafeTableUntouched) {
  MicrodataTable t("safe", {{"A", "", AttributeCategory::kQuasiIdentifier}});
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(t.AddRow({Value::String("same")}).ok());
  }
  KAnonymityRisk risk;
  LocalSuppression anon;
  AnonymizationCycle cycle(&risk, &anon, KAnonOptions(2));
  auto stats = cycle.Run(&t);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->initial_risky, 0u);
  EXPECT_EQ(stats->nulls_injected, 0u);
  EXPECT_EQ(stats->iterations, 1u);
  EXPECT_DOUBLE_EQ(stats->information_loss, 0.0);
}

TEST(CycleTest, SingleStepModeMatchesBatchedOutcome) {
  // Both modes must end below-threshold; the batched mode exists purely for
  // speed and may differ in exact null counts only by ties.
  for (const bool single_step : {false, true}) {
    MicrodataTable t = Figure5Microdata();
    KAnonymityRisk risk;
    LocalSuppression anon;
    CycleOptions options = KAnonOptions(2);
    options.single_step = single_step;
    AnonymizationCycle cycle(&risk, &anon, options);
    auto stats = cycle.Run(&t);
    ASSERT_TRUE(stats.ok());
    RiskContext ctx;
    ctx.k = 2;
    auto final_risks = risk.ComputeRisks(t, ctx);
    ASSERT_TRUE(final_risks.ok());
    for (const double r : *final_risks) EXPECT_LE(r, 0.5);
  }
}

TEST(CycleTest, StandardSemanticsLeavesUnresolvedTuples) {
  // Under the Skolem null semantics suppression never helps: the cycle must
  // wipe every QI of the risky tuples and give up (Fig. 7c's pathology).
  MicrodataTable t = Figure5Microdata();
  KAnonymityRisk risk;
  LocalSuppression anon;
  CycleOptions options = KAnonOptions(2);
  options.risk.semantics = NullSemantics::kStandard;
  AnonymizationCycle cycle(&risk, &anon, options);
  auto stats = cycle.Run(&t);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->unresolved, 3u);
  // 3 risky tuples × 4 QIs all suppressed.
  EXPECT_EQ(stats->nulls_injected, 12u);
}

TEST(CycleTest, LogStepsExplainsDecisions) {
  MicrodataTable t = Figure5Microdata();
  KAnonymityRisk risk;
  LocalSuppression anon;
  CycleOptions options = KAnonOptions(2);
  options.log_steps = true;
  AnonymizationCycle cycle(&risk, &anon, options);
  auto stats = cycle.Run(&t);
  ASSERT_TRUE(stats.ok());
  ASSERT_FALSE(stats->log.empty());
  EXPECT_NE(stats->log[0].find("local-suppression"), std::string::npos);
  EXPECT_NE(stats->log[0].find("occurs"), std::string::npos);
}

TEST(CycleTest, TimingSplitsRiskComponent) {
  MicrodataTable t =
      GenerateInflationGrowth("timing", 2000, 4, DistributionKind::kUnbalanced, 5);
  KAnonymityRisk risk;
  LocalSuppression anon;
  AnonymizationCycle cycle(&risk, &anon, KAnonOptions(2));
  auto stats = cycle.Run(&t);
  ASSERT_TRUE(stats.ok());
  EXPECT_GT(stats->total_seconds, 0.0);
  EXPECT_GT(stats->risk_eval_seconds, 0.0);
  EXPECT_LE(stats->risk_eval_seconds, stats->total_seconds);
  EXPECT_EQ(stats->risk_evaluations, stats->iterations);
}

TEST(CycleTest, ReidentificationRiskThreshold) {
  // With re-identification risk and T = 0.02, tuples with weight sum < 50
  // get anonymized.
  MicrodataTable t = Figure1Microdata();
  ReidentificationRisk risk;
  LocalSuppression anon;
  CycleOptions options;
  options.threshold = 0.02;
  AnonymizationCycle cycle(&risk, &anon, options);
  auto stats = cycle.Run(&t);
  ASSERT_TRUE(stats.ok());
  EXPECT_GT(stats->initial_risky, 0u);
  RiskContext ctx;
  auto final_risks = risk.ComputeRisks(t, ctx);
  ASSERT_TRUE(final_risks.ok());
  for (size_t r = 0; r < final_risks->size(); ++r) {
    EXPECT_LE((*final_risks)[r], 0.02 + 1e-12) << "row " << r;
  }
}

TEST(CycleTest, GlobalRecodingConverges) {
  MicrodataTable t = Figure5Microdata();
  Hierarchy h = Hierarchy::ItalianGeography();
  h.SetAttributeType("Area", "City");
  KAnonymityRisk risk;
  RecodeThenSuppress anon(&h);
  AnonymizationCycle cycle(&risk, &anon, KAnonOptions(2));
  auto stats = cycle.Run(&t);
  ASSERT_TRUE(stats.ok());
  RiskContext ctx;
  ctx.k = 2;
  auto final_risks = risk.ComputeRisks(t, ctx);
  for (const double r : *final_risks) EXPECT_LE(r, 0.5);
  // Milano/Torino merged by recoding, not suppression.
  EXPECT_GT(stats->cells_recoded, 0u);
}

TEST(CycleTest, NoQuasiIdentifiersFails) {
  MicrodataTable t("noqi", {{"Id", "", AttributeCategory::kIdentifier}});
  ASSERT_TRUE(t.AddRow({Value::Int(1)}).ok());
  KAnonymityRisk risk;
  LocalSuppression anon;
  AnonymizationCycle cycle(&risk, &anon, KAnonOptions(2));
  EXPECT_FALSE(cycle.Run(&t).ok());
}

TEST(CycleTest, RiskTransformHookApplies) {
  // A transform that forces every risk to 0 disables anonymization entirely.
  MicrodataTable t = Figure5Microdata();
  KAnonymityRisk risk;
  LocalSuppression anon;
  CycleOptions options = KAnonOptions(2);
  options.risk_transform = [](const MicrodataTable&, std::vector<double>* risks) {
    for (double& r : *risks) r = 0.0;
  };
  AnonymizationCycle cycle(&risk, &anon, options);
  auto stats = cycle.Run(&t);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->nulls_injected, 0u);
}

TEST(CycleTest, InformationLossUsesPaperMetric) {
  MicrodataTable t = Figure5Microdata();
  KAnonymityRisk risk;
  LocalSuppression anon;
  AnonymizationCycle cycle(&risk, &anon, KAnonOptions(2));
  auto stats = cycle.Run(&t);
  ASSERT_TRUE(stats.ok());
  EXPECT_DOUBLE_EQ(
      stats->information_loss,
      PaperInformationLoss(stats->nulls_injected, stats->initial_risky, 4));
}

TEST(CycleTest, IdempotentOnItsOwnOutput) {
  // Running the cycle on an already-anonymized release must be a no-op: the
  // fixpoint property of Algorithm 2.
  MicrodataTable t =
      GenerateInflationGrowth("idem", 1500, 4, DistributionKind::kVeryUnbalanced, 71);
  KAnonymityRisk risk;
  LocalSuppression anon;
  AnonymizationCycle first(&risk, &anon, KAnonOptions(3));
  auto stats1 = first.Run(&t);
  ASSERT_TRUE(stats1.ok());
  EXPECT_GT(stats1->nulls_injected, 0u);
  LocalSuppression anon2;
  AnonymizationCycle second(&risk, &anon2, KAnonOptions(3));
  auto stats2 = second.Run(&t);
  ASSERT_TRUE(stats2.ok());
  EXPECT_EQ(stats2->nulls_injected, 0u);
  EXPECT_EQ(stats2->initial_risky, 0u);
  EXPECT_EQ(stats2->iterations, 1u);
}

/// Tentpole: the group index is built once and then maintained incrementally
/// — a multi-iteration run must record exactly one from-scratch rebuild, with
/// every later iteration served by UpdateRows.
TEST(CycleTest, GroupIndexBuiltOnceAcrossIterations) {
  MicrodataTable t =
      GenerateInflationGrowth("incr", 1200, 4, DistributionKind::kVeryUnbalanced, 23);
  KAnonymityRisk risk;
  LocalSuppression anon;
  AnonymizationCycle cycle(&risk, &anon, KAnonOptions(3));
  auto stats = cycle.Run(&t);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  ASSERT_GT(stats->iterations, 2u) << "fixture too easy to exercise incrementality";
  EXPECT_EQ(stats->group_rebuilds, 1u);
  // One UpdateRows batch per iteration that changed anything.
  EXPECT_GE(stats->group_updates, stats->iterations - 1);
}

/// The incremental path must converge to the same anonymization as the seed's
/// rebuild-per-iteration cycle did: same null count on the Figure 5 table.
TEST(CycleTest, IncrementalIndexPreservesFigure5Outcome) {
  MicrodataTable t = Figure5Microdata();
  KAnonymityRisk risk;
  LocalSuppression anon;
  AnonymizationCycle cycle(&risk, &anon, KAnonOptions(2));
  auto stats = cycle.Run(&t);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->unresolved, 0u);
  EXPECT_LE(stats->nulls_injected, 3u);
  EXPECT_EQ(stats->group_rebuilds, 1u);
}

/// Parameterized sweep: the cycle converges under every (measure, k,
/// semantics-preserving) combination on generated data.
struct CycleSweepParam {
  const char* measure;
  int k;
  bool single_step;
};

// Without a printer gtest dumps the struct's raw bytes (the `measure`
// pointer and padding), so the test names would change from run to run.
void PrintTo(const CycleSweepParam& param, std::ostream* os) {
  *os << param.measure << " k=" << param.k
      << (param.single_step ? " single-step" : " multi-step");
}

class CycleSweepTest : public ::testing::TestWithParam<CycleSweepParam> {};

TEST_P(CycleSweepTest, ConvergesBelowThreshold) {
  const CycleSweepParam param = GetParam();
  MicrodataTable t =
      GenerateInflationGrowth("sweep", 800, 4, DistributionKind::kUnbalanced, 17);
  auto measure = MakeRiskMeasure(param.measure);
  ASSERT_TRUE(measure.ok());
  LocalSuppression anon;
  CycleOptions options;
  options.threshold = 0.5;
  options.risk.k = param.k;
  options.single_step = param.single_step;
  AnonymizationCycle cycle(measure->get(), &anon, options);
  auto stats = cycle.Run(&t);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  RiskContext ctx;
  ctx.k = param.k;
  auto final_risks = (*measure)->ComputeRisks(t, ctx);
  ASSERT_TRUE(final_risks.ok());
  size_t still_risky = 0;
  for (const double r : *final_risks) still_risky += r > 0.5;
  EXPECT_EQ(still_risky, stats->unresolved);
}

INSTANTIATE_TEST_SUITE_P(
    MeasuresAndModes, CycleSweepTest,
    ::testing::Values(CycleSweepParam{"k-anonymity", 2, false},
                      CycleSweepParam{"k-anonymity", 3, false},
                      CycleSweepParam{"k-anonymity", 2, true},
                      CycleSweepParam{"individual", 2, false},
                      CycleSweepParam{"suda", 2, false}));

}  // namespace
}  // namespace vadasa::core
