#include "core/report.h"

#include <gtest/gtest.h>

#include "core/datagen.h"
#include "obs/metrics.h"
#include "obs/prometheus.h"

namespace vadasa::core {
namespace {

TEST(ReportTest, AuditedReleaseEndToEnd) {
  MicrodataTable t = Figure5Microdata();
  KAnonymityRisk measure;
  LocalSuppression anon;
  CycleOptions options;
  options.risk.k = 2;
  auto audit = RunAuditedRelease(&t, measure, &anon, options);
  ASSERT_TRUE(audit.ok()) << audit.status().ToString();
  EXPECT_EQ(audit->microdb, "Fig5");
  EXPECT_EQ(audit->tuples, 7u);
  EXPECT_EQ(audit->quasi_identifiers, 4u);
  EXPECT_EQ(audit->risk_measure, "k-anonymity");
  EXPECT_EQ(audit->risk_before.tuples_over_threshold, 3u);
  EXPECT_EQ(audit->risk_after.tuples_over_threshold, 0u);
  EXPECT_GT(audit->cycle.nulls_injected, 0u);
  EXPECT_FALSE(audit->cycle.log.empty());  // log_steps forced on.
}

TEST(ReportTest, TextRenderingIsComplete) {
  MicrodataTable t = Figure5Microdata();
  KAnonymityRisk measure;
  LocalSuppression anon;
  CycleOptions options;
  options.risk.k = 2;
  auto audit = RunAuditedRelease(&t, measure, &anon, options);
  ASSERT_TRUE(audit.ok());
  const std::string text = audit->ToText();
  EXPECT_NE(text.find("Release audit: Fig5"), std::string::npos);
  EXPECT_NE(text.find("disclosure risk before"), std::string::npos);
  EXPECT_NE(text.find("disclosure risk after"), std::string::npos);
  EXPECT_NE(text.find("nulls injected"), std::string::npos);
  EXPECT_NE(text.find("decisions:"), std::string::npos);
  EXPECT_NE(text.find("local-suppression"), std::string::npos);
  EXPECT_NE(text.find("utility"), std::string::npos);
}

TEST(ReportTest, SafeTableAuditsWithoutSteps) {
  MicrodataTable t("safe", {{"A", "", AttributeCategory::kQuasiIdentifier}});
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(t.AddRow({Value::String("same")}).ok());
  }
  KAnonymityRisk measure;
  LocalSuppression anon;
  CycleOptions options;
  options.risk.k = 2;
  auto audit = RunAuditedRelease(&t, measure, &anon, options);
  ASSERT_TRUE(audit.ok());
  EXPECT_EQ(audit->risk_before.tuples_over_threshold, 0u);
  EXPECT_EQ(audit->cycle.nulls_injected, 0u);
  EXPECT_DOUBLE_EQ(audit->utility.max_total_variation, 0.0);
}

TEST(ReportTest, RealisticDatasetAudit) {
  MicrodataTable t =
      GenerateInflationGrowth("audit", 2000, 4, DistributionKind::kUnbalanced, 41);
  KAnonymityRisk measure;
  LocalSuppression anon;
  CycleOptions options;
  options.risk.k = 2;
  auto audit = RunAuditedRelease(&t, measure, &anon, options);
  ASSERT_TRUE(audit.ok());
  EXPECT_GT(audit->risk_before.sample_uniques, audit->risk_after.sample_uniques);
  EXPECT_LT(audit->utility.max_total_variation, 0.1);
}

TEST(ReportTest, ReleaseOutcomeIsRecordedInTheMetricsRegistry) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  const std::vector<std::string> names = {
      "release.risk_before.max_risk",        "release.risk_before.tuples_over_threshold",
      "release.risk_before.sample_uniques",  "release.risk_after.max_risk",
      "release.risk_after.tuples_over_threshold", "release.risk_after.sample_uniques",
      "release.unresolved",                  "release.information_loss",
      "release.utility.max_total_variation", "release.utility.disturbed_pairs_fraction"};
  for (const std::string& name : names) registry.histogram(name)->Reset();

  MicrodataTable t = Figure5Microdata();
  KAnonymityRisk measure;
  LocalSuppression anon;
  CycleOptions options;
  options.risk.k = 2;
  auto audit = RunAuditedRelease(&t, measure, &anon, options);
  ASSERT_TRUE(audit.ok()) << audit.status().ToString();
  ASSERT_GT(audit->risk_before.tuples_over_threshold, 0u);

  const std::vector<double> want = {
      audit->risk_before.max_risk,
      static_cast<double>(audit->risk_before.tuples_over_threshold),
      static_cast<double>(audit->risk_before.sample_uniques),
      audit->risk_after.max_risk,
      static_cast<double>(audit->risk_after.tuples_over_threshold),
      static_cast<double>(audit->risk_after.sample_uniques),
      static_cast<double>(audit->cycle.unresolved),
      audit->cycle.information_loss,
      audit->utility.max_total_variation,
      audit->utility.disturbed_pairs_fraction};
  const std::string prometheus = obs::ToPrometheusText(registry);
  for (size_t i = 0; i < names.size(); ++i) {
    const obs::Histogram* histogram = registry.histogram(names[i]);
    EXPECT_EQ(histogram->count(), 1u) << names[i];
    EXPECT_EQ(histogram->samples(), std::vector<double>{want[i]}) << names[i];
    const std::string family = obs::PrometheusMetricName(names[i]);
    EXPECT_NE(prometheus.find("# TYPE " + family + " summary\n"), std::string::npos)
        << family;
    EXPECT_NE(prometheus.find(family + "_count 1\n"), std::string::npos) << family;
  }
  EXPECT_EQ(obs::PrometheusMetricName("release.risk_after.max_risk"),
            "vadasa_release_risk_after_max_risk");
  EXPECT_EQ(obs::PrometheusMetricName("release.utility.disturbed_pairs_fraction"),
            "vadasa_release_utility_disturbed_pairs_fraction");

  // A release that fails records nothing.
  MicrodataTable no_qis("none", {{"A", "", AttributeCategory::kNonIdentifying}});
  ASSERT_TRUE(no_qis.AddRow({Value::Int(1)}).ok());
  EXPECT_FALSE(RunAuditedRelease(&no_qis, measure, &anon, options).ok());
  for (const std::string& name : names) {
    EXPECT_EQ(registry.histogram(name)->count(), 1u) << name;
  }
}

}  // namespace
}  // namespace vadasa::core
