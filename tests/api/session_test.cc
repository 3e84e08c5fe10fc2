#include "api/vadasa.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/csv.h"
#include "core/cycle.h"
#include "core/datagen.h"
#include "core/report.h"
#include "obs/metrics.h"
#include "serve/result_cache.h"

namespace vadasa::api {
namespace {

using core::Figure5Microdata;
using core::GroupStats;
using core::MicrodataTable;

TEST(SessionOptionsTest, ValidationCatchesBadPolicies) {
  {
    SessionOptions options;
    options.risk_measure = "nonsense";
    EXPECT_FALSE(ValidateSessionOptions(options).ok());
  }
  {
    SessionOptions options;
    options.k = 0;
    EXPECT_FALSE(ValidateSessionOptions(options).ok());
  }
  {
    SessionOptions options;
    options.threshold = 1.5;
    EXPECT_FALSE(ValidateSessionOptions(options).ok());
  }
  {
    SessionOptions options;
    options.posterior_draws = -1;
    EXPECT_FALSE(ValidateSessionOptions(options).ok());
  }
  EXPECT_TRUE(ValidateSessionOptions(SessionOptions{}).ok());
}

/// The declarative cycle plugs only k-anonymity and re-identification into
/// #risk; other measures are refused up front, naming the measure.
TEST(SessionOptionsTest, DeclarativeAcceptsOnlyBridgeMeasures) {
  for (const char* refused : {"suda", "individual"}) {
    SessionOptions options;
    options.declarative = true;
    options.risk_measure = refused;
    const Status status = ValidateSessionOptions(options).status();
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << refused;
    EXPECT_NE(status.message().find(refused), std::string::npos) << status.ToString();
    EXPECT_FALSE(Session::FromTable(Figure5Microdata(), options).ok()) << refused;
  }
  for (const char* accepted : {"k-anonymity", "reidentification"}) {
    SessionOptions options;
    options.declarative = true;
    options.risk_measure = accepted;
    auto session = Session::FromTable(Figure5Microdata(), options);
    ASSERT_TRUE(session.ok()) << accepted << ": " << session.status().ToString();
    auto response = session->Anonymize();
    ASSERT_TRUE(response.ok()) << accepted << ": " << response.status().ToString();
    EXPECT_TRUE(response->declarative);
    EXPECT_GT(response->declarative_stats.rounds, 0u) << accepted;
  }
}

TEST(SessionTest, EmptySessionFailsGracefully) {
  Session session;
  EXPECT_EQ(session.Risk().status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(session.Anonymize().status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(session.Warm().code(), StatusCode::kFailedPrecondition);
}

TEST(SessionTest, FromTableRejectsInvalidOptions) {
  SessionOptions options;
  options.risk_measure = "nonsense";
  EXPECT_FALSE(Session::FromTable(Figure5Microdata(), options).ok());
}

TEST(SessionTest, RiskMatchesDirectCorePath) {
  SessionOptions options;
  options.k = 2;
  auto session = Session::FromTable(Figure5Microdata(), options);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  auto report = session->Risk();
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  const MicrodataTable table = Figure5Microdata();
  auto measure = core::MakeRiskMeasure("k-anonymity");
  ASSERT_TRUE(measure.ok());
  core::RiskContext ctx;
  ctx.k = 2;
  auto direct = (*measure)->ComputeRisks(table, ctx);
  ASSERT_TRUE(direct.ok());
  ASSERT_EQ(report->tuple_risks.size(), direct->size());
  for (size_t r = 0; r < direct->size(); ++r) {
    EXPECT_EQ(report->tuple_risks[r], (*direct)[r]) << "row " << r;
  }
  // Risky rows are exactly the over-threshold ones, with explanations.
  for (const RiskyTuple& risky : report->risky) {
    EXPECT_GT(risky.risk, options.threshold);
    EXPECT_FALSE(risky.explanation.empty());
  }
}

TEST(SessionTest, AnonymizeMatchesDirectCorePath) {
  SessionOptions options;
  options.k = 2;
  auto session = Session::FromTable(Figure5Microdata(), options);
  ASSERT_TRUE(session.ok());
  auto response = session->Anonymize();
  ASSERT_TRUE(response.ok()) << response.status().ToString();

  MicrodataTable direct = Figure5Microdata();
  auto measure = core::MakeRiskMeasure("k-anonymity");
  ASSERT_TRUE(measure.ok());
  core::LocalSuppression anonymizer;
  core::CycleOptions cycle_options;
  cycle_options.threshold = 0.5;
  cycle_options.risk.k = 2;
  auto audit =
      core::RunAuditedRelease(&direct, **measure, &anonymizer, cycle_options);
  ASSERT_TRUE(audit.ok());

  EXPECT_EQ(WriteCsv(response->table.ToCsv()), WriteCsv(direct.ToCsv()));
  EXPECT_FALSE(response->ToText().empty());
}

/// A release carries the sampling weights it was given: the cycle never
/// suppresses a weight, and the released CSV spells each double with the
/// digits that read it back exactly.
TEST(SessionTest, ReleaseKeepsEveryDigitOfTheWeights) {
  const std::string path = ::testing::TempDir() + "vadasa_session_weights.csv";
  {
    std::ofstream out(path, std::ios::binary);
    out << "area,sector,weight\n"
           "North,Bank,26284.5678\n"
           "North,Bank,1234567.1\n"
           "South,Retail,3\n"
           "South,Retail,12.25\n";
  }
  auto session = Session::Open(path, SessionOptions{});
  std::remove(path.c_str());
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  ASSERT_EQ(session->table().WeightColumn(), 2);
  auto response = session->Anonymize();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  const std::string released = response->table.CsvText();
  EXPECT_NE(released.find(",26284.5678\n"), std::string::npos) << released;
  EXPECT_NE(released.find(",1234567.1\n"), std::string::npos) << released;
  EXPECT_NE(released.find(",12.25\n"), std::string::npos) << released;
  EXPECT_EQ(released.find("26284.6"), std::string::npos) << released;
  EXPECT_EQ(released.find("e+06"), std::string::npos) << released;
  EXPECT_EQ(WriteCsv(response->table.ToCsv()), released);
  EXPECT_EQ(response->table.cell(0, 2).as_double(), 26284.5678);
}

TEST(SessionTest, AnonymizeDoesNotMutateTheSession) {
  auto session = Session::FromTable(Figure5Microdata(), {});
  ASSERT_TRUE(session.ok());
  const std::string before = WriteCsv(session->table().ToCsv());
  ASSERT_TRUE(session->Anonymize().ok());
  EXPECT_EQ(WriteCsv(session->table().ToCsv()), before);
}

TEST(SessionTest, WarmDoesNotChangeRiskResults) {
  auto cold = Session::FromTable(Figure5Microdata(), {});
  ASSERT_TRUE(cold.ok());
  auto warm = Session::FromTable(Figure5Microdata(), {});
  ASSERT_TRUE(warm.ok());
  ASSERT_TRUE(warm->Warm().ok());
  ASSERT_NE(warm->warm_state()->Find(core::NullSemantics::kMaybeMatch), nullptr);

  auto cold_report = cold->Risk(/*quantile=*/0.9);
  auto warm_report = warm->Risk(/*quantile=*/0.9);
  ASSERT_TRUE(cold_report.ok());
  ASSERT_TRUE(warm_report.ok());
  ASSERT_EQ(cold_report->tuple_risks.size(), warm_report->tuple_risks.size());
  for (size_t r = 0; r < cold_report->tuple_risks.size(); ++r) {
    EXPECT_EQ(cold_report->tuple_risks[r], warm_report->tuple_risks[r]);
  }
  EXPECT_EQ(cold_report->inferred_threshold, warm_report->inferred_threshold);
  EXPECT_EQ(cold_report->global.expected_reidentifications,
            warm_report->global.expected_reidentifications);
}

TEST(SessionTest, WarmDoesNotChangeAnonymizeResults) {
  auto cold = Session::FromTable(Figure5Microdata(), {});
  ASSERT_TRUE(cold.ok());
  auto warm = Session::FromTable(Figure5Microdata(), {});
  ASSERT_TRUE(warm.ok());
  ASSERT_TRUE(warm->Warm().ok());
  auto cold_response = cold->Anonymize();
  auto warm_response = warm->Anonymize();
  ASSERT_TRUE(cold_response.ok());
  ASSERT_TRUE(warm_response.ok());
  EXPECT_EQ(WriteCsv(warm_response->table.ToCsv()),
            WriteCsv(cold_response->table.ToCsv()));
  EXPECT_EQ(warm_response->ToText(), cold_response->ToText());
}

TEST(SessionTest, PreCancelledTokenShortCircuitsAnonymize) {
  auto session = Session::FromTable(Figure5Microdata(), {});
  ASSERT_TRUE(session.ok());
  CancelToken token;
  token.Cancel();
  AnonymizeRequest request;
  request.cancel = &token;
  EXPECT_EQ(session->Anonymize(request).status().code(),
            StatusCode::kCancelled);
}

TEST(SessionTest, ExpiredDeadlineShortCircuitsAnonymize) {
  auto session = Session::FromTable(Figure5Microdata(), {});
  ASSERT_TRUE(session.ok());
  CancelToken token;
  token.SetDeadline(std::chrono::steady_clock::now() -
                    std::chrono::milliseconds(1));
  AnonymizeRequest request;
  request.cancel = &token;
  EXPECT_EQ(session->Anonymize(request).status().code(),
            StatusCode::kDeadlineExceeded);
}

core::DeltaBatch Fig5Delta(const MicrodataTable& t) {
  core::DeltaBatchBuilder builder(t.num_columns());
  const std::span<const Value> row1 = t.row(1);
  std::vector<Value> updated(row1.begin(), row1.end());
  updated[2] = Value::Null(77);
  builder.Update(1, std::move(updated));
  builder.Delete(4);
  const std::span<const Value> row0 = t.row(0);
  builder.Append(std::vector<Value>(row0.begin(), row0.end()));
  auto batch = builder.Build();
  EXPECT_TRUE(batch.ok()) << batch.status().ToString();
  return *batch;
}

TEST(SessionTest, ApplyReturnsImmutableSibling) {
  auto parent = Session::FromTable(Figure5Microdata(), {});
  ASSERT_TRUE(parent.ok());
  const std::string before = WriteCsv(parent->table().ToCsv());
  auto child = parent->Apply(Fig5Delta(parent->table()));
  ASSERT_TRUE(child.ok()) << child.status().ToString();
  EXPECT_EQ(WriteCsv(parent->table().ToCsv()), before)
      << "Apply never mutates its session";
  EXPECT_EQ(child->table().num_rows(), parent->table().num_rows());
  EXPECT_TRUE(child->table().cell(1, 2).is_null());
  EXPECT_EQ(child->options().k, parent->options().k);
  EXPECT_EQ(child->options().risk_measure, parent->options().risk_measure);
}

TEST(SessionTest, ApplyRejectsBadBatchesWithoutSideEffects) {
  auto session = Session::FromTable(Figure5Microdata(), {});
  ASSERT_TRUE(session.ok());
  core::DeltaBatchBuilder builder(session->table().num_columns());
  builder.Delete(10'000);
  auto batch = builder.Build();
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(session->Apply(*batch).status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Session().Apply(*batch).status().code(),
            StatusCode::kFailedPrecondition);
}

/// The maybe-match index of a session's warm state; null when not built.
std::shared_ptr<const core::GroupIndex> MaybeIndex(const Session& session) {
  return session.warm_state()->Find(core::NullSemantics::kMaybeMatch);
}

TEST(SessionTest, WarmApplyMatchesColdSessionBitIdentically) {
  auto parent = Session::FromTable(Figure5Microdata(), {});
  ASSERT_TRUE(parent.ok());
  ASSERT_TRUE(parent->Warm().ok());
  ASSERT_NE(MaybeIndex(*parent), nullptr);

  auto child = parent->Apply(Fig5Delta(parent->table()));
  ASSERT_TRUE(child.ok());
  ASSERT_NE(MaybeIndex(*child), nullptr) << "warm parents hand down warm children";
  EXPECT_NE(child->warm_state(), parent->warm_state());

  // Cold reference: a fresh warmed session over the post-delta table.
  auto cold = Session::FromTable(child->table(), {});
  ASSERT_TRUE(cold.ok());
  ASSERT_TRUE(cold->Warm().ok());
  EXPECT_EQ(MaybeIndex(*child)->Stats().frequency, MaybeIndex(*cold)->Stats().frequency);
  EXPECT_EQ(MaybeIndex(*child)->Stats().weight_sum,
            MaybeIndex(*cold)->Stats().weight_sum);

  auto child_risk = child->Risk();
  auto cold_risk = cold->Risk();
  ASSERT_TRUE(child_risk.ok());
  ASSERT_TRUE(cold_risk.ok());
  EXPECT_EQ(child_risk->tuple_risks, cold_risk->tuple_risks);

  auto child_released = child->Anonymize();
  auto cold_released = cold->Anonymize();
  ASSERT_TRUE(child_released.ok());
  ASSERT_TRUE(cold_released.ok());
  EXPECT_EQ(WriteCsv(child_released->table.ToCsv()),
            WriteCsv(cold_released->table.ToCsv()));
}

TEST(SessionTest, ParentKeepsServingPreDeltaResultsAfterApply) {
  auto parent = Session::FromTable(Figure5Microdata(), {});
  ASSERT_TRUE(parent.ok());
  ASSERT_TRUE(parent->Warm().ok());
  auto before = parent->Risk();
  ASSERT_TRUE(before.ok());
  const GroupStats stats_before = MaybeIndex(*parent)->Stats();

  auto child = parent->Apply(Fig5Delta(parent->table()));
  ASSERT_TRUE(child.ok());

  // The in-flight view of the parent is untouched, bit for bit.
  EXPECT_EQ(MaybeIndex(*parent)->Stats().frequency, stats_before.frequency);
  EXPECT_EQ(MaybeIndex(*parent)->Stats().weight_sum, stats_before.weight_sum);
  auto after = parent->Risk();
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->tuple_risks, before->tuple_risks);
  auto reference = Session::FromTable(Figure5Microdata(), {});
  ASSERT_TRUE(reference.ok());
  auto fresh = reference->Risk();
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(after->tuple_risks, fresh->tuple_risks);
}

TEST(SessionTest, FromSharedSessionsAfterParentApplyStayIndependent) {
  auto table = std::make_shared<const MicrodataTable>(Figure5Microdata());
  auto parent = Session::FromShared(table, nullptr, {});
  ASSERT_TRUE(parent.ok());

  // A sibling opened on the same version shares its warm state (the
  // registry path), so warming either warms both.
  SessionOptions strict;
  strict.k = 3;
  auto sibling = Session::FromShared(table, nullptr, strict, parent->warm_state());
  ASSERT_TRUE(sibling.ok());
  ASSERT_TRUE(sibling->Warm().ok());
  ASSERT_NE(MaybeIndex(*parent), nullptr);
  EXPECT_EQ(MaybeIndex(*parent), MaybeIndex(*sibling));
  EXPECT_FALSE(Session::FromShared(std::make_shared<const MicrodataTable>(*table),
                                   nullptr, {}, parent->warm_state())
                   .ok())
      << "a warm state belongs to exactly one table";

  auto sibling_before = sibling->Risk();
  ASSERT_TRUE(sibling_before.ok());
  auto child = parent->Apply(Fig5Delta(parent->table()));
  ASSERT_TRUE(child.ok());

  // The sibling still serves pre-delta results bit-identically...
  auto sibling_risk = sibling->Risk();
  ASSERT_TRUE(sibling_risk.ok());
  EXPECT_EQ(sibling_risk->tuple_risks, sibling_before->tuple_risks);
  auto cold_sibling = Session::FromTable(Figure5Microdata(), strict);
  ASSERT_TRUE(cold_sibling.ok());
  auto cold_sibling_risk = cold_sibling->Risk();
  ASSERT_TRUE(cold_sibling_risk.ok());
  EXPECT_EQ(sibling_risk->tuple_risks, cold_sibling_risk->tuple_risks);

  // ...and its own Apply yields an independent version whose risks equal a
  // cold build of the same post-delta table.
  auto sibling_child = sibling->Apply(Fig5Delta(sibling->table()));
  ASSERT_TRUE(sibling_child.ok());
  EXPECT_NE(sibling_child->warm_state(), child->warm_state());
  auto cold_child = Session::FromTable(sibling_child->table(), strict);
  ASSERT_TRUE(cold_child.ok());
  auto warm_risk = sibling_child->Risk();
  auto cold_risk = cold_child->Risk();
  ASSERT_TRUE(warm_risk.ok());
  ASSERT_TRUE(cold_risk.ok());
  EXPECT_EQ(warm_risk->tuple_risks, cold_risk->tuple_risks)
      << "cold and incremental children agree bit for bit";
}

TEST(SessionTest, WarmStateKeepsOneIndexPerNullSemantics) {
  auto maybe = Session::FromTable(Figure5Microdata(), {});
  ASSERT_TRUE(maybe.ok());
  SessionOptions standard_options;
  standard_options.standard_nulls = true;
  auto standard = Session::FromShared(maybe->shared_table(), nullptr,
                                      standard_options, maybe->warm_state());
  ASSERT_TRUE(standard.ok());

  bool built = false;
  ASSERT_TRUE(maybe->Warm(&built).ok());
  EXPECT_TRUE(built);
  ASSERT_TRUE(maybe->Warm(&built).ok());
  EXPECT_FALSE(built) << "an index is built at most once";
  EXPECT_EQ(maybe->warm_state()->Find(core::NullSemantics::kStandard), nullptr);
  ASSERT_TRUE(standard->Warm(&built).ok());
  EXPECT_TRUE(built) << "the other semantics gets its own index";
  EXPECT_NE(maybe->warm_state()->Find(core::NullSemantics::kStandard),
            maybe->warm_state()->Find(core::NullSemantics::kMaybeMatch));

  auto cold_standard = Session::FromTable(Figure5Microdata(), standard_options);
  ASSERT_TRUE(cold_standard.ok());
  auto warm_risk = standard->Risk();
  auto cold_risk = cold_standard->Risk();
  ASSERT_TRUE(warm_risk.ok());
  ASSERT_TRUE(cold_risk.ok());
  EXPECT_EQ(warm_risk->tuple_risks, cold_risk->tuple_risks);
}

/// A risk report as bytes: hex floats, so equal bytes mean equal doubles.
std::string ReportBytes(const RiskReport& report) {
  std::ostringstream os;
  os << std::hexfloat;
  for (const double r : report.tuple_risks) os << r << ",";
  os << "|" << report.global.expected_reidentifications << ","
     << report.global.global_risk_rate << "," << report.global.tuples_over_threshold
     << "," << report.global.max_risk << "," << report.global.sample_uniques << "|";
  for (const RiskyTuple& risky : report.risky) {
    os << risky.row << ":" << risky.risk << ":" << risky.explanation << "\n";
  }
  return os.str();
}

TEST(SessionTest, ExplainedRiskGroupsTheTableOnce) {
  obs::Counter* partitions =
      obs::MetricsRegistry::Global().counter("group_index.partitions_built");
  SessionOptions options;
  options.k = 3;
  auto session = Session::FromTable(Figure5Microdata(), options);
  ASSERT_TRUE(session.ok());

  // The report as a cache-less caller assembles it: ComputeRisks, then
  // ComputeGlobalRisk, then one Explain per risky row.
  auto measure = core::MakeRiskMeasure(options.risk_measure);
  ASSERT_TRUE(measure.ok());
  core::RiskContext ctx;
  ctx.k = options.k;
  RiskReport expected;
  expected.threshold = options.threshold;
  auto risks = (*measure)->ComputeRisks(session->table(), ctx);
  ASSERT_TRUE(risks.ok());
  expected.tuple_risks = *risks;
  auto global = core::ComputeGlobalRisk(session->table(), **measure, ctx,
                                        options.threshold);
  ASSERT_TRUE(global.ok());
  expected.global = *global;
  for (size_t r = 0; r < expected.tuple_risks.size(); ++r) {
    if (expected.tuple_risks[r] > options.threshold) {
      expected.risky.push_back(
          {r, expected.tuple_risks[r],
           (*measure)->Explain(session->table(), ctx, r, expected.tuple_risks[r])});
    }
  }
  ASSERT_GE(expected.risky.size(), 2u);

  uint64_t before = partitions->value();
  auto cold = session->Risk(-1.0, /*explain=*/true);
  ASSERT_TRUE(cold.ok());
  EXPECT_EQ(partitions->value() - before, 1u) << "a cold report groups once";
  EXPECT_EQ(ReportBytes(*cold), ReportBytes(expected));

  ASSERT_TRUE(session->Warm().ok());
  before = partitions->value();
  auto warm = session->Risk(-1.0, /*explain=*/true);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(partitions->value(), before) << "a warmed report never groups";
  EXPECT_EQ(ReportBytes(*warm), ReportBytes(expected));
}

Result<Session> SudaSession() {
  SessionOptions options;
  options.risk_measure = "suda";
  options.k = 3;
  return Session::FromTable(
      core::GenerateInflationGrowth("suda", 600, 4, core::DistributionKind::kUnbalanced, 3),
      options);
}

TEST(SessionTest, ColdSudaRiskInternsEachQiColumnOnce) {
  obs::Counter* materialized =
      obs::MetricsRegistry::Global().counter("columnar.columns_materialized");
  auto session = SudaSession();
  ASSERT_TRUE(session.ok());
  const size_t qis = session->table().QuasiIdentifierColumns().size();
  ASSERT_GT(qis, 0u);
  const uint64_t before = materialized->value();
  auto report = session->Risk(-1.0, /*explain=*/true);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(materialized->value() - before, qis)
      << "SUDA projects from the index's view instead of interning its own";
}

TEST(SessionTest, WarmedSudaRiskNeitherGroupsNorCopies) {
  obs::Counter* partitions =
      obs::MetricsRegistry::Global().counter("group_index.partitions_built");
  obs::Counter* copies = obs::MetricsRegistry::Global().counter("risk_cache.warm_copies");
  auto session = SudaSession();
  ASSERT_TRUE(session.ok());
  auto cold = session->Risk(-1.0, /*explain=*/true);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  ASSERT_TRUE(session->Warm().ok());
  const uint64_t partitions_before = partitions->value();
  const uint64_t copies_before = copies->value();
  auto warm = session->Risk(-1.0, /*explain=*/true);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_EQ(partitions->value(), partitions_before) << "a warmed SUDA report never groups";
  EXPECT_EQ(copies->value(), copies_before) << "nor copies the warm index";
  EXPECT_EQ(ReportBytes(*warm), ReportBytes(*cold));
}

TEST(SessionTest, SharedTableServesManySessions) {
  auto table = std::make_shared<const MicrodataTable>(Figure5Microdata());
  SessionOptions strict;
  strict.k = 3;
  auto a = Session::FromShared(table, nullptr, {});
  auto b = Session::FromShared(table, nullptr, strict);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->shared_table().get(), b->shared_table().get());
  auto risks_a = a->Risk();
  auto risks_b = b->Risk();
  ASSERT_TRUE(risks_a.ok());
  ASSERT_TRUE(risks_b.ok());
  // Different k policies over the same shared snapshot stay independent.
  EXPECT_GE(risks_b->risky.size(), risks_a->risky.size());
}

TEST(SessionTest, WarmedReleaseCopiesTheWarmIndexInsteadOfGrouping) {
  obs::Counter* partitions =
      obs::MetricsRegistry::Global().counter("group_index.partitions_built");
  const MicrodataTable table = core::GenerateInflationGrowth(
      "warm", 1500, 4, core::DistributionKind::kUnbalanced, 11);
  for (const auto& [measure, k] : {std::pair<const char*, int>{"k-anonymity", 2},
                                   std::pair<const char*, int>{"suda", 3}}) {
    SessionOptions options;
    options.risk_measure = measure;
    options.k = k;
    auto cold = Session::FromTable(table, options);
    auto warm = Session::FromTable(table, options);
    ASSERT_TRUE(cold.ok());
    ASSERT_TRUE(warm.ok());

    uint64_t before = partitions->value();
    auto cold_release = cold->Anonymize();
    ASSERT_TRUE(cold_release.ok()) << cold_release.status().ToString();
    EXPECT_EQ(partitions->value() - before, 1u) << measure << ": a cold release groups once";
    EXPECT_EQ(cold_release->audit.cycle.group_rebuilds, 1u) << measure;
    ASSERT_GT(cold_release->audit.cycle.initial_risky, 0u) << measure;

    ASSERT_TRUE(warm->Warm().ok());
    before = partitions->value();
    auto warm_release = warm->Anonymize();
    ASSERT_TRUE(warm_release.ok()) << warm_release.status().ToString();
    EXPECT_EQ(partitions->value(), before) << measure << ": a warmed release never groups";
    EXPECT_EQ(warm_release->audit.cycle.group_rebuilds, 0u) << measure;
    EXPECT_EQ(serve::EncodeResult(*warm_release), serve::EncodeResult(*cold_release))
        << measure;
  }
}

}  // namespace
}  // namespace vadasa::api
