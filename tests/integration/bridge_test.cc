#include "core/vadalog_bridge.h"

#include <gtest/gtest.h>

#include "core/datagen.h"
#include "core/group_index.h"
#include "core/risk.h"
#include "vadalog/parser.h"

namespace vadasa::core {
namespace {

TEST(BridgeTest, EncodeMicrodataProducesDictionaryAndTuples) {
  vadalog::Database db;
  VadalogBridge bridge;
  bridge.EncodeMicrodata(Figure5Microdata(), &db);
  EXPECT_EQ(db.Rows("microdb").size(), 1u);
  EXPECT_EQ(db.Rows("att").size(), 5u);
  EXPECT_EQ(db.Rows("cat").size(), 5u);
  EXPECT_EQ(db.Rows("tuple").size(), 7u);
  EXPECT_EQ(db.Rows("weight").size(), 7u);
  // Each tuple's VSet holds the 4 QI pairs; the Id is dropped.
  for (const auto& row : db.Rows("tuple")) {
    ASSERT_TRUE(row[2].is_set());
    EXPECT_EQ(row[2].items().size(), 4u);
  }
}

TEST(BridgeTest, DeclarativeCycleAnonymizesFigure5) {
  VadalogBridge bridge;  // k-anonymity, k=2, T=0.5, maybe-match.
  vadalog::RunStats stats;
  auto out = bridge.RunDeclarativeCycle(Figure5Microdata(), nullptr, &stats);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_GT(stats.action_invocations, 0u);
  // The released table is 2-anonymous under maybe-match.
  KAnonymityRisk risk;
  RiskContext ctx;
  ctx.k = 2;
  auto risks = risk.ComputeRisks(*out, ctx);
  ASSERT_TRUE(risks.ok());
  for (size_t r = 0; r < risks->size(); ++r) {
    EXPECT_LE((*risks)[r], 0.5) << "row " << r;
  }
  // Direct identifiers were dropped from the release.
  EXPECT_EQ(out->cell(0, 0).ToString(), "<dropped>");
  // Rows that were never risky are untouched.
  EXPECT_EQ(out->cell(1, 2).as_string(), "Commerce");
}

TEST(BridgeTest, DeclarativeAndNativeCyclesAgreeOnRiskyRows) {
  const MicrodataTable input =
      GenerateInflationGrowth("bridge", 120, 4, DistributionKind::kVeryUnbalanced, 9);
  // Which rows does the native path consider risky?
  KAnonymityRisk risk;
  RiskContext ctx;
  ctx.k = 2;
  auto native_risks = risk.ComputeRisks(input, ctx);
  ASSERT_TRUE(native_risks.ok());
  VadalogBridge bridge;
  auto out = bridge.RunDeclarativeCycle(input, nullptr, nullptr);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  // Rows the native risk calls safe are released untouched; risky rows end
  // up in a maybe-match group of size >= k (either via their own nulls or a
  // neighbour's — the decode keeps the least-suppressed passing version).
  const auto qis = out->QuasiIdentifierColumns();
  const GroupStats final_stats =
      ComputeGroupStats(*out, qis, NullSemantics::kMaybeMatch);
  for (size_t r = 0; r < input.num_rows(); ++r) {
    bool has_null = false;
    for (const size_t c : qis) has_null |= out->cell(r, c).is_null();
    if ((*native_risks)[r] > 0.5) {
      EXPECT_GE(final_stats.frequency[r], 2.0) << "risky row " << r;
    } else {
      EXPECT_FALSE(has_null) << "safe row " << r << " was touched";
    }
  }
}

/// #anonymize suppresses with nulls it allocates through the action context;
/// the run counts them, so a release with risky rows reports at least as many
/// created nulls as it carries (the input has none).
TEST(BridgeTest, DeclarativeCycleCountsTheNullsItsActionsCreate) {
  const MicrodataTable input =
      GenerateInflationGrowth("bridge", 120, 4, DistributionKind::kVeryUnbalanced, 9);
  ASSERT_EQ(input.CountNullCells(), 0u);
  vadalog::RunStats stats;
  auto out = VadalogBridge().RunDeclarativeCycle(input, nullptr, &stats);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_GT(out->CountNullCells(), 0u) << "no risky rows to suppress";
  EXPECT_GE(stats.nulls_created, out->CountNullCells());
  EXPECT_LE(stats.nulls_created, stats.action_invocations);
}

/// The externals group through GroupIndex, so under =⊥ the declarative
/// cycle has the native cycle's quasi-identifier limit (ValidateQiWidth);
/// standard semantics has none. Unsupported measures are refused up front.
TEST(BridgeTest, DeclarativeCycleRefusesWhatItCannotGroup) {
  std::vector<Attribute> attrs;
  for (size_t c = 0; c <= kMaxMaybeMatchQis; ++c) {
    attrs.push_back({"q" + std::to_string(c), "", AttributeCategory::kQuasiIdentifier});
  }
  MicrodataTable wide("wide", attrs);
  for (int r = 0; r < 3; ++r) {
    ASSERT_TRUE(wide.AddRow(std::vector<Value>(attrs.size(), Value::Int(r))).ok());
  }
  const auto maybe = VadalogBridge().RunDeclarativeCycle(wide, nullptr, nullptr);
  EXPECT_EQ(maybe.status().code(), StatusCode::kInvalidArgument);
  BridgeOptions standard;
  standard.maybe_match = false;
  EXPECT_TRUE(VadalogBridge(standard).RunDeclarativeCycle(wide, nullptr, nullptr).ok());

  BridgeOptions suda;
  suda.risk_measure = "suda";
  const auto refused = VadalogBridge(suda).RunDeclarativeCycle(Figure5Microdata(),
                                                               nullptr, nullptr);
  EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(refused.status().message().find("suda"), std::string::npos);
}

TEST(BridgeTest, CategorizationProgramViaEngine) {
  // Algorithm 1 run declaratively: the existential category of Rule 1 is
  // unified by the EGD with the category borrowed through #similar.
  vadalog::EngineOptions engine_options;
  vadalog::Engine engine(engine_options);
  VadalogBridge bridge;
  bridge.RegisterExternals(&engine, nullptr);
  vadalog::Database db;
  db.AddFact("att", {Value::String("I&G"), Value::String("Residential Rev.")});
  db.AddFact("expbase", {Value::String("residential revenue"),
                         Value::String("Quasi-identifier")});
  auto stats =
      vadalog::RunSource(VadalogBridge::CategorizationProgram(), &db, &engine);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  ASSERT_EQ(db.Rows("cat").size(), 1u);
  EXPECT_TRUE(db.Contains("cat", {Value::String("I&G"),
                                  Value::String("Residential Rev."),
                                  Value::String("Quasi-identifier")}));
  // Rule 3 fed the decision back into the experience base.
  EXPECT_TRUE(db.Contains("expbase", {Value::String("Residential Rev."),
                                      Value::String("Quasi-identifier")}));
}

TEST(BridgeTest, CategorizationExplainsFeedbackByTheCategoryItCopies) {
  // Rule 4 merges each borrowed category with Rule 1's null, renumbering the
  // facts after it; every expbase(A, C) that Rule 3 derived must still cite
  // a cat(_, A, C).
  vadalog::Engine engine;
  VadalogBridge bridge;
  bridge.RegisterExternals(&engine, nullptr);
  vadalog::Database db;
  for (const char* name :
       {"Sector", "zorblax", "Residential Rev.", "Company Name", "Region"}) {
    db.AddFact("att", {Value::String("I&G"), Value::String(name)});
  }
  db.AddFact("expbase", {Value::String("sector"), Value::String("Quasi-identifier")});
  db.AddFact("expbase", {Value::String("residential revenue"),
                         Value::String("Quasi-identifier")});
  db.AddFact("expbase", {Value::String("company name"), Value::String("Identifier")});
  auto stats =
      vadalog::RunSource(VadalogBridge::CategorizationProgram(), &db, &engine);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  ASSERT_GE(stats->egd_substitutions, 1u);
  EXPECT_EQ(db.Rows("cat").size(), 5u);
  size_t feedback = 0;
  for (vadalog::FactId id = 0; id < db.size(); ++id) {
    if (db.predicate(id) != "expbase" || db.provenance(id).rule_index != 1) continue;
    ++feedback;
    const std::vector<vadalog::FactId>& support = db.provenance(id).support;
    ASSERT_EQ(support.size(), 1u);
    ASSERT_LT(support[0], id);
    EXPECT_EQ(db.predicate(support[0]), "cat");
    const std::vector<Value>& cat = db.row(support[0]);
    ASSERT_EQ(cat.size(), 3u);
    EXPECT_TRUE(cat[1].Equals(db.row(id)[0]) && cat[2].Equals(db.row(id)[1]))
        << db.FactString(id) << " cites " << db.FactString(support[0]);
  }
  EXPECT_EQ(feedback, 5u);
}

TEST(BridgeTest, CategorizationUnknownAttributeKeepsNull) {
  vadalog::Engine engine;
  VadalogBridge bridge;
  bridge.RegisterExternals(&engine, nullptr);
  vadalog::Database db;
  db.AddFact("att", {Value::String("I&G"), Value::String("zorblax")});
  auto stats =
      vadalog::RunSource(VadalogBridge::CategorizationProgram(), &db, &engine);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  ASSERT_EQ(db.Rows("cat").size(), 1u);
  // No experience matched: the category stays an existential labelled null —
  // the human-in-the-loop marker.
  EXPECT_TRUE(db.Rows("cat")[0][2].is_null());
}

TEST(BridgeTest, RelExternalEnumeratesClusters) {
  OwnershipGraph graph;
  graph.AddOwnership("a", "b", 0.8);
  vadalog::Engine engine;
  VadalogBridge bridge;
  bridge.RegisterExternals(&engine, &graph);
  vadalog::Database db;
  db.AddFact("company", {Value::String("a")});
  auto stats = vadalog::RunSource(
      "linked(X, Y) :- company(X), #rel(X, Y).", &db, &engine);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_TRUE(db.Contains("linked", {Value::String("a"), Value::String("a")}));
  EXPECT_TRUE(db.Contains("linked", {Value::String("a"), Value::String("b")}));
}

TEST(BridgeTest, EnhancedCyclePropagatesClusterRiskDeclaratively) {
  // Algorithm 9 end-to-end on the engine: a risky outlier drags its
  // #rel-linked partners into anonymization, through the monotone mprod.
  MicrodataTable t("net", {{"Id", "", AttributeCategory::kIdentifier},
                           {"Area", "", AttributeCategory::kQuasiIdentifier},
                           {"Sector", "", AttributeCategory::kQuasiIdentifier}});
  const struct {
    const char* id;
    const char* area;
    const char* sector;
  } kRows[] = {
      {"h", "North", "Financial"},  // Unique: risky outlier.
      {"a", "North", "Commerce"},   // Linked to h, safe alone (pair).
      {"a2", "North", "Commerce"},
      {"z", "South", "Energy"},     // Unlinked pair: safe.
      {"z2", "South", "Energy"},
  };
  for (const auto& r : kRows) {
    ASSERT_TRUE(
        t.AddRow({Value::String(r.id), Value::String(r.area), Value::String(r.sector)})
            .ok());
  }
  OwnershipGraph graph;
  graph.AddOwnership("h", "a", 0.8);

  VadalogBridge bridge;
  vadalog::RunStats baseline_stats;
  OwnershipGraph no_links;
  auto baseline = bridge.RunDeclarativeEnhancedCycle(t, no_links, &baseline_stats);
  ASSERT_TRUE(baseline.ok());
  vadalog::RunStats stats;
  auto out = bridge.RunDeclarativeEnhancedCycle(t, graph, &stats);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  // The link made the partner risky by propagation: strictly more
  // #anonymize invocations than without the link.
  EXPECT_GT(stats.action_invocations, baseline_stats.action_invocations);
  // The release stays safe and untouched where no risk exists.
  KAnonymityRisk risk;
  RiskContext ctx;
  ctx.k = 2;
  auto final_risks = risk.ComputeRisks(*out, ctx);
  ASSERT_TRUE(final_risks.ok());
  for (const double r : *final_risks) EXPECT_LE(r, 0.5);
  auto has_null = [&](size_t row) {
    for (const size_t c : out->QuasiIdentifierColumns()) {
      if (out->cell(row, c).is_null()) return true;
    }
    return false;
  };
  EXPECT_FALSE(has_null(3));  // The unlinked pair is untouched.
  EXPECT_FALSE(has_null(4));
}

TEST(BridgeTest, EnhancedCycleWithoutLinksMatchesBasicCycle) {
  const MicrodataTable input = Figure5Microdata();
  OwnershipGraph empty_graph;
  VadalogBridge bridge;
  auto basic = bridge.RunDeclarativeCycle(input, nullptr, nullptr);
  auto enhanced = bridge.RunDeclarativeEnhancedCycle(input, empty_graph, nullptr);
  ASSERT_TRUE(basic.ok());
  ASSERT_TRUE(enhanced.ok()) << enhanced.status().ToString();
  // With only reflexive #rel pairs the cluster risk equals the base risk:
  // both releases must be 2-anonymous. The enhanced program re-validates
  // original versions once the cluster facts settle, so it may release a
  // release with *fewer* nulls — never more.
  KAnonymityRisk risk;
  RiskContext ctx;
  ctx.k = 2;
  for (const auto* release : {&*basic, &*enhanced}) {
    auto risks = risk.ComputeRisks(*release, ctx);
    ASSERT_TRUE(risks.ok());
    for (const double r : *risks) EXPECT_LE(r, 0.5);
  }
  EXPECT_LE(enhanced->CountNullCells(), basic->CountNullCells());
}

TEST(BridgeTest, StandardSemanticsCycleInjectsMoreNulls) {
  // Fig. 7c at bridge level: with maybe_match disabled the declarative cycle
  // needs to suppress everything on risky tuples.
  const MicrodataTable input = Figure5Microdata();
  VadalogBridge maybe{BridgeOptions{}};
  BridgeOptions standard_options;
  standard_options.maybe_match = false;
  VadalogBridge standard{standard_options};
  auto out_maybe = maybe.RunDeclarativeCycle(input, nullptr, nullptr);
  auto out_standard = standard.RunDeclarativeCycle(input, nullptr, nullptr);
  ASSERT_TRUE(out_maybe.ok());
  ASSERT_TRUE(out_standard.ok());
  EXPECT_GT(out_standard->CountNullCells(), out_maybe->CountNullCells());
}

}  // namespace
}  // namespace vadasa::core
