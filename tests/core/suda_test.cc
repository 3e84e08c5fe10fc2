#include "core/suda.h"

#include <gtest/gtest.h>

#include "core/datagen.h"

namespace vadasa::core {
namespace {

int PopcountMask(uint32_t m) { return __builtin_popcount(m); }

TEST(SudaTest, Figure1Tuple20MSUs) {
  // Section 4.2's worked example: over the AnonSet {Area, Sector, Employees,
  // Residential Rev.} tuple 20 has exactly 2 MSUs — {Sector=Financial} and
  // {Employees=1000+, Residential Rev.=30-60}.
  const MicrodataTable t = Figure1Microdata();
  SudaOptions options;
  options.max_search_size = 4;  // Search everything; the example needs size 2.
  SudaRisk suda(options);
  RiskContext ctx;
  ctx.qi_columns = {1, 2, 3, 4};  // The example's 4-attribute AnonSet.
  ctx.k = 3;
  auto details = suda.ComputeDetails(t, ctx);
  ASSERT_TRUE(details.ok());
  const auto& msus = details->msus[19];  // Tuple 20.
  ASSERT_EQ(msus.size(), 2u);
  // The resolved QI order is Area(0), Sector(1), Employees(2), ResRev(3),
  // ExportRev(4) as bit positions.
  bool found_sector = false;
  bool found_emp_res = false;
  for (const auto& msu : msus) {
    if (msu.column_mask == (1u << 1)) found_sector = true;
    if (msu.column_mask == ((1u << 2) | (1u << 3))) found_emp_res = true;
  }
  EXPECT_TRUE(found_sector);
  EXPECT_TRUE(found_emp_res);
}

TEST(SudaTest, MsusAreMinimalAndUnique) {
  const MicrodataTable t = Figure1Microdata();
  SudaOptions options;
  options.max_search_size = 5;
  SudaRisk suda(options);
  RiskContext ctx;
  ctx.k = 3;
  auto details = suda.ComputeDetails(t, ctx);
  ASSERT_TRUE(details.ok());
  const auto qis = ctx.ResolveQiColumns(t);
  for (size_t r = 0; r < t.num_rows(); ++r) {
    for (const auto& msu : details->msus[r]) {
      EXPECT_EQ(msu.size, PopcountMask(msu.column_mask));
      // Uniqueness: no other row shares the projection.
      size_t matches = 0;
      for (size_t s = 0; s < t.num_rows(); ++s) {
        bool same = true;
        for (size_t b = 0; b < qis.size(); ++b) {
          if ((msu.column_mask & (1u << b)) &&
              !t.cell(r, qis[b]).Equals(t.cell(s, qis[b]))) {
            same = false;
            break;
          }
        }
        if (same) ++matches;
      }
      EXPECT_EQ(matches, 1u) << "row " << r << " mask " << msu.column_mask;
      // Minimality: no MSU of the same row is a strict subset of another.
      for (const auto& other : details->msus[r]) {
        if (other.column_mask == msu.column_mask) continue;
        EXPECT_NE(other.column_mask & msu.column_mask, other.column_mask)
            << "nested MSUs for row " << r;
      }
    }
  }
}

TEST(SudaTest, RiskFlagsSmallMsusOnly) {
  const MicrodataTable t = Figure1Microdata();
  SudaRisk suda;
  RiskContext ctx;
  ctx.k = 2;  // Dangerous iff an MSU of size 1 exists.
  auto risks = suda.ComputeRisks(t, ctx);
  ASSERT_TRUE(risks.ok());
  // Tuple 20 is the only Financial-sector company: size-1 MSU -> risky.
  EXPECT_DOUBLE_EQ((*risks)[19], 1.0);
  // Tuple 1 (North, Public Service, 50-200, 0-30, 0-30): every single value
  // occurs elsewhere, so no size-1 MSU.
  EXPECT_DOUBLE_EQ((*risks)[0], 0.0);
}

TEST(SudaTest, NoSampleUniqueNoRisk) {
  MicrodataTable t("dup", {{"A", "", AttributeCategory::kQuasiIdentifier},
                           {"B", "", AttributeCategory::kQuasiIdentifier}});
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(t.AddRow({Value::String("x"), Value::String("y")}).ok());
  }
  SudaRisk suda;
  RiskContext ctx;
  ctx.k = 3;
  auto details = suda.ComputeDetails(t, ctx);
  ASSERT_TRUE(details.ok());
  for (const auto& msus : details->msus) EXPECT_TRUE(msus.empty());
  auto risks = suda.ComputeRisks(t, ctx);
  ASSERT_TRUE(risks.ok());
  for (const double r : *risks) EXPECT_DOUBLE_EQ(r, 0.0);
}

TEST(SudaTest, PruningMatchesExhaustive) {
  const MicrodataTable t =
      GenerateInflationGrowth("suda-prop", 400, 5, DistributionKind::kUnbalanced, 11);
  RiskContext ctx;
  ctx.k = 3;
  SudaOptions pruned_options;
  SudaOptions exhaustive_options;
  exhaustive_options.exhaustive = true;
  SudaRisk pruned(pruned_options);
  SudaRisk exhaustive(exhaustive_options);
  const auto a = pruned.ComputeRisks(t, ctx);
  const auto b = exhaustive.ComputeRisks(t, ctx);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  for (size_t r = 0; r < t.num_rows(); ++r) {
    EXPECT_DOUBLE_EQ((*a)[r], (*b)[r]) << "row " << r;
  }
  auto da = pruned.ComputeDetails(t, ctx);
  auto db = exhaustive.ComputeDetails(t, ctx);
  ASSERT_TRUE(da.ok());
  ASSERT_TRUE(db.ok());
  EXPECT_LE(da->combos_evaluated, db->combos_evaluated);
  EXPECT_GT(da->combos_pruned + da->combos_evaluated, 0u);
  // MSUs themselves must agree, column set by column set.
  for (size_t r = 0; r < t.num_rows(); ++r) {
    ASSERT_EQ(da->msus[r], db->msus[r]) << "row " << r;
  }
}

TEST(SudaTest, ExplainListsMsus) {
  const MicrodataTable t = Figure1Microdata();
  SudaOptions options;
  options.max_search_size = 5;
  SudaRisk suda(options);
  RiskContext ctx;
  ctx.k = 3;
  const std::string text = suda.Explain(t, ctx, 19, 1.0);
  EXPECT_NE(text.find("Financial"), std::string::npos);
  EXPECT_NE(text.find("MSU"), std::string::npos);
}

TEST(SudaScoreTest, SmallerMsusScoreExponentiallyHigher) {
  // Over the example's 4-attribute AnonSet, tuple 20 has MSUs of sizes 1 and
  // 2: score 2^(4-1) + 2^(4-2) = 12.
  const MicrodataTable t = Figure1Microdata();
  SudaOptions options;
  options.max_search_size = 4;
  SudaRisk suda(options);
  RiskContext ctx;
  ctx.qi_columns = {1, 2, 3, 4};
  ctx.k = 3;
  auto scores = suda.ComputeScores(t, ctx);
  ASSERT_TRUE(scores.ok());
  EXPECT_DOUBLE_EQ((*scores)[19], 12.0);
  // Rows without sample uniques score 0.
  for (size_t r = 0; r < scores->size(); ++r) {
    EXPECT_GE((*scores)[r], 0.0);
  }
}

TEST(SudaScoreTest, NormalizationMapsToUnitInterval) {
  const MicrodataTable t = Figure1Microdata();
  SudaOptions options;
  options.max_search_size = 5;
  SudaRisk suda(options);
  RiskContext ctx;
  ctx.k = 3;
  auto scores = suda.ComputeScores(t, ctx);
  ASSERT_TRUE(scores.ok());
  const auto normalized = NormalizeSudaScores(*scores);
  double max_norm = 0.0;
  for (const double s : normalized) {
    EXPECT_GE(s, 0.0);
    EXPECT_LE(s, 1.0);
    max_norm = std::max(max_norm, s);
  }
  EXPECT_DOUBLE_EQ(max_norm, 1.0);  // Some Fig. 1 tuple is sample unique.
  // All-zero input stays all-zero.
  const auto zeros = NormalizeSudaScores(std::vector<double>(5, 0.0));
  for (const double s : zeros) EXPECT_DOUBLE_EQ(s, 0.0);
}

TEST(SudaTest, TooManyQisRejected) {
  std::vector<Attribute> attrs;
  for (int i = 0; i < 21; ++i) {
    attrs.push_back({"q" + std::to_string(i), "", AttributeCategory::kQuasiIdentifier});
  }
  MicrodataTable t("wide", attrs);
  std::vector<Value> row;
  for (int i = 0; i < 21; ++i) row.push_back(Value::Int(i));
  ASSERT_TRUE(t.AddRow(row).ok());
  SudaRisk suda;
  RiskContext ctx;
  EXPECT_FALSE(suda.ComputeRisks(t, ctx).ok());
}

TEST(SudaTest, EmptyTable) {
  MicrodataTable t("empty", {{"A", "", AttributeCategory::kQuasiIdentifier}});
  SudaRisk suda;
  RiskContext ctx;
  auto risks = suda.ComputeRisks(t, ctx);
  ASSERT_TRUE(risks.ok());
  EXPECT_TRUE(risks->empty());
}

}  // namespace
}  // namespace vadasa::core
