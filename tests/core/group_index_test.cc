#include "core/group_index.h"

#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/datagen.h"

namespace vadasa::core {
namespace {

/// The Figure 5a table: 4 QI columns, frequencies 1,2,2,2,2,1,1.
TEST(GroupIndexTest, Figure5FrequenciesBeforeSuppression) {
  const MicrodataTable t = Figure5Microdata();
  const auto qis = t.QuasiIdentifierColumns();
  const GroupStats stats = ComputeGroupStats(t, qis, NullSemantics::kMaybeMatch);
  const std::vector<double> expected = {1, 2, 2, 2, 2, 1, 1};
  for (size_t r = 0; r < expected.size(); ++r) {
    EXPECT_DOUBLE_EQ(stats.frequency[r], expected[r]) << "row " << r;
  }
}

/// Figure 5b: suppressing Sector of tuple 1 lifts its frequency to 5 and
/// tuples 2-5 to 3, under the maybe-match semantics.
TEST(GroupIndexTest, Figure5FrequenciesAfterSuppression) {
  MicrodataTable t = Figure5Microdata();
  t.set_cell(0, 2, Value::Null(1));  // Sector of tuple 1 -> ⊥1.
  const auto qis = t.QuasiIdentifierColumns();
  const GroupStats stats = ComputeGroupStats(t, qis, NullSemantics::kMaybeMatch);
  const std::vector<double> expected = {5, 3, 3, 3, 3, 1, 1};
  for (size_t r = 0; r < expected.size(); ++r) {
    EXPECT_DOUBLE_EQ(stats.frequency[r], expected[r]) << "row " << r;
  }
}

TEST(GroupIndexTest, StandardSemanticsIgnoresWildcards) {
  MicrodataTable t = Figure5Microdata();
  t.set_cell(0, 2, Value::Null(1));
  const auto qis = t.QuasiIdentifierColumns();
  const GroupStats stats = ComputeGroupStats(t, qis, NullSemantics::kStandard);
  // Under the Skolem semantics the suppressed tuple stays alone and nobody
  // else's frequency moves: suppression is useless (Fig. 7c).
  const std::vector<double> expected = {1, 2, 2, 2, 2, 1, 1};
  for (size_t r = 0; r < expected.size(); ++r) {
    EXPECT_DOUBLE_EQ(stats.frequency[r], expected[r]) << "row " << r;
  }
}

TEST(GroupIndexTest, StandardSemanticsSameLabelMatches) {
  MicrodataTable t = Figure5Microdata();
  // Make rows 6 and 7 (identical QIs) both carry ⊥1 in Area.
  t.set_cell(5, 1, Value::Null(1));
  t.set_cell(6, 1, Value::Null(1));
  const auto qis = t.QuasiIdentifierColumns();
  const GroupStats stats = ComputeGroupStats(t, qis, NullSemantics::kStandard);
  EXPECT_DOUBLE_EQ(stats.frequency[5], 2.0);
  EXPECT_DOUBLE_EQ(stats.frequency[6], 2.0);
}

TEST(GroupIndexTest, WeightSumsAggregateMatchingRows) {
  const MicrodataTable t = Figure1Microdata();
  const auto qis = t.QuasiIdentifierColumns();
  const GroupStats stats = ComputeGroupStats(t, qis, NullSemantics::kMaybeMatch);
  // Every Figure-1 tuple has a unique 5-QI combination.
  for (size_t r = 0; r < t.num_rows(); ++r) {
    EXPECT_DOUBLE_EQ(stats.frequency[r], 1.0);
    EXPECT_DOUBLE_EQ(stats.weight_sum[r], t.RowWeight(r));
  }
}

TEST(GroupIndexTest, NullOnNullMatching) {
  MicrodataTable t = Figure5Microdata();
  // Two *different* nulls in the same column of rows that agree elsewhere:
  // they maybe-match each other.
  t.set_cell(5, 1, Value::Null(1));  // Milano -> ⊥1
  t.set_cell(6, 1, Value::Null(2));  // Torino -> ⊥2
  const auto qis = t.QuasiIdentifierColumns();
  const GroupStats stats = ComputeGroupStats(t, qis, NullSemantics::kMaybeMatch);
  EXPECT_DOUBLE_EQ(stats.frequency[5], 2.0);
  EXPECT_DOUBLE_EQ(stats.frequency[6], 2.0);
}

TEST(GroupIndexTest, NullsInDifferentColumns) {
  MicrodataTable t = Figure5Microdata();
  t.set_cell(0, 2, Value::Null(1));  // Row 0: Sector suppressed.
  t.set_cell(1, 1, Value::Null(2));  // Row 1: Area suppressed.
  const auto qis = t.QuasiIdentifierColumns();
  const GroupStats stats = ComputeGroupStats(t, qis, NullSemantics::kMaybeMatch);
  // Row 0 (⊥,Roma-ish...) — wait: row 0 = (Roma, ⊥, 1000+, 0-30); row 1 =
  // (⊥, Commerce, 1000+, 0-30). They maybe-match each other (each null
  // covers the other's difference).
  EXPECT_GE(stats.frequency[0], 5.0);
  EXPECT_GE(stats.frequency[1], 3.0);
}

/// Rows group by exact equality: two ints that round to one double are two
/// values, and NaN matches only NaN.
TEST(GroupIndexTest, NumericCellsGroupExactly) {
  constexpr int64_t kTwo53 = int64_t{1} << 53;
  MicrodataTable t("exact", {{"A", "", AttributeCategory::kQuasiIdentifier},
                             {"B", "", AttributeCategory::kQuasiIdentifier}});
  const std::vector<std::vector<Value>> rows = {
      {Value::String("x"), Value::Int(kTwo53)},
      {Value::String("x"), Value::Int(kTwo53 + 1)},
      {Value::String("x"), Value::Int(kTwo53 + 1)},
      {Value::String("x"), Value::Double(std::nan(""))},
      {Value::String("x"), Value::Double(std::nan(""))},
      {Value::String("x"), Value::Int(3)},
      {Value::String("x"), Value::Double(4.5)},
  };
  for (const auto& row : rows) ASSERT_TRUE(t.AddRow(row).ok());
  const std::vector<double> expected = {1, 2, 2, 2, 2, 1, 1};
  for (const NullSemantics semantics : {NullSemantics::kMaybeMatch, NullSemantics::kStandard}) {
    const GroupStats stats = ComputeGroupStats(t, t.QuasiIdentifierColumns(), semantics);
    for (size_t r = 0; r < expected.size(); ++r) {
      EXPECT_DOUBLE_EQ(stats.frequency[r], expected[r]) << "row " << r;
    }
  }
}

/// Property: maybe-match group stats computed by the class-projection
/// algorithm must equal the naive O(n²) pairwise definition.
TEST(GroupIndexTest, MatchesNaivePairwiseDefinition) {
  Rng rng(99);
  MicrodataTable t("prop", {{"A", "", AttributeCategory::kQuasiIdentifier},
                            {"B", "", AttributeCategory::kQuasiIdentifier},
                            {"C", "", AttributeCategory::kQuasiIdentifier},
                            {"W", "", AttributeCategory::kWeight}});
  const char* vals[] = {"x", "y", "z"};
  for (int i = 0; i < 120; ++i) {
    auto cell = [&](int) -> Value {
      // ~20% labelled nulls with random labels.
      if (rng.NextDouble() < 0.2) return Value::Null(rng.NextBelow(50));
      return Value::String(vals[rng.NextBelow(3)]);
    };
    ASSERT_TRUE(t.AddRow({cell(0), cell(1), cell(2),
                          Value::Int(rng.NextInt(1, 9))}).ok());
  }
  const auto qis = t.QuasiIdentifierColumns();
  for (const NullSemantics sem : {NullSemantics::kMaybeMatch, NullSemantics::kStandard}) {
    const GroupStats fast = ComputeGroupStats(t, qis, sem);
    for (size_t r = 0; r < t.num_rows(); ++r) {
      double freq = 0.0;
      double wsum = 0.0;
      for (size_t s = 0; s < t.num_rows(); ++s) {
        bool match = true;
        for (const size_t c : qis) {
          const Value& a = t.cell(r, c);
          const Value& b = t.cell(s, c);
          match = sem == NullSemantics::kMaybeMatch ? a.MaybeEquals(b) : a.Equals(b);
          if (!match) break;
        }
        if (match) {
          freq += 1.0;
          wsum += t.RowWeight(s);
        }
      }
      ASSERT_DOUBLE_EQ(fast.frequency[r], freq) << "row " << r;
      ASSERT_DOUBLE_EQ(fast.weight_sum[r], wsum) << "row " << r;
    }
  }
}

/// The monotonicity lemma behind Algorithm 2's convergence (§4.3): under the
/// maybe-match semantics, suppressing ANY cell never decreases ANY row's
/// frequency or weight mass.
TEST(GroupIndexTest, SuppressionIsMonotoneForEveryRow) {
  Rng rng(4242);
  MicrodataTable t("mono", {{"A", "", AttributeCategory::kQuasiIdentifier},
                            {"B", "", AttributeCategory::kQuasiIdentifier},
                            {"C", "", AttributeCategory::kQuasiIdentifier},
                            {"W", "", AttributeCategory::kWeight}});
  const char* vals[] = {"x", "y", "z", "w"};
  for (int i = 0; i < 40; ++i) {
    auto cell = [&]() -> Value {
      if (rng.NextDouble() < 0.15) return Value::Null(rng.NextBelow(30));
      return Value::String(vals[rng.NextBelow(4)]);
    };
    ASSERT_TRUE(t.AddRow({cell(), cell(), cell(), Value::Int(rng.NextInt(1, 9))}).ok());
  }
  const auto qis = t.QuasiIdentifierColumns();
  uint64_t next_label = 1000;
  for (int trial = 0; trial < 25; ++trial) {
    const GroupStats before = ComputeGroupStats(t, qis, NullSemantics::kMaybeMatch);
    // Suppress one random non-null cell.
    const size_t row = rng.NextBelow(t.num_rows());
    const size_t col = qis[rng.NextBelow(qis.size())];
    if (t.cell(row, col).is_null()) continue;
    t.set_cell(row, col, Value::Null(next_label++));
    const GroupStats after = ComputeGroupStats(t, qis, NullSemantics::kMaybeMatch);
    for (size_t r = 0; r < t.num_rows(); ++r) {
      ASSERT_GE(after.frequency[r], before.frequency[r])
          << "trial " << trial << " row " << r;
      ASSERT_GE(after.weight_sum[r] + 1e-9, before.weight_sum[r])
          << "trial " << trial << " row " << r;
    }
  }
}

TEST(GroupIndexTest, QueryWildcardPattern) {
  const MicrodataTable t = Figure5Microdata();
  const auto qis = t.QuasiIdentifierColumns();
  // (Roma, *, 1000+, 0-30) matches rows 0-4.
  const std::vector<Value> pattern = {Value::String("Roma"), Value::Null(0),
                                      Value::String("1000+"), Value::String("0-30")};
  EXPECT_DOUBLE_EQ(GroupIndex(t, qis, NullSemantics::kMaybeMatch).Query(pattern).count,
                   5.0);
  EXPECT_DOUBLE_EQ(GroupIndex(t, qis, NullSemantics::kStandard).Query(pattern).count,
                   0.0);
}

TEST(GroupIndexQueryTest, StandardSemanticsExactLookup) {
  const MicrodataTable t = Figure5Microdata();
  const auto qis = t.QuasiIdentifierColumns();
  const GroupIndex index(t, qis, NullSemantics::kStandard);
  const std::vector<Value> roma_commerce = {Value::String("Roma"),
                                            Value::String("Commerce"),
                                            Value::String("1000+"), Value::String("0-30")};
  EXPECT_DOUBLE_EQ(index.Query(roma_commerce).count, 2.0);
}

TEST(GroupIndexQueryTest, WeightMass) {
  const MicrodataTable t = Figure1Microdata();
  const auto qis = t.QuasiIdentifierColumns();
  const GroupIndex index(t, qis, NullSemantics::kMaybeMatch);
  std::vector<Value> p;
  for (const size_t c : qis) p.push_back(t.cell(3, c));  // Tuple 4.
  EXPECT_DOUBLE_EQ(index.Query(p).weight, 60.0);
}

/// Regression for the unguarded `1u << i` shift: more than 32 quasi-
/// identifiers used to shift past the mask width (undefined behavior).
/// kStandard must group such tables correctly; kMaybeMatch is rejected
/// upfront by ValidateQiWidth.
TEST(GroupIndexTest, MoreThan32QuasiIdentifiers) {
  std::vector<Attribute> attrs;
  const size_t kCols = 40;
  for (size_t c = 0; c < kCols; ++c) {
    attrs.push_back({"q" + std::to_string(c), "", AttributeCategory::kQuasiIdentifier});
  }
  MicrodataTable t("wide", attrs);
  // Rows 0 and 1 agree everywhere; row 2 differs only in the LAST column —
  // exactly the column an unguarded 32-bit mask would wrap around on.
  for (int r = 0; r < 3; ++r) {
    std::vector<Value> row;
    for (size_t c = 0; c < kCols; ++c) {
      row.push_back(Value::Int(c == kCols - 1 && r == 2 ? 99 : static_cast<int>(c)));
    }
    ASSERT_TRUE(t.AddRow(std::move(row)).ok());
  }
  const auto qis = t.QuasiIdentifierColumns();
  ASSERT_EQ(qis.size(), kCols);
  EXPECT_TRUE(ValidateQiWidth(qis, NullSemantics::kStandard).ok());
  EXPECT_FALSE(ValidateQiWidth(qis, NullSemantics::kMaybeMatch).ok());

  const GroupStats stats = ComputeGroupStats(t, qis, NullSemantics::kStandard);
  EXPECT_DOUBLE_EQ(stats.frequency[0], 2.0);
  EXPECT_DOUBLE_EQ(stats.frequency[1], 2.0);
  EXPECT_DOUBLE_EQ(stats.frequency[2], 1.0);
}

/// The incremental index must track a from-scratch recomputation through a
/// random sequence of cell suppressions, for both semantics: frequencies and
/// weight sums bit-identically (the GroupIndex contract), and Query against a
/// freshly built index.
TEST(GroupIndexTest, IncrementalUpdateMatchesRebuild) {
  for (const NullSemantics sem :
       {NullSemantics::kMaybeMatch, NullSemantics::kStandard}) {
    Rng rng(555 + static_cast<int>(sem));
    MicrodataTable t("incr", {{"A", "", AttributeCategory::kQuasiIdentifier},
                              {"B", "", AttributeCategory::kQuasiIdentifier},
                              {"C", "", AttributeCategory::kQuasiIdentifier},
                              {"W", "", AttributeCategory::kWeight}});
    const char* vals[] = {"x", "y", "z"};
    for (int i = 0; i < 90; ++i) {
      auto cell = [&]() -> Value {
        if (rng.NextDouble() < 0.1) return Value::Null(rng.NextBelow(40));
        return Value::String(vals[rng.NextBelow(3)]);
      };
      ASSERT_TRUE(
          t.AddRow({cell(), cell(), cell(), Value::Int(rng.NextInt(1, 9))}).ok());
    }
    const auto qis = t.QuasiIdentifierColumns();
    GroupIndex index(t, qis, sem);
    uint64_t next_label = 1000;
    for (int step = 0; step < 30; ++step) {
      // Suppress a small random batch of cells, as one anonymization
      // iteration would.
      std::vector<uint32_t> changed;
      const int batch = 1 + static_cast<int>(rng.NextBelow(3));
      for (int b = 0; b < batch; ++b) {
        const uint32_t row = static_cast<uint32_t>(rng.NextBelow(t.num_rows()));
        const size_t col = qis[rng.NextBelow(qis.size())];
        if (!t.cell(row, col).is_null()) {
          t.set_cell(row, col, Value::Null(next_label++));
        }
        changed.push_back(row);
      }
      index.UpdateRows(t, changed);

      const GroupStats expected = ComputeGroupStats(t, qis, sem);
      const GroupStats& got = index.Stats();
      for (size_t r = 0; r < t.num_rows(); ++r) {
        ASSERT_EQ(got.frequency[r], expected.frequency[r])
            << "sem " << static_cast<int>(sem) << " step " << step << " row " << r;
        ASSERT_EQ(got.weight_sum[r], expected.weight_sum[r])
            << "sem " << static_cast<int>(sem) << " step " << step << " row " << r;
      }
      // Spot-check the what-if oracle too.
      for (int probe = 0; probe < 5; ++probe) {
        const size_t r = rng.NextBelow(t.num_rows());
        std::vector<Value> q = {t.cell(r, 0), t.cell(r, 1), t.cell(r, 2)};
        if (rng.NextDouble() < 0.5) q[rng.NextBelow(3)] = Value::Null(0);
        ASSERT_DOUBLE_EQ(index.Query(q).count, GroupIndex(t, qis, sem).Query(q).count)
            << "sem " << static_cast<int>(sem) << " step " << step;
      }
    }
    EXPECT_EQ(index.full_builds(), 1u);
    EXPECT_EQ(index.incremental_updates(), 30u);
  }
}

TEST(RiskEvalCacheTest, MemoDroppedOnRowChange) {
  const MicrodataTable t = Figure5Microdata();
  const auto qis = t.QuasiIdentifierColumns();
  RiskEvalCache cache;
  cache.SetMemo("probe", std::make_shared<int>(42));
  ASSERT_NE(cache.Memo("probe"), nullptr);
  (void)cache.Stats(t, qis, NullSemantics::kMaybeMatch);
  EXPECT_EQ(cache.full_builds(), 1u);
  cache.NotifyRowsChanged(t, {0});
  EXPECT_EQ(cache.Memo("probe"), nullptr);
  // The index survives the notification (incrementally updated, not rebuilt).
  (void)cache.Stats(t, qis, NullSemantics::kMaybeMatch);
  EXPECT_EQ(cache.full_builds(), 1u);
  EXPECT_EQ(cache.incremental_updates(), 1u);
}

void ExpectSameStats(const GroupStats& got, const GroupStats& want, const char* at) {
  ASSERT_EQ(got.frequency.size(), want.frequency.size()) << at;
  for (size_t r = 0; r < want.frequency.size(); ++r) {
    ASSERT_EQ(got.frequency[r], want.frequency[r]) << at << " row " << r;
    ASSERT_EQ(got.weight_sum[r], want.weight_sum[r]) << at << " row " << r;
  }
}

TEST(RiskEvalCacheTest, AnotherProjectionReplacesTheOneIndex) {
  MicrodataTable t = GenerateInflationGrowth("proj", 400, 4, DistributionKind::kUnbalanced, 5);
  const auto b = t.QuasiIdentifierColumns();
  ASSERT_GE(b.size(), 3u);
  const std::vector<size_t> a(b.begin(), b.end() - 1);
  RiskEvalCache cache;
  (void)cache.Stats(t, a, NullSemantics::kStandard);
  EXPECT_EQ(cache.full_builds(), 1u);

  ExpectSameStats(cache.Stats(t, b, NullSemantics::kMaybeMatch),
                  ComputeGroupStats(t, b, NullSemantics::kMaybeMatch), "projection B");
  EXPECT_EQ(cache.full_builds(), 1u) << "B's index replaced A's";

  t.set_cell(7, b[1], Value::Null(1));
  cache.NotifyRowsChanged(t, {7});
  ExpectSameStats(cache.Stats(t, b, NullSemantics::kMaybeMatch),
                  ComputeGroupStats(t, b, NullSemantics::kMaybeMatch),
                  "projection B after one suppression");
  EXPECT_EQ(cache.full_builds(), 1u);
  EXPECT_EQ(cache.incremental_updates(), 1u);
}

/// A bare QI-only table for the degenerate-input checks below.
MicrodataTable QiOnlyTable(size_t num_qi) {
  std::vector<Attribute> attrs;
  for (size_t i = 0; i < num_qi; ++i) {
    attrs.push_back({"Q" + std::to_string(i), "", AttributeCategory::kQuasiIdentifier});
  }
  return MicrodataTable("degenerate", std::move(attrs));
}

TEST(GroupIndexDegenerateTest, EmptyTable) {
  const MicrodataTable t = QiOnlyTable(2);
  const auto qis = t.QuasiIdentifierColumns();
  for (const auto semantics : {NullSemantics::kMaybeMatch, NullSemantics::kStandard}) {
    const GroupStats stats = ComputeGroupStats(t, qis, semantics);
    EXPECT_TRUE(stats.frequency.empty());
    EXPECT_TRUE(stats.weight_sum.empty());
    GroupIndex index(t, qis, semantics);
    EXPECT_EQ(index.num_rows(), 0u);
    EXPECT_EQ(index.num_patterns(), 0u);
    const PatternMass mass = index.Query({Value::String("a"), Value::Null(1)});
    EXPECT_DOUBLE_EQ(mass.count, 0.0);
    EXPECT_DOUBLE_EQ(mass.weight, 0.0);
  }
}

TEST(GroupIndexDegenerateTest, SingleTuple) {
  MicrodataTable t = QiOnlyTable(3);
  ASSERT_TRUE(t.AddRow({Value::String("a"), Value::Int(1), Value::Null(4)}).ok());
  const auto qis = t.QuasiIdentifierColumns();
  for (const auto semantics : {NullSemantics::kMaybeMatch, NullSemantics::kStandard}) {
    const GroupStats stats = ComputeGroupStats(t, qis, semantics);
    ASSERT_EQ(stats.frequency.size(), 1u);
    EXPECT_DOUBLE_EQ(stats.frequency[0], 1.0);
  }
  const auto classes = ComputeEquivalenceClasses(t, qis);
  EXPECT_EQ(classes.num_classes, 1u);
  EXPECT_EQ(classes.uniques, 1u);
  EXPECT_EQ(classes.max_class_size, 1u);
}

TEST(GroupIndexDegenerateTest, AllSuppressedDistinctLabels) {
  MicrodataTable t = QiOnlyTable(2);
  // Three rows, fully suppressed with pairwise-distinct labels — the
  // post-exhaustion state of record suppression.
  for (uint64_t r = 0; r < 3; ++r) {
    ASSERT_TRUE(t.AddRow({Value::Null(2 * r + 1), Value::Null(2 * r + 2)}).ok());
  }
  const auto qis = t.QuasiIdentifierColumns();
  // Maybe-match: every null is a wildcard, so each row maybe-matches all.
  const GroupStats maybe = ComputeGroupStats(t, qis, NullSemantics::kMaybeMatch);
  for (size_t r = 0; r < 3; ++r) EXPECT_DOUBLE_EQ(maybe.frequency[r], 3.0) << r;
  // Standard: ⊥_i = ⊥_j iff i == j, so every row remains unique.
  const GroupStats standard = ComputeGroupStats(t, qis, NullSemantics::kStandard);
  for (size_t r = 0; r < 3; ++r) EXPECT_DOUBLE_EQ(standard.frequency[r], 1.0) << r;
}

TEST(GroupIndexDegenerateTest, AllSuppressedSharedLabels) {
  MicrodataTable t = QiOnlyTable(2);
  // Identical labelled-null rows group together even under standard
  // semantics — the pattern {⊥1, ⊥2} equals itself.
  for (int r = 0; r < 3; ++r) {
    ASSERT_TRUE(t.AddRow({Value::Null(1), Value::Null(2)}).ok());
  }
  const auto qis = t.QuasiIdentifierColumns();
  for (const auto semantics : {NullSemantics::kMaybeMatch, NullSemantics::kStandard}) {
    const GroupStats stats = ComputeGroupStats(t, qis, semantics);
    for (size_t r = 0; r < 3; ++r) EXPECT_DOUBLE_EQ(stats.frequency[r], 3.0) << r;
  }
}

TEST(GroupIndexDegenerateTest, SingleQiColumn) {
  MicrodataTable t = QiOnlyTable(1);
  for (const char* v : {"a", "a", "b"}) {
    ASSERT_TRUE(t.AddRow({Value::String(v)}).ok());
  }
  const auto qis = t.QuasiIdentifierColumns();
  for (const auto semantics : {NullSemantics::kMaybeMatch, NullSemantics::kStandard}) {
    const GroupStats stats = ComputeGroupStats(t, qis, semantics);
    EXPECT_DOUBLE_EQ(stats.frequency[0], 2.0);
    EXPECT_DOUBLE_EQ(stats.frequency[1], 2.0);
    EXPECT_DOUBLE_EQ(stats.frequency[2], 1.0);
  }
}

TEST(GroupIndexDegenerateTest, DuplicateRowsFormOneGroup) {
  MicrodataTable t = QiOnlyTable(2);
  for (int r = 0; r < 4; ++r) {
    ASSERT_TRUE(t.AddRow({Value::String("x"), Value::Int(9)}).ok());
  }
  const auto qis = t.QuasiIdentifierColumns();
  for (const auto semantics : {NullSemantics::kMaybeMatch, NullSemantics::kStandard}) {
    const GroupStats stats = ComputeGroupStats(t, qis, semantics);
    for (size_t r = 0; r < 4; ++r) EXPECT_DOUBLE_EQ(stats.frequency[r], 4.0) << r;
  }
  GroupIndex index(t, qis, NullSemantics::kMaybeMatch);
  EXPECT_EQ(index.num_patterns(), 1u);
  const auto classes = ComputeEquivalenceClasses(t, qis);
  EXPECT_EQ(classes.num_classes, 1u);
  EXPECT_EQ(classes.uniques, 0u);
  EXPECT_EQ(classes.max_class_size, 4u);
}

}  // namespace
}  // namespace vadasa::core
