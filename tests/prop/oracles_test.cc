#include "testing/oracles.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/random.h"
#include "core/group_index.h"
#include "core/microdata.h"

namespace vadasa::testing {
namespace {

using core::AttributeCategory;
using core::GroupIndex;
using core::MicrodataTable;
using core::NullSemantics;
using core::PatternMass;

TEST(ReferenceCellTest, NumberDetection) {
  // The retired LooksLikeInt / LooksLikeDouble cases, read through the
  // reference cell reader that keeps them.
  EXPECT_TRUE(ReferenceCellToValue("42").is_int());
  EXPECT_TRUE(ReferenceCellToValue("-7").is_int());
  EXPECT_FALSE(ReferenceCellToValue("4.2").is_int());
  EXPECT_FALSE(ReferenceCellToValue("90+").is_int());
  EXPECT_FALSE(ReferenceCellToValue("").is_int());
  EXPECT_TRUE(ReferenceCellToValue("4.2").is_double());
  EXPECT_TRUE(ReferenceCellToValue("-1e3").is_double());
  EXPECT_FALSE(ReferenceCellToValue("0-30").is_double());
  EXPECT_FALSE(ReferenceCellToValue("30-60").is_double());
}

TEST(GroupIndexQueryTest, AgreesWithNaivePatternMass) {
  Rng rng(7);
  MicrodataTable t("u", {{"A", "", AttributeCategory::kQuasiIdentifier},
                         {"B", "", AttributeCategory::kQuasiIdentifier}});
  const char* vals[] = {"p", "q", "r", "s"};
  for (int i = 0; i < 80; ++i) {
    auto cell = [&]() -> Value {
      if (rng.NextDouble() < 0.25) return Value::Null(rng.NextBelow(20));
      return Value::String(vals[rng.NextBelow(4)]);
    };
    ASSERT_TRUE(t.AddRow({cell(), cell()}).ok());
  }
  const auto qis = t.QuasiIdentifierColumns();
  const GroupIndex index(t, qis, NullSemantics::kMaybeMatch);
  // Query with every row's own pattern plus synthetic wildcard patterns.
  std::vector<std::vector<Value>> queries;
  for (size_t r = 0; r < t.num_rows(); ++r) {
    queries.push_back({t.cell(r, 0), t.cell(r, 1)});
  }
  queries.push_back({Value::Null(0), Value::String("p")});
  queries.push_back({Value::String("q"), Value::Null(0)});
  queries.push_back({Value::Null(0), Value::Null(0)});
  for (const auto& q : queries) {
    EXPECT_DOUBLE_EQ(index.Query(q).count,
                     NaivePatternMass(t, qis, q, NullSemantics::kMaybeMatch).count);
  }
}

/// Randomized oracle test: GroupIndex::Query must agree with the linear
/// NaivePatternMass scan for arbitrary (wildcard-bearing) patterns under BOTH
/// null semantics.
TEST(GroupIndexQueryTest, RandomizedQueriesMatchNaivePatternMassBothSemantics) {
  Rng rng(20260806);
  MicrodataTable t("oracle", {{"A", "", AttributeCategory::kQuasiIdentifier},
                              {"B", "", AttributeCategory::kQuasiIdentifier},
                              {"C", "", AttributeCategory::kQuasiIdentifier},
                              {"W", "", AttributeCategory::kWeight}});
  const char* vals[] = {"u", "v", "w"};
  for (int i = 0; i < 150; ++i) {
    auto cell = [&]() -> Value {
      if (rng.NextDouble() < 0.2) return Value::Null(rng.NextBelow(12));
      return Value::String(vals[rng.NextBelow(3)]);
    };
    ASSERT_TRUE(
        t.AddRow({cell(), cell(), cell(), Value::Int(rng.NextInt(1, 5))}).ok());
  }
  const auto qis = t.QuasiIdentifierColumns();
  for (const NullSemantics sem :
       {NullSemantics::kMaybeMatch, NullSemantics::kStandard}) {
    const GroupIndex index(t, qis, sem);
    for (int trial = 0; trial < 200; ++trial) {
      std::vector<Value> q;
      for (size_t c = 0; c < qis.size(); ++c) {
        if (rng.NextDouble() < 0.3) {
          q.push_back(Value::Null(rng.NextBelow(12)));
        } else {
          q.push_back(Value::String(vals[rng.NextBelow(3)]));
        }
      }
      const PatternMass got = index.Query(q);
      ASSERT_DOUBLE_EQ(got.count, NaivePatternMass(t, qis, q, sem).count)
          << "semantics " << static_cast<int>(sem) << " trial " << trial;
    }
  }
}

TEST(ReferenceUtilityTest, KeysPairsByBothSpellings) {
  // The reference keys a pair cell by its two spellings, as MeasureUtility
  // does: ("a\x1f", "b") and ("a", "\x1f" "b") stay two cells, where the
  // retired a + "\x1f" + b key merged them.
  MicrodataTable original("o", {{"X", "", AttributeCategory::kQuasiIdentifier},
                                {"Y", "", AttributeCategory::kQuasiIdentifier}});
  ASSERT_TRUE(original.AddRow({Value::String("a\x1f"), Value::String("b")}).ok());
  ASSERT_TRUE(original.AddRow({Value::String("a"), Value::String("\x1f" "b")}).ok());
  MicrodataTable released = original;
  released.set_cell(1, 0, Value::Null(1));
  auto reference = ReferenceMeasureUtility(original, released);
  auto measured = core::MeasureUtility(original, released);
  ASSERT_TRUE(reference.ok());
  ASSERT_TRUE(measured.ok());
  EXPECT_EQ(reference->disturbed_pairs_fraction, 1.0);
  EXPECT_EQ(measured->disturbed_pairs_fraction, reference->disturbed_pairs_fraction);
}

}  // namespace
}  // namespace vadasa::testing
