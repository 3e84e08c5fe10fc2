#include "core/heuristics.h"

#include <gtest/gtest.h>

#include "core/datagen.h"

namespace vadasa::core {
namespace {

TEST(TupleOrderTest, LessSignificantFirstSortsByWeight) {
  const MicrodataTable t = Figure1Microdata();
  // All rows risky; ascending weight => tuple 15 (w=30, index 14) first,
  // tuple 7 (w=300, index 6) last.
  std::vector<size_t> risky;
  std::vector<double> risks(t.num_rows(), 1.0);
  for (size_t r = 0; r < t.num_rows(); ++r) risky.push_back(r);
  const auto order =
      OrderRiskyTuples(t, risky, risks, TupleOrder::kLessSignificantFirst);
  EXPECT_EQ(order.front(), 14u);
  EXPECT_EQ(order.back(), 6u);
}

TEST(TupleOrderTest, MostRiskyFirstSortsByRisk) {
  const MicrodataTable t = Figure1Microdata();
  std::vector<size_t> risky = {0, 1, 2};
  std::vector<double> risks(t.num_rows(), 0.0);
  risks[0] = 0.2;
  risks[1] = 0.9;
  risks[2] = 0.5;
  const auto order = OrderRiskyTuples(t, risky, risks, TupleOrder::kMostRiskyFirst);
  EXPECT_EQ(order, (std::vector<size_t>{1, 2, 0}));
}

TEST(TupleOrderTest, FifoKeepsInputOrder) {
  const MicrodataTable t = Figure1Microdata();
  std::vector<size_t> risky = {5, 2, 9};
  std::vector<double> risks(t.num_rows(), 1.0);
  EXPECT_EQ(OrderRiskyTuples(t, risky, risks, TupleOrder::kFifo), risky);
}

TEST(TupleOrderTest, StableOnTies) {
  const MicrodataTable t = Figure5Microdata();  // No weight column: all 1.0.
  std::vector<size_t> risky = {3, 1, 4};
  std::vector<double> risks(t.num_rows(), 1.0);
  EXPECT_EQ(OrderRiskyTuples(t, risky, risks, TupleOrder::kLessSignificantFirst), risky);
}

TEST(QiChoiceTest, MostRiskyFirstPicksWidestReach) {
  // Section 4.4's example: for tuple 1 of Fig. 5a, suppressing Sector lifts
  // its frequency to 5 — better than Area (1), Employees (1) or Res.Rev (1).
  const MicrodataTable t = Figure5Microdata();
  const auto qis = t.QuasiIdentifierColumns();
  LocalSuppression anon;
  const GroupIndex index(t, qis, NullSemantics::kMaybeMatch);
  auto col = ChooseQiColumn(t, qis, 0, QiChoice::kMostRiskyFirst, anon, index);
  ASSERT_TRUE(col.ok());
  EXPECT_EQ(*col, 2u);  // Sector.
}

TEST(QiChoiceTest, FirstApplicableSkipsNulls) {
  MicrodataTable t = Figure5Microdata();
  t.set_cell(0, 1, Value::Null(1));  // Area already suppressed.
  const auto qis = t.QuasiIdentifierColumns();
  LocalSuppression anon;
  const GroupIndex index(t, qis, NullSemantics::kMaybeMatch);
  auto col = ChooseQiColumn(t, qis, 0, QiChoice::kFirstApplicable, anon, index);
  ASSERT_TRUE(col.ok());
  EXPECT_EQ(*col, 2u);
}

TEST(QiChoiceTest, RarestValue) {
  const MicrodataTable t = Figure5Microdata();
  const auto qis = t.QuasiIdentifierColumns();
  LocalSuppression anon;
  const GroupIndex index(t, qis, NullSemantics::kMaybeMatch);
  // Row 0: Roma (x5), Textiles (x1), 1000+ (x5), 0-30 (x5): Textiles rarest.
  auto col = ChooseQiColumn(t, qis, 0, QiChoice::kRarestValue, anon, index);
  ASSERT_TRUE(col.ok());
  EXPECT_EQ(*col, 2u);
}

TEST(QiChoiceTest, NotFoundWhenNothingApplicable) {
  MicrodataTable t = Figure5Microdata();
  for (const size_t c : t.QuasiIdentifierColumns()) {
    t.set_cell(0, c, Value::Null(c + 1));
  }
  const auto qis = t.QuasiIdentifierColumns();
  LocalSuppression anon;
  const GroupIndex index(t, qis, NullSemantics::kMaybeMatch);
  const auto col = ChooseQiColumn(t, qis, 0, QiChoice::kMostRiskyFirst, anon, index);
  EXPECT_FALSE(col.ok());
  EXPECT_EQ(col.status().code(), StatusCode::kNotFound);
}

TEST(HeuristicsParsingTest, FromStringRoundTrips) {
  EXPECT_EQ(*TupleOrderFromString("less-significant-first"),
            TupleOrder::kLessSignificantFirst);
  EXPECT_EQ(*TupleOrderFromString("most-risky-first"), TupleOrder::kMostRiskyFirst);
  EXPECT_EQ(*TupleOrderFromString("fifo"), TupleOrder::kFifo);
  EXPECT_FALSE(TupleOrderFromString("bogus").ok());
  EXPECT_EQ(*QiChoiceFromString("most-risky-first"), QiChoice::kMostRiskyFirst);
  EXPECT_EQ(*QiChoiceFromString("first-applicable"), QiChoice::kFirstApplicable);
  EXPECT_EQ(*QiChoiceFromString("rarest-value"), QiChoice::kRarestValue);
  EXPECT_FALSE(QiChoiceFromString("bogus").ok());
}

}  // namespace
}  // namespace vadasa::core
