#include "vadalog/database.h"

#include <gtest/gtest.h>

namespace vadasa::vadalog {
namespace {

TEST(DatabaseTest, AddAndContains) {
  Database db;
  const FactId id = db.AddFact("edge", {Value::String("a"), Value::String("b")});
  EXPECT_TRUE(db.Contains("edge", {Value::String("a"), Value::String("b")}));
  EXPECT_FALSE(db.Contains("edge", {Value::String("b"), Value::String("a")}));
  EXPECT_FALSE(db.Contains("node", {Value::String("a")}));
  EXPECT_EQ(db.predicate(id), "edge");
  EXPECT_EQ(db.size(), 1u);
}

TEST(DatabaseTest, DuplicateInsertReturnsExistingId) {
  Database db;
  const FactId a = db.AddFact("p", {Value::Int(1)});
  const FactId b = db.AddFact("p", {Value::Int(1)});
  EXPECT_EQ(a, b);
  EXPECT_EQ(db.size(), 1u);
}

TEST(DatabaseTest, ProvenanceIsStored) {
  Database db;
  const FactId base = db.AddFact("q", {Value::Int(7)});
  Provenance prov;
  prov.rule_index = 3;
  prov.support = {base};
  const FactId derived = db.AddFact("p", {Value::Int(7)}, prov);
  EXPECT_EQ(db.provenance(derived).rule_index, 3);
  ASSERT_EQ(db.provenance(derived).support.size(), 1u);
  EXPECT_EQ(db.provenance(derived).support[0], base);
  EXPECT_EQ(db.provenance(base).rule_index, -1);  // Asserted.
}

TEST(DatabaseTest, RowsWithValueIndex) {
  Database db;
  for (int i = 0; i < 10; ++i) {
    db.AddFact("edge", {Value::Int(i % 3), Value::Int(i)});
  }
  const Relation* rel = db.relation("edge");
  ASSERT_NE(rel, nullptr);
  size_t verified = 0;
  for (const uint32_t r : rel->RowsWithValue(0, Value::Int(1))) {
    if (rel->row(r)[0].Equals(Value::Int(1))) ++verified;
  }
  EXPECT_EQ(verified, 3u);  // i = 1, 4, 7.
}

TEST(DatabaseTest, RowsWithValueIndexExactCount) {
  Database db;
  for (int i = 0; i < 9; ++i) {
    db.AddFact("edge", {Value::Int(i % 3), Value::Int(i)});
  }
  const Relation* rel = db.relation("edge");
  size_t verified = 0;
  for (const uint32_t r : rel->RowsWithValue(0, Value::Int(2))) {
    if (rel->row(r)[0].Equals(Value::Int(2))) ++verified;
  }
  EXPECT_EQ(verified, 3u);  // i = 2, 5, 8.
}

TEST(DatabaseTest, IndexSeesLaterInsertions) {
  Database db;
  db.AddFact("p", {Value::Int(1), Value::Int(10)});
  const Relation* rel = db.relation("p");
  EXPECT_EQ(rel->RowsWithValue(0, Value::Int(1)).size(), 1u);
  db.AddFact("p", {Value::Int(1), Value::Int(20)});
  EXPECT_EQ(rel->RowsWithValue(0, Value::Int(1)).size(), 2u);
}

TEST(DatabaseTest, FreshNullLabelsAreUnique) {
  Database db;
  const uint64_t a = db.FreshNullLabel();
  const uint64_t b = db.FreshNullLabel();
  EXPECT_NE(a, b);
}

TEST(DatabaseTest, SubstituteNullsRewritesAndMerges) {
  Database db;
  db.AddFact("cat", {Value::String("Area"), Value::Null(5)});
  db.AddFact("cat", {Value::String("Area"), Value::String("Quasi-identifier")});
  EXPECT_EQ(db.Rows("cat").size(), 2u);
  db.SubstituteNulls({{5, Value::String("Quasi-identifier")}});
  // The two facts collapse into one.
  EXPECT_EQ(db.Rows("cat").size(), 1u);
  EXPECT_TRUE(db.Contains(
      "cat", {Value::String("Area"), Value::String("Quasi-identifier")}));
}

TEST(DatabaseTest, SubstituteNullsFollowsChains) {
  Database db;
  db.AddFact("p", {Value::Null(1)});
  db.SubstituteNulls({{1, Value::Null(2)}, {2, Value::Int(9)}});
  EXPECT_TRUE(db.Contains("p", {Value::Int(9)}));
}

TEST(DatabaseTest, SubstituteNullsInsideCollections) {
  Database db;
  db.AddFact("t", {Value::Set({Value::List({Value::String("Area"), Value::Null(3)})})});
  db.SubstituteNulls({{3, Value::String("North")}});
  EXPECT_TRUE(db.Contains(
      "t", {Value::Set({Value::List({Value::String("Area"), Value::String("North")})})}));
}

TEST(DatabaseTest, PredicatesSorted) {
  Database db;
  db.AddFact("zeta", {Value::Int(1)});
  db.AddFact("alpha", {Value::Int(1)});
  const auto preds = db.Predicates();
  ASSERT_EQ(preds.size(), 2u);
  EXPECT_EQ(preds[0], "alpha");
  EXPECT_EQ(preds[1], "zeta");
}

TEST(DatabaseTest, DumpPredicateSorted) {
  Database db;
  db.AddFact("p", {Value::Int(2)});
  db.AddFact("p", {Value::Int(1)});
  EXPECT_EQ(db.DumpPredicate("p"), "p(1)\np(2)\n");
  EXPECT_EQ(db.DumpPredicate("missing"), "");
}

}  // namespace
}  // namespace vadasa::vadalog
