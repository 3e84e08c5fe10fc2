#include "testing/generators.h"

#include <gtest/gtest.h>

#include <set>

#include "common/csv.h"
#include "core/microdata.h"
#include "vadalog/parser.h"

namespace vadasa::testing {
namespace {

using core::AttributeCategory;

TEST(RandomTableTest, DeterministicInSeed) {
  Rng a(42), b(42);
  const auto ta = RandomTable(&a);
  const auto tb = RandomTable(&b);
  EXPECT_EQ(WriteCsv(ta.ToCsv()), WriteCsv(tb.ToCsv()));
}

TEST(RandomTableTest, RespectsShapeBounds) {
  TableGenOptions options;
  options.min_rows = 3;
  options.max_rows = 9;
  options.min_qi = 2;
  options.max_qi = 4;
  Rng rng(7);
  for (int i = 0; i < 50; ++i) {
    const auto table = RandomTable(&rng, options);
    EXPECT_GE(table.num_rows(), 3u);
    EXPECT_LE(table.num_rows(), 9u);
    const size_t qis = table.QuasiIdentifierColumns().size();
    EXPECT_GE(qis, 2u);
    EXPECT_LE(qis, 4u);
    EXPECT_EQ(table.ColumnsWithCategory(AttributeCategory::kIdentifier).size(), 1u);
    EXPECT_EQ(table.ColumnsWithCategory(AttributeCategory::kWeight).size(), 1u);
  }
}

TEST(RandomTableTest, OptionalColumnsCanBeDisabled) {
  TableGenOptions options;
  options.with_identifier = false;
  options.with_weight = false;
  options.with_non_identifying = false;
  Rng rng(11);
  const auto table = RandomTable(&rng, options);
  EXPECT_TRUE(table.ColumnsWithCategory(AttributeCategory::kIdentifier).empty());
  EXPECT_TRUE(table.ColumnsWithCategory(AttributeCategory::kWeight).empty());
  EXPECT_EQ(table.QuasiIdentifierColumns().size(), table.num_columns());
}

TEST(RandomTableTest, NullLabelsAreDistinct) {
  TableGenOptions options;
  options.null_probability = 0.5;
  options.duplicate_probability = 0.0;  // Duplicates legitimately share labels.
  options.min_rows = 20;
  options.max_rows = 20;
  Rng rng(3);
  const auto table = RandomTable(&rng, options);
  std::set<uint64_t> labels;
  size_t nulls = 0;
  for (size_t r = 0; r < table.num_rows(); ++r) {
    for (const size_t c : table.QuasiIdentifierColumns()) {
      if (table.cell(r, c).is_null()) {
        ++nulls;
        labels.insert(table.cell(r, c).null_label());
      }
    }
  }
  EXPECT_GT(nulls, 0u);
  EXPECT_EQ(labels.size(), nulls) << "pre-suppressed cells must carry fresh labels";
}

TEST(RandomHierarchyTest, CoversStringQiValues) {
  Rng rng(5);
  const auto table = RandomTable(&rng);
  const auto hierarchy = RandomHierarchy(&rng, table);
  for (const size_t c : table.QuasiIdentifierColumns()) {
    std::set<std::string> values;
    for (size_t r = 0; r < table.num_rows(); ++r) {
      if (table.cell(r, c).is_string()) values.insert(table.cell(r, c).as_string());
    }
    if (values.size() < 2) continue;  // Too few values to fold.
    for (const std::string& v : values) {
      EXPECT_TRUE(
          hierarchy.CanGeneralize(table.attributes()[c].name, Value::String(v)))
          << table.attributes()[c].name << "=" << v;
    }
  }
}

TEST(RandomOwnershipGraphTest, DeterministicAndClusterable) {
  Rng a(9), b(9);
  const auto table = RandomTable(&a);
  Rng a2(13), b2(13);
  const auto ga = RandomOwnershipGraph(&a2, table);
  const auto gb = RandomOwnershipGraph(&b2, table);
  EXPECT_EQ(ga.ComputeClusters().size(), gb.ComputeClusters().size());
}

TEST(RandomProgramTest, AlwaysParses) {
  Rng rng(17);
  for (int i = 0; i < 100; ++i) {
    const std::string src = RandomVadalogProgram(&rng);
    const auto program = vadalog::Parse(src);
    ASSERT_TRUE(program.ok()) << program.status().ToString() << "\n" << src;
  }
}

TEST(RandomProgramTest, PositiveFragmentStaysPositive) {
  ProgramGenOptions options;
  options.positive_fragment_only = true;
  Rng rng(23);
  for (int i = 0; i < 50; ++i) {
    const std::string src = RandomVadalogProgram(&rng, options);
    EXPECT_EQ(src.find("not "), std::string::npos) << src;
    EXPECT_EQ(src.find("mcount"), std::string::npos) << src;
    EXPECT_EQ(src.find("E0"), std::string::npos) << src;
    EXPECT_EQ(src.find("Z1 = Z2"), std::string::npos) << src;
  }
}

TEST(RandomNoiseTest, DeterministicInSeed) {
  Rng a(31), b(31);
  EXPECT_EQ(RandomTokenSoup(&a), RandomTokenSoup(&b));
  EXPECT_EQ(RandomBytes(&a), RandomBytes(&b));
}

}  // namespace
}  // namespace vadasa::testing
