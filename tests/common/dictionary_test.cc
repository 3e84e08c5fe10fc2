#include "common/dictionary.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/value.h"

namespace vadasa {
namespace {

TEST(DictionaryTest, CodesAreDenseAndStableInFirstInternOrder) {
  Dictionary dict;
  const uint32_t a = dict.Intern(Value::String("a"));
  const uint32_t b = dict.Intern(Value::String("b"));
  const uint32_t c = dict.Intern(Value::Int(7));
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 1u);
  EXPECT_EQ(c, 2u);

  // Re-interning never reassigns: the code is part of the columnar contract.
  EXPECT_EQ(dict.Intern(Value::String("b")), b);
  EXPECT_EQ(dict.Intern(Value::String("a")), a);
  EXPECT_EQ(dict.num_values(), 3u);

  uint32_t code = 0;
  EXPECT_TRUE(dict.TryCode(Value::Int(7), &code));
  EXPECT_EQ(code, c);
  EXPECT_FALSE(dict.TryCode(Value::String("absent"), &code));
  EXPECT_EQ(dict.num_values(), 3u) << "TryCode must not intern";
}

TEST(DictionaryTest, CodeEqualityMatchesValueEqualsAcrossNumericKinds) {
  // Value::Equals treats Int(2) and Double(2.0) as the same term; the
  // interner must collapse them to one code or grouping on codes would
  // split groups the row plane merges.
  Dictionary dict;
  const uint32_t i2 = dict.Intern(Value::Int(2));
  const uint32_t d2 = dict.Intern(Value::Double(2.0));
  EXPECT_EQ(i2, d2);
  const uint32_t d25 = dict.Intern(Value::Double(2.5));
  EXPECT_NE(i2, d25);

  // Equality is exact: two ints that round to one double keep two codes,
  // and NaN is one value of its own, equal to no number.
  constexpr int64_t kTwo53 = int64_t{1} << 53;
  const uint32_t big = dict.Intern(Value::Int(kTwo53));
  EXPECT_NE(dict.Intern(Value::Int(kTwo53 + 1)), big);
  EXPECT_EQ(dict.Intern(Value::Double(static_cast<double>(kTwo53))), big);
  const uint32_t nan = dict.Intern(Value::Double(std::nan("")));
  EXPECT_EQ(dict.Intern(Value::Double(-std::nan(""))), nan);
  EXPECT_NE(nan, i2);
  EXPECT_NE(nan, d25);
  EXPECT_EQ(dict.num_values(), 5u);
}

TEST(DictionaryTest, NullLabelsInternIntoReservedBand) {
  Dictionary dict;
  dict.Intern(Value::String("regular"));
  const uint32_t n1 = dict.Intern(Value::Null(1));
  const uint32_t n2 = dict.Intern(Value::Null(2));
  const uint32_t n1_again = dict.Intern(Value::Null(1));

  EXPECT_TRUE(IsNullCode(n1));
  EXPECT_TRUE(IsNullCode(n2));
  EXPECT_FALSE(IsNullCode(dict.Intern(Value::String("regular"))));
  EXPECT_EQ(n1, kNullCodeBase) << "null codes are dense from the band base";
  EXPECT_EQ(n2, kNullCodeBase + 1);
  EXPECT_EQ(n1_again, n1);
  EXPECT_NE(n1, n2) << "distinct labels stay distinct: ⊥_1 != ⊥_2";
  EXPECT_EQ(dict.num_nulls(), 2u);
  EXPECT_EQ(dict.size(), 3u);
}

TEST(DictionaryTest, DecodeRoundTripsBothBands) {
  Dictionary dict;
  const uint32_t s = dict.Intern(Value::String("x"));
  const uint32_t n = dict.Intern(Value::Null(42));
  EXPECT_TRUE(dict.Decode(s).Equals(Value::String("x")));
  const Value null = dict.Decode(n);
  ASSERT_TRUE(null.is_null());
  EXPECT_EQ(null.null_label(), 42u);
}

TEST(DictionaryTest, ConcurrentInternAssignsOneCodePerValue) {
  // Hammer one dictionary from several threads over an overlapping value
  // set; every thread must observe the same value→code mapping.
  Dictionary dict;
  constexpr int kThreads = 4;
  constexpr int kValues = 200;
  std::vector<std::vector<uint32_t>> codes(kThreads,
                                           std::vector<uint32_t>(kValues));
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&dict, &codes, t] {
      for (int v = 0; v < kValues; ++v) {
        codes[t][v] = dict.Intern(Value::Int(v % 64));
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(dict.num_values(), 64u);
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(codes[t], codes[0]) << "thread " << t << " saw different codes";
  }
}

}  // namespace
}  // namespace vadasa
