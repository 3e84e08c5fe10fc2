#include "common/value.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace vadasa {
namespace {

TEST(ValueTest, KindsAndAccessors) {
  EXPECT_TRUE(Value::Null(3).is_null());
  EXPECT_EQ(Value::Null(3).null_label(), 3u);
  EXPECT_TRUE(Value::Bool(true).as_bool());
  EXPECT_EQ(Value::Int(-7).as_int(), -7);
  EXPECT_DOUBLE_EQ(Value::Double(2.5).as_double(), 2.5);
  EXPECT_EQ(Value::String("abc").as_string(), "abc");
  EXPECT_TRUE(Value().is_null());  // Default is ⊥_0.
}

TEST(ValueTest, NumericCrossKindEquality) {
  EXPECT_TRUE(Value::Int(2).Equals(Value::Double(2.0)));
  EXPECT_FALSE(Value::Int(2).Equals(Value::Double(2.5)));
  EXPECT_EQ(Value::Int(2).Compare(Value::Double(3.0)), -1);
  // Hashes must agree with the cross-kind equality.
  EXPECT_EQ(Value::Int(2).Hash(), Value::Double(2.0).Hash());
}

TEST(ValueTest, StrictNullEquality) {
  EXPECT_TRUE(Value::Null(1).Equals(Value::Null(1)));
  EXPECT_FALSE(Value::Null(1).Equals(Value::Null(2)));
  EXPECT_FALSE(Value::Null(1).Equals(Value::Int(1)));
}

TEST(ValueTest, MaybeMatchSemantics) {
  // The =⊥ relation of Section 4.3: a null matches anything.
  EXPECT_TRUE(Value::Null(1).MaybeEquals(Value::Null(2)));
  EXPECT_TRUE(Value::Null(1).MaybeEquals(Value::String("Textiles")));
  EXPECT_TRUE(Value::String("Textiles").MaybeEquals(Value::Null(9)));
  EXPECT_TRUE(Value::String("a").MaybeEquals(Value::String("a")));
  EXPECT_FALSE(Value::String("a").MaybeEquals(Value::String("b")));
}

TEST(ValueTest, SetsAreCanonical) {
  const Value a = Value::Set({Value::Int(2), Value::Int(1), Value::Int(2)});
  const Value b = Value::Set({Value::Int(1), Value::Int(2)});
  EXPECT_TRUE(a.Equals(b));
  EXPECT_EQ(a.items().size(), 2u);
  EXPECT_EQ(a.Hash(), b.Hash());
}

TEST(ValueTest, ListsPreserveOrder) {
  const Value a = Value::List({Value::Int(2), Value::Int(1)});
  const Value b = Value::List({Value::Int(1), Value::Int(2)});
  EXPECT_FALSE(a.Equals(b));
  EXPECT_EQ(a.items()[0].as_int(), 2);
}

TEST(ValueTest, TotalOrderIsConsistent) {
  constexpr int64_t kTwo53 = int64_t{1} << 53;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<Value> vals = {
      Value::Null(0),   Value::Null(5),        Value::Bool(false),
      Value::Int(-3),   Value::Double(2.5),    Value::Int(10),
      Value::String(""), Value::String("zz"),  Value::List({Value::Int(1)}),
      Value::Set({Value::Int(1), Value::Int(2)}),
      // The numeric edges: ints past 2^53 that round to one double, the
      // int64 limits, NaN, the infinities and both zeros.
      Value::Int(kTwo53), Value::Int(kTwo53 + 1), Value::Double(static_cast<double>(kTwo53)),
      Value::Int(-kTwo53 - 1), Value::Int(std::numeric_limits<int64_t>::max()),
      Value::Int(std::numeric_limits<int64_t>::min()), Value::Double(9223372036854775808.0),
      Value::Double(-9223372036854775808.0), Value::Double(std::nan("")),
      Value::Double(-std::nan("")), Value::Double(kInf), Value::Double(-kInf),
      Value::Int(0), Value::Double(0.0), Value::Double(-0.0),
  };
  for (const Value& a : vals) {
    EXPECT_EQ(a.Compare(a), 0) << a.ToString();
    for (const Value& b : vals) {
      EXPECT_EQ(a.Compare(b), -b.Compare(a)) << a.ToString() << " vs " << b.ToString();
      EXPECT_EQ(a.Equals(b), a.Compare(b) == 0) << a.ToString() << " vs " << b.ToString();
      if (a.Equals(b)) {
        EXPECT_EQ(a.Hash(), b.Hash()) << a.ToString() << " vs " << b.ToString();
      }
      for (const Value& c : vals) {
        if (a.Compare(b) < 0 && b.Compare(c) < 0) {
          EXPECT_LT(a.Compare(c), 0) << "transitivity";
        }
        if (a.Compare(b) == 0 && b.Compare(c) == 0) {
          EXPECT_EQ(a.Compare(c), 0) << "transitive equality";
        }
      }
    }
  }
}

TEST(ValueTest, IntsCompareExactly) {
  // 2^53 + 1 is the first int a double cannot hold: both ints round to 2^53.
  constexpr int64_t kTwo53 = int64_t{1} << 53;
  const Value big = Value::Int(kTwo53 + 1);
  EXPECT_FALSE(big.Equals(Value::Int(kTwo53)));
  EXPECT_GT(big.Compare(Value::Int(kTwo53)), 0);
  EXPECT_FALSE(big.Equals(Value::Double(static_cast<double>(kTwo53))));
  EXPECT_GT(big.Compare(Value::Double(static_cast<double>(kTwo53))), 0);
  EXPECT_TRUE(Value::Int(kTwo53).Equals(Value::Double(static_cast<double>(kTwo53))));

  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  EXPECT_LT(Value::Int(kMax).Compare(Value::Double(9223372036854775808.0)), 0);
  EXPECT_TRUE(Value::Int(kMin).Equals(Value::Double(-9223372036854775808.0)));
  EXPECT_LT(Value::Int(kMin).Compare(Value::Int(kMin + 1)), 0);
  EXPECT_GT(Value::Int(-2).Compare(Value::Double(-2.5)), 0);
  EXPECT_LT(Value::Int(-3).Compare(Value::Double(-2.5)), 0);

  EXPECT_TRUE(Value::Int(0).Equals(Value::Double(-0.0)));
  EXPECT_EQ(Value::Int(0).Hash(), Value::Double(-0.0).Hash());
  EXPECT_EQ(Value::Double(0.0).Hash(), Value::Double(-0.0).Hash());
}

TEST(ValueTest, NanEqualsOnlyNanAndSortsLast) {
  const Value nan = Value::Double(std::nan(""));
  EXPECT_FALSE(nan.Equals(Value::Int(3)));
  EXPECT_FALSE(nan.Equals(Value::Double(4.5)));
  EXPECT_TRUE(nan.Equals(Value::Double(-std::nan(""))));
  EXPECT_EQ(nan.Hash(), Value::Double(-std::nan("")).Hash());
  EXPECT_GT(nan.Compare(Value::Double(std::numeric_limits<double>::infinity())), 0);
  EXPECT_GT(nan.Compare(Value::Int(std::numeric_limits<int64_t>::max())), 0);
  const Value set = Value::Set({nan, Value::Double(4.5), Value::Int(3), nan});
  ASSERT_EQ(set.items().size(), 3u);
  EXPECT_EQ(set.ToString(), "{3,4.5,nan}");
}

TEST(ValueTest, LayoutIsTheKindAndOneWord) {
  EXPECT_EQ(sizeof(Value), 16u);
  // The word accessors of a payload kind read 0 and false, never its pointer.
  for (const Value& v : {Value::String("abc"), Value::List({Value::Int(5)}),
                         Value::Set({Value::Int(5)})}) {
    EXPECT_EQ(v.as_int(), 0) << v.ToString();
    EXPECT_EQ(v.as_double(), 0.0) << v.ToString();
    EXPECT_FALSE(v.as_bool()) << v.ToString();
    EXPECT_EQ(v.null_label(), 0u) << v.ToString();
  }
  // Copies share the payload.
  const Value s = Value::String("shared payload, longer than the inline buffer");
  const Value copy = s;
  EXPECT_EQ(&copy.as_string(), &s.as_string());
}

TEST(ValueTest, AssignmentFromInsideTheOwnPayload) {
  Value v = Value::List({Value::String("the only item, longer than the inline buffer")});
  v = v.items()[0];
  ASSERT_TRUE(v.is_string());
  EXPECT_EQ(v.as_string(), "the only item, longer than the inline buffer");

  Value nested = Value::Set({Value::List({Value::Int(1), Value::String("x")})});
  nested = nested.items()[0];
  EXPECT_EQ(nested.ToString(), "(1,x)");
}

TEST(ValueTest, SelfAssignmentKeepsTheValue) {
  Value v = Value::List({Value::String("kept"), Value::Int(2)});
  Value& alias = v;
  v = alias;
  EXPECT_EQ(v.ToString(), "(kept,2)");
  v = std::move(alias);
  EXPECT_EQ(v.ToString(), "(kept,2)");
  Value d = Value::Double(2.5);
  Value& d_alias = d;
  d = std::move(d_alias);
  EXPECT_EQ(d.as_double(), 2.5);
}

TEST(ValueTest, MovedFromIsNullZero) {
  Value a = Value::String("moved");
  const Value b = std::move(a);
  EXPECT_TRUE(a.is_null());  // NOLINT(bugprone-use-after-move): the contract.
  EXPECT_EQ(a.null_label(), 0u);
  EXPECT_EQ(b.as_string(), "moved");
  Value c = Value::Int(4);
  c = std::move(a);
  EXPECT_TRUE(c.is_null());
  Value d = Value::List({Value::Int(1)});
  c = std::move(d);
  EXPECT_TRUE(d.is_null());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(c.ToString(), "(1)");
}

TEST(ValueTest, ConcurrentCopiesShareOnePayload) {
  // Threads copy, assign, move and destroy Values sharing one string payload
  // and one list payload; the counts must neither lose a reference (a
  // use-after-free) nor keep one (a leak, which the leak checker reports).
  const std::string text = "a payload longer than the inline string buffer";
  {
    const Value str = Value::String(text);
    const Value list = Value::List({str, Value::Int(7)});
    constexpr int kThreads = 4;
    constexpr int kRounds = 4000;
    std::vector<std::thread> threads;
    std::vector<int> mismatches(kThreads, 0);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        std::vector<Value> held(8);
        for (int i = 0; i < kRounds; ++i) {
          Value copy = (i + t) % 2 == 0 ? str : list;
          held[static_cast<size_t>(i) % held.size()] = copy;
          Value moved = std::move(copy);
          const Value& item = moved.is_list() ? moved.items()[0] : moved;
          if (&item.as_string() != &str.as_string()) ++mismatches[static_cast<size_t>(t)];
          if (i % 500 == 499) held.assign(held.size(), Value());
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    for (int t = 0; t < kThreads; ++t) EXPECT_EQ(mismatches[static_cast<size_t>(t)], 0);
    EXPECT_EQ(str.as_string(), text);
    EXPECT_EQ(list.ToString(), "(" + text + ",7)");
  }
}

TEST(ValueTest, ToStringRendering) {
  EXPECT_EQ(Value::Null(7).ToString(), "⊥_7");
  EXPECT_EQ(Value::Int(42).ToString(), "42");
  EXPECT_EQ(Value::Bool(true).ToString(), "true");
  EXPECT_EQ(Value::String("North").ToString(), "North");
  EXPECT_EQ(Value::List({Value::Int(1), Value::String("a")}).ToString(), "(1,a)");
  EXPECT_EQ(Value::Set({Value::Int(2), Value::Int(1)}).ToString(), "{1,2}");
}

TEST(ValueTest, ToNumeric) {
  EXPECT_DOUBLE_EQ(Value::Int(3).ToNumeric().value(), 3.0);
  EXPECT_DOUBLE_EQ(Value::Double(3.5).ToNumeric().value(), 3.5);
  EXPECT_FALSE(Value::String("x").ToNumeric().ok());
  EXPECT_EQ(Value::String("x").ToNumeric().status().code(), StatusCode::kTypeError);
}

TEST(ValueTest, HashValuesDiffersByContent) {
  const size_t h1 = HashValues({Value::Int(1), Value::Int(2)});
  const size_t h2 = HashValues({Value::Int(2), Value::Int(1)});
  EXPECT_NE(h1, h2);
  EXPECT_EQ(h1, HashValues({Value::Int(1), Value::Int(2)}));
}

TEST(ValueTest, NestedCollections) {
  const Value inner = Value::Set({Value::String("a"), Value::String("b")});
  const Value outer = Value::List({inner, Value::Int(1)});
  EXPECT_TRUE(outer.items()[0].is_set());
  EXPECT_EQ(outer.ToString(), "({a,b},1)");
}

}  // namespace
}  // namespace vadasa
