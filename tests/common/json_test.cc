#include "common/json.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"

namespace vadasa {
namespace {

TEST(JsonTest, ParsesScalars) {
  EXPECT_TRUE(Json::Parse("null")->is_null());
  EXPECT_TRUE(Json::Parse("true")->AsBool());
  EXPECT_FALSE(Json::Parse("false")->AsBool(true));
  EXPECT_DOUBLE_EQ(Json::Parse("3.25")->AsDouble(), 3.25);
  EXPECT_EQ(Json::Parse("-17")->AsInt(), -17);
  EXPECT_DOUBLE_EQ(Json::Parse("1e3")->AsDouble(), 1000.0);
  EXPECT_EQ(Json::Parse("\"hi\"")->AsString(), "hi");
}

TEST(JsonTest, ParsesNestedStructures) {
  auto doc = Json::Parse(R"({"op":"submit","k":2,"tags":["a","b"],"inner":{"x":true}})");
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc->GetString("op", ""), "submit");
  EXPECT_EQ(doc->GetInt("k", 0), 2);
  EXPECT_EQ((*doc)["tags"].AsArray().size(), 2u);
  EXPECT_EQ((*doc)["tags"].AsArray()[1].AsString(), "b");
  EXPECT_TRUE((*doc)["inner"].GetBool("x", false));
  EXPECT_FALSE(doc->Has("missing"));
  EXPECT_TRUE((*doc)["missing"].is_null());
}

TEST(JsonTest, DecodesStringEscapes) {
  auto doc = Json::Parse(R"("a\"b\\c\nd\u0041\u00e9")");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->AsString(), "a\"b\\c\ndA\xc3\xa9");
}

TEST(JsonTest, DecodesSurrogatePairs) {
  auto doc = Json::Parse(R"("\ud83d\ude00")");  // 😀 U+1F600
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->AsString(), "\xf0\x9f\x98\x80");
}

TEST(JsonTest, RejectsMalformedDocuments) {
  for (const char* bad :
       {"", "{", "[1,]", "{\"a\":}", "nul", "01", "1.", "+1", "\"unterminated",
        "{\"a\":1} trailing", "\"bad\\escape\"", "[1 2]", "{\"a\" 1}",
        "{1:2}"}) {
    auto doc = Json::Parse(bad);
    EXPECT_FALSE(doc.ok()) << "should reject: " << bad;
    if (!doc.ok()) {
      EXPECT_EQ(doc.status().code(), StatusCode::kParseError) << bad;
    }
  }
}

TEST(JsonTest, RejectsExcessiveNesting) {
  std::string deep(200, '[');
  deep += std::string(200, ']');
  EXPECT_FALSE(Json::Parse(deep).ok());
}

TEST(JsonTest, DumpParseRoundTrip) {
  Json::Object object;
  object["s"] = "quote\" slash\\ newline\n";
  object["n"] = 1.5;
  object["b"] = true;
  object["z"] = nullptr;
  object["arr"] = Json::Array{Json(1), Json("two"), Json(false)};
  const Json original{std::move(object)};
  auto reparsed = Json::Parse(original.Dump());
  ASSERT_TRUE(reparsed.ok()) << original.Dump();
  EXPECT_EQ(reparsed->Dump(), original.Dump());
  EXPECT_EQ(reparsed->GetString("s", ""), "quote\" slash\\ newline\n");
}

TEST(JsonTest, IntegersDumpWithoutExponent) {
  // Job ids travel as JSON numbers; they must survive a round trip exactly.
  Json::Object object;
  object["id"] = static_cast<uint64_t>(123456789);
  const std::string text = Json(std::move(object)).Dump();
  auto doc = Json::Parse(text);
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->GetInt("id", 0), 123456789);
}

TEST(JsonTest, AsIntSaturatesAndIsIntegerInChecksRange) {
  const double two63 = 9223372036854775808.0;
  EXPECT_EQ(Json(1e19).AsInt(), std::numeric_limits<int64_t>::max());
  EXPECT_EQ(Json(two63).AsInt(), std::numeric_limits<int64_t>::max());
  EXPECT_EQ(Json(-two63).AsInt(), std::numeric_limits<int64_t>::min());
  EXPECT_EQ(Json(-1e300).AsInt(), std::numeric_limits<int64_t>::min());
  EXPECT_EQ(Json(std::nextafter(two63, 0.0)).AsInt(),
            static_cast<int64_t>(std::nextafter(two63, 0.0)));
  EXPECT_EQ(Json(-1.9).AsInt(), -1);
  EXPECT_EQ(Json(std::nan("")).AsInt(7), 7);
  EXPECT_EQ(Json("3").AsInt(7), 7);
  auto infinite = Json::Parse("1e400");
  ASSERT_TRUE(infinite.ok());
  EXPECT_EQ(infinite->AsInt(), std::numeric_limits<int64_t>::max());
  EXPECT_FALSE(infinite->IsIntegerIn(0, int64_t{1} << 53));

  EXPECT_TRUE(Json(4294967295.0).IsIntegerIn(0, 4294967295));
  EXPECT_FALSE(Json(4294967296.0).IsIntegerIn(0, 4294967295));
  EXPECT_FALSE(Json(1.9).IsIntegerIn(0, 10));
  EXPECT_FALSE(Json(-1.0).IsIntegerIn(0, 10));
  EXPECT_TRUE(Json(-0.0).IsIntegerIn(0, 10));
  EXPECT_FALSE(Json("1").IsIntegerIn(0, 10));
  EXPECT_FALSE(Json(std::nan("")).IsIntegerIn(0, 10));
}

TEST(JsonTest, HugeNumbersDumpAndParseBack) {
  // Finite numbers at or past 2^63 dump with %.17g (their int64 cast would be
  // undefined) and parse back to themselves.
  for (const double d : {1e19, -1e19, 9223372036854775808.0, 1e300, 1e15, -1e15}) {
    const std::string text = Json(d).Dump();
    auto back = Json::Parse(text);
    ASSERT_TRUE(back.ok()) << text;
    EXPECT_EQ(back->AsDouble(), d) << text;
    EXPECT_EQ(back->Dump(), text);
  }
  EXPECT_EQ(Json(123456789012345.0).Dump(), "123456789012345");
}

TEST(JsonTest, JsonQuoteEscapesControlCharacters) {
  EXPECT_EQ(JsonQuote("a\tb"), "\"a\\tb\"");
  EXPECT_EQ(JsonQuote(std::string(1, '\x01')), "\"\\u0001\"");
}

TEST(JsonTest, EscapesAtTheEdgesOfAStringRoundTrip) {
  // An escape as the first byte, as the last, two side by side, and a string
  // of escapes only, each quoted to known bytes and parsed back whole.
  const std::pair<std::string, std::string> cases[] = {
      {"\"quoted", R"("\"quoted")"},
      {"\nline", R"("\nline")"},
      {"line\n", R"("line\n")"},
      {std::string("end\x1f"), R"("end\u001f")"},
      {"a\\\"b", R"("a\\\"b")"},
      {"a\r\n\tb", R"("a\r\n\tb")"},
      {std::string("\"\\\b\f\n\r\t\x01\x00", 9), R"("\"\\\b\f\n\r\t\u0001\u0000")"},
      {"", R"("")"},
  };
  for (const auto& [raw, quoted] : cases) {
    EXPECT_EQ(JsonQuote(raw), quoted);
    std::string escaped = "x";
    AppendJsonEscaped(&escaped, raw);
    EXPECT_EQ(escaped, "x" + quoted.substr(1, quoted.size() - 2));
    auto back = Json::Parse(quoted);
    ASSERT_TRUE(back.ok()) << quoted;
    EXPECT_EQ(back->AsString(), raw) << quoted;
  }
  // Escapes the writer never produces parse the same at either edge.
  auto parsed = Json::Parse(R"("\/\u00e9x\u0041")");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->AsString(), "/\xc3\xa9xA");
}

/// What AppendJsonNumber wrote when it called snprintf.
std::string PrintfNumber(double d) {
  if (!std::isfinite(d)) return "null";
  char buf[40];
  if (std::fabs(d) < 1e15 && d == std::trunc(d)) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(d));
  } else {
    std::snprintf(buf, sizeof(buf), "%.17g", d);
  }
  return buf;
}

TEST(JsonTest, NumbersKeepPrintfBytes) {
  // More than a million seeded doubles: random bit patterns, risks in [0,1),
  // integers around 1e15 and 2^53 on both sides, subnormals, -0.0 and the
  // non-finite values.
  Rng rng(7);
  std::vector<double> numbers = {0.0, -0.0, 1.0, -1.0, 0.5, 1e15, -1e15,
                                 std::nextafter(1e15, 0.0), std::nextafter(-1e15, 0.0),
                                 9007199254740992.0, -9007199254740992.0, 1e300, 5e-324,
                                 std::numeric_limits<double>::max(),
                                 std::numeric_limits<double>::denorm_min(),
                                 HUGE_VAL, -HUGE_VAL, std::nan("")};
  constexpr int kRounds = 210000;
  numbers.reserve(numbers.size() + 5 * kRounds);
  for (int i = 0; i < kRounds; ++i) {
    const uint64_t bits = rng.Next();
    double random_bits = 0;
    std::memcpy(&random_bits, &bits, sizeof(random_bits));
    numbers.push_back(random_bits);
    numbers.push_back(rng.NextDouble());
    const double anchor = (i % 2 == 0 ? 1e15 : 9007199254740992.0) * (i % 4 < 2 ? 1 : -1);
    numbers.push_back(anchor + static_cast<double>(rng.NextInt(-1000, 1000)));
    numbers.push_back(static_cast<double>(rng.NextInt(-1000000, 1000000)));
    const uint64_t subnormal_bits = rng.Next() & ((uint64_t{1} << 52) - 1);
    double subnormal = 0;
    std::memcpy(&subnormal, &subnormal_bits, sizeof(subnormal));
    numbers.push_back(i % 2 == 0 ? subnormal : -subnormal);
  }
  ASSERT_GE(numbers.size(), 1000000u);
  size_t differ = 0;
  std::string out;
  for (const double d : numbers) {
    out.clear();
    AppendJsonNumber(&out, d);
    if (out != PrintfNumber(d) && ++differ <= 5) {
      ADD_FAILURE() << "AppendJsonNumber wrote " << out << " where printf writes "
                    << PrintfNumber(d);
    }
  }
  EXPECT_EQ(differ, 0u) << "of " << numbers.size();
}

}  // namespace
}  // namespace vadasa
