#include "common/string_util.h"

#include <gtest/gtest.h>

#include <cctype>
#include <string>

namespace vadasa {
namespace {

TEST(StringUtilTest, Trim) {
  EXPECT_EQ(Trim("  a b \t\n"), "a b");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim("x"), "x");
}

TEST(StringUtilTest, ToLower) {
  EXPECT_EQ(ToLower("Residential Rev."), "residential rev.");
  EXPECT_EQ(ToLower(""), "");
}

TEST(StringUtilTest, SplitKeepsEmptyFields) {
  const auto parts = Split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(StringUtilTest, SplitWhitespaceDropsEmpty) {
  const auto parts = SplitWhitespace("  alpha\tbeta  gamma ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[2], "gamma");
}

TEST(StringUtilTest, Join) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"x"}, ","), "x");
}

TEST(StringUtilTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("NULL_12", "NULL_"));
  EXPECT_FALSE(StartsWith("NUL", "NULL_"));
  EXPECT_TRUE(EndsWith("risk.vada", ".vada"));
  EXPECT_FALSE(EndsWith("vada", ".vada"));
}

TEST(StringUtilTest, TrimViewTrimsWhatIsspaceTrimsInTheCLocale) {
  for (int c = 0; c < 256; ++c) {
    const char byte = static_cast<char>(c);
    const bool space = std::isspace(static_cast<unsigned char>(byte)) != 0;
    EXPECT_EQ(IsAsciiSpace(byte), space) << "byte " << c;
    const std::string padded = std::string(1, byte) + "x" + byte;
    EXPECT_EQ(TrimView(padded), space ? "x" : padded) << "byte " << c;
  }
}

}  // namespace
}  // namespace vadasa
