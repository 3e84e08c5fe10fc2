#include "api/flags.h"

#include <gtest/gtest.h>

namespace vadasa::api {
namespace {

FlagParser TestParser() {
  FlagParser parser;
  parser.Bool("verbose", "chatty output")
      .String("measure", "risk measure")
      .Path("trace", "trace output path")
      .Int("k", "anonymity parameter", 1, 100)
      .Double("threshold", "risk threshold", 0.0, 1.0);
  return parser;
}

TEST(FlagParserTest, ParsesBothSpellings) {
  const auto parsed = TestParser().Parse(
      {"--measure=suda", "--k", "5", "in.csv", "--verbose", "out.csv"});
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->GetString("measure", ""), "suda");
  EXPECT_EQ(parsed->GetInt("k", 0), 5);
  EXPECT_TRUE(parsed->GetBool("verbose"));
  EXPECT_EQ(parsed->positional(),
            (std::vector<std::string>{"in.csv", "out.csv"}));
}

TEST(FlagParserTest, RejectsUnknownFlag) {
  const auto parsed = TestParser().Parse({"--bogus"});
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
}

TEST(FlagParserTest, RejectsMalformedNumbers) {
  for (const auto& args : std::vector<std::vector<std::string>>{
           {"--k", "five"},
           {"--k", "5x"},
           {"--k", ""},
           {"--k", "999999999999999999999"},
           {"--k", " 12"},
           {"--k", "\t7"},
           {"--threshold", "0.5abc"},
           {"--threshold", " 0.5"},
           {"--threshold", "nan"}}) {
    const auto parsed = TestParser().Parse(args);
    EXPECT_FALSE(parsed.ok()) << args[0] << "=" << args[1];
  }
}

TEST(FlagParserTest, EnforcesRanges) {
  EXPECT_FALSE(TestParser().Parse({"--k", "0"}).ok());
  EXPECT_FALSE(TestParser().Parse({"--k", "101"}).ok());
  EXPECT_FALSE(TestParser().Parse({"--threshold", "1.5"}).ok());
  EXPECT_FALSE(TestParser().Parse({"--threshold", "-0.1"}).ok());
  EXPECT_TRUE(TestParser().Parse({"--threshold", "1.0"}).ok());
}

TEST(FlagParserTest, PathFlagRejectsEmptyValue) {
  // `--trace=` must be a loud usage error, not a silently disabled export.
  EXPECT_FALSE(TestParser().Parse({"--trace="}).ok());
  EXPECT_TRUE(TestParser().Parse({"--trace=out.json"}).ok());
}

TEST(FlagParserTest, BoolFlagTakesNoValue) {
  EXPECT_FALSE(TestParser().Parse({"--verbose=1"}).ok());
}

TEST(FlagParserTest, MissingValueFails) {
  EXPECT_FALSE(TestParser().Parse({"--measure"}).ok());
}

TEST(FlagParserTest, DoubleDashEndsFlags) {
  const auto parsed = TestParser().Parse({"--k=2", "--", "--not-a-flag"});
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->positional(),
            (std::vector<std::string>{"--not-a-flag"}));
}

TEST(FlagParserTest, GetAllKeepsRepeats) {
  FlagParser parser;
  parser.Path("repro", "repro file");
  const auto parsed = parser.Parse({"--repro=a", "--repro=b", "--repro=c"});
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->GetAll("repro"),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(parsed->GetString("repro", ""), "c");  // Last one wins.
}

TEST(FlagParserTest, HelpListsEveryFlag) {
  const std::string help = TestParser().Help();
  for (const char* name : {"--verbose", "--measure", "--trace", "--k",
                           "--threshold"}) {
    EXPECT_NE(help.find(name), std::string::npos) << name;
  }
}

}  // namespace
}  // namespace vadasa::api
