#include "vadalog/lexer.h"

#include <gtest/gtest.h>

#include <cstdint>

namespace vadasa::vadalog {
namespace {

std::vector<TokenKind> Kinds(const std::string& src) {
  auto tokens = Lex(src);
  EXPECT_TRUE(tokens.ok()) << tokens.status().ToString();
  std::vector<TokenKind> kinds;
  for (const Token& t : *tokens) kinds.push_back(t.kind);
  return kinds;
}

TEST(LexerTest, BasicRule) {
  const auto kinds = Kinds("p(X) :- q(X).");
  const std::vector<TokenKind> expected = {
      TokenKind::kIdent, TokenKind::kLParen, TokenKind::kVariable, TokenKind::kRParen,
      TokenKind::kImplies, TokenKind::kIdent, TokenKind::kLParen, TokenKind::kVariable,
      TokenKind::kRParen, TokenKind::kDot, TokenKind::kEof};
  EXPECT_EQ(kinds, expected);
}

TEST(LexerTest, VariablesVsConstants) {
  auto tokens = Lex("Foo foo _bar BAR");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].kind, TokenKind::kVariable);
  EXPECT_EQ((*tokens)[1].kind, TokenKind::kIdent);
  EXPECT_EQ((*tokens)[2].kind, TokenKind::kVariable);  // '_' starts a variable.
  EXPECT_EQ((*tokens)[3].kind, TokenKind::kVariable);
}

TEST(LexerTest, Numbers) {
  auto tokens = Lex("42 3.25 1e3 7 9223372036854775807");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].kind, TokenKind::kInt);
  EXPECT_EQ((*tokens)[0].int_value, 42);
  EXPECT_EQ((*tokens)[1].kind, TokenKind::kDouble);
  EXPECT_DOUBLE_EQ((*tokens)[1].double_value, 3.25);
  EXPECT_EQ((*tokens)[2].kind, TokenKind::kDouble);
  EXPECT_DOUBLE_EQ((*tokens)[2].double_value, 1000.0);
  EXPECT_EQ((*tokens)[3].int_value, 7);
  EXPECT_EQ((*tokens)[4].int_value, INT64_MAX);
}

TEST(LexerTest, OutOfRangeNumbersFail) {
  for (const char* source : {"p(9223372036854775808).", "q(99999999999999999999).",
                             "r(1e400)."}) {
    auto tokens = Lex(source);
    EXPECT_EQ(tokens.status().code(), StatusCode::kParseError) << source;
    EXPECT_NE(tokens.status().message().find("out of range"), std::string::npos)
        << source << ": " << tokens.status().ToString();
  }
}

TEST(LexerTest, StringsWithEscapes) {
  auto tokens = Lex(R"("I&G" "a\"b" "tab\there")");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].text, "I&G");
  EXPECT_EQ((*tokens)[1].text, "a\"b");
  EXPECT_EQ((*tokens)[2].text, "tab\there");
}

TEST(LexerTest, UnterminatedStringFails) {
  EXPECT_EQ(Lex("\"oops").status().code(), StatusCode::kParseError);
}

TEST(LexerTest, ExternalPredicates) {
  auto tokens = Lex("#risk(I, R)");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].kind, TokenKind::kExternal);
  EXPECT_EQ((*tokens)[0].text, "risk");
}

TEST(LexerTest, BareHashFails) {
  EXPECT_EQ(Lex("# risk").status().code(), StatusCode::kParseError);
}

TEST(LexerTest, Comments) {
  const auto kinds = Kinds("p(a). % trailing comment\n// full line\nq(b).");
  size_t idents = 0;
  for (const TokenKind k : kinds) {
    if (k == TokenKind::kIdent) ++idents;
  }
  EXPECT_EQ(idents, 4u);  // p, a, q, b — comments dropped.
}

TEST(LexerTest, ComparisonOperators) {
  const auto kinds = Kinds("< <= > >= == != =");
  const std::vector<TokenKind> expected = {
      TokenKind::kLt, TokenKind::kLe, TokenKind::kGt, TokenKind::kGe,
      TokenKind::kEq, TokenKind::kNe, TokenKind::kAssign, TokenKind::kEof};
  EXPECT_EQ(kinds, expected);
}

TEST(LexerTest, TracksLineNumbers) {
  auto tokens = Lex("p(a).\nq(b).\n\nr(c).");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].line, 1);
  EXPECT_EQ((*tokens)[5].line, 2);   // q
  EXPECT_EQ((*tokens)[10].line, 4);  // r
}

TEST(LexerTest, UnexpectedCharacterFails) {
  EXPECT_EQ(Lex("p(a) ? q(b)").status().code(), StatusCode::kParseError);
}

}  // namespace
}  // namespace vadasa::vadalog
