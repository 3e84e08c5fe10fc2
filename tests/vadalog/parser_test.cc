#include "vadalog/parser.h"

#include <gtest/gtest.h>

#include <cstdint>

namespace vadasa::vadalog {
namespace {

Program MustParse(const std::string& src) {
  auto p = Parse(src);
  EXPECT_TRUE(p.ok()) << p.status().ToString();
  return p.ok() ? *p : Program{};
}

TEST(ParserTest, FactsAndRules) {
  const Program p = MustParse("edge(a, b).\nedge(b, c).\npath(X,Y) :- edge(X,Y).");
  EXPECT_EQ(p.facts.size(), 2u);
  EXPECT_EQ(p.rules.size(), 1u);
  EXPECT_EQ(p.facts[0].predicate, "edge");
  EXPECT_TRUE(p.facts[0].args[0].constant.is_string());
  EXPECT_EQ(p.rules[0].head[0].predicate, "path");
}

TEST(ParserTest, TypedFactArguments) {
  const Program p = MustParse("w(\"I&G\", 1, 2.5, -3, true, -9223372036854775807).");
  ASSERT_EQ(p.facts.size(), 1u);
  const auto& args = p.facts[0].args;
  EXPECT_EQ(args[0].constant.as_string(), "I&G");
  EXPECT_EQ(args[1].constant.as_int(), 1);
  EXPECT_DOUBLE_EQ(args[2].constant.as_double(), 2.5);
  EXPECT_EQ(args[3].constant.as_int(), -3);
  EXPECT_TRUE(args[4].constant.as_bool());
  EXPECT_EQ(args[5].constant.as_int(), -INT64_MAX);
}

TEST(ParserTest, NegationAndConditions) {
  const Program p = MustParse("safe(X) :- tuple(X, V), not risky(X), V >= 10.");
  ASSERT_EQ(p.rules.size(), 1u);
  const Rule& r = p.rules[0];
  ASSERT_EQ(r.body.size(), 2u);
  EXPECT_FALSE(r.body[0].negated);
  EXPECT_TRUE(r.body[1].negated);
  ASSERT_EQ(r.conditions.size(), 1u);
  EXPECT_EQ(r.conditions[0].op, CompareOp::kGe);
}

TEST(ParserTest, AssignmentsAndExpressions) {
  const Program p = MustParse("out(X, R) :- in(X, W), R = 1 / (W + 2) * 3.");
  ASSERT_EQ(p.rules.size(), 1u);
  ASSERT_EQ(p.rules[0].assignments.size(), 1u);
  EXPECT_EQ(p.rules[0].assignments[0].target, "R");
  // Precedence: 1/(W+2) then *3.
  EXPECT_EQ(p.rules[0].assignments[0].expr->ToString(), "((1 / (W + 2)) * 3)");
}

TEST(ParserTest, AggregatesWithContributors) {
  const Program p = MustParse(
      "total(G, S) :- item(G, I, W), S = msum(W, <I>).\n"
      "cnt(G, N) :- item(G, I, W), N = mcount(<I>).\n"
      "all(G, U) :- item(G, I, W), U = munion(pair(I, W), <>).");
  ASSERT_EQ(p.rules.size(), 3u);
  EXPECT_EQ(p.rules[0].aggregates[0].func, AggregateFunc::kSum);
  ASSERT_TRUE(p.rules[0].aggregates[0].value != nullptr);
  EXPECT_EQ(p.rules[0].aggregates[0].contributors.size(), 1u);
  EXPECT_EQ(p.rules[1].aggregates[0].func, AggregateFunc::kCount);
  EXPECT_TRUE(p.rules[1].aggregates[0].value == nullptr);
  EXPECT_EQ(p.rules[2].aggregates[0].func, AggregateFunc::kUnion);
  EXPECT_TRUE(p.rules[2].aggregates[0].contributors.empty());
}

TEST(ParserTest, SumWithoutValueFails) {
  EXPECT_FALSE(Parse("t(G,S) :- i(G,W), S = msum(<G>).").ok());
}

TEST(ParserTest, EgdHead) {
  const Program p = MustParse("C1 = C2 :- cat(M, A, C1), cat(M, A, C2).");
  ASSERT_EQ(p.rules.size(), 1u);
  EXPECT_TRUE(p.rules[0].is_egd);
  EXPECT_EQ(p.rules[0].egd_lhs, "C1");
  EXPECT_EQ(p.rules[0].egd_rhs, "C2");
  EXPECT_TRUE(p.rules[0].head.empty());
}

TEST(ParserTest, MultiAtomHead) {
  const Program p = MustParse("a(X), b(X) :- c(X).");
  ASSERT_EQ(p.rules.size(), 1u);
  EXPECT_EQ(p.rules[0].head.size(), 2u);
}

TEST(ParserTest, ExternalAtoms) {
  const Program p = MustParse("#anonymize(I) :- t(I, V), #risk(I, R), R > 0.5.");
  const Rule& r = p.rules[0];
  EXPECT_TRUE(r.head[0].is_external());
  EXPECT_EQ(r.head[0].predicate, "#anonymize");
  EXPECT_TRUE(r.body[1].atom.is_external());
}

TEST(ParserTest, Annotations) {
  const Program p = MustParse("@input(\"edge\").\n@output(\"path\").\npath(X,Y) :- edge(X,Y).");
  ASSERT_EQ(p.inputs.size(), 1u);
  ASSERT_EQ(p.outputs.size(), 1u);
  EXPECT_EQ(p.inputs[0], "edge");
  EXPECT_EQ(p.outputs[0], "path");
}

TEST(ParserTest, UnknownAnnotationFails) {
  EXPECT_FALSE(Parse("@magic(\"x\").").ok());
}

TEST(ParserTest, NonGroundFactFails) {
  EXPECT_FALSE(Parse("p(X).").ok());
}

TEST(ParserTest, InAndSubsetConditions) {
  const Program p =
      MustParse("r(X) :- s(X, S), X in S.\nq(A) :- t(A, S1, S2), S1 subset S2.");
  EXPECT_EQ(p.rules[0].conditions[0].op, CompareOp::kIn);
  EXPECT_EQ(p.rules[1].conditions[0].op, CompareOp::kSubset);
}

TEST(ParserTest, RoundTripToString) {
  const std::string src = "path(X,Z) :- path(X,Y), edge(Y,Z), not blocked(Y,Z).";
  const Program p1 = MustParse(src);
  const Program p2 = MustParse(p1.ToString());
  EXPECT_EQ(p1.ToString(), p2.ToString());
}

TEST(ParserTest, ParseFactHelper) {
  auto atom = ParseFact("att(\"I&G\", \"Area\")");
  ASSERT_TRUE(atom.ok());
  EXPECT_EQ(atom->predicate, "att");
  EXPECT_EQ(atom->args[1].constant.as_string(), "Area");
  EXPECT_FALSE(ParseFact("att(X)").ok());
}

TEST(ParserTest, MissingDotFails) {
  EXPECT_FALSE(Parse("p(a)").ok());
  EXPECT_FALSE(Parse("p(X) :- q(X)").ok());
}

TEST(ParserTest, ExistentialHeadVariableParses) {
  // Head variable Z not bound in the body: existential quantification.
  const Program p = MustParse("person(X, Z) :- name(X).");
  EXPECT_EQ(p.rules.size(), 1u);
}

}  // namespace
}  // namespace vadasa::vadalog
