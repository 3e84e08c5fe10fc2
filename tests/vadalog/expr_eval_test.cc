#include "vadalog/expr_eval.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <map>

#include "vadalog/parser.h"

namespace vadasa::vadalog {
namespace {

/// Parses `target = <expr>` inside a dummy rule and evaluates the expression
/// against a variable map.
Result<Value> Eval(const std::string& expr_src,
                   const std::map<std::string, Value>& vars = {}) {
  auto program = Parse("out(R) :- dummy(X, Y, S, P), R = " + expr_src + ".");
  if (!program.ok()) return program.status();
  if (program->rules.empty() || program->rules[0].assignments.empty()) {
    return Status::Internal("no assignment parsed");
  }
  VarLookup lookup = [&vars](const std::string& name) -> const Value* {
    auto it = vars.find(name);
    return it == vars.end() ? nullptr : &it->second;
  };
  return EvalExpr(*program->rules[0].assignments[0].expr, lookup);
}

TEST(ExprEvalTest, Arithmetic) {
  EXPECT_EQ(Eval("1 + 2 * 3")->as_int(), 7);
  EXPECT_DOUBLE_EQ(Eval("7 / 2")->as_double(), 3.5);
  EXPECT_EQ(Eval("-(3 + 4)")->as_int(), -7);
  EXPECT_EQ(Eval("mod(7, 3)")->as_int(), 1);
  EXPECT_FALSE(Eval("1 / 0").ok());
  EXPECT_FALSE(Eval("mod(1, 0)").ok());
}

TEST(ExprEvalTest, IntDoublePromotion) {
  EXPECT_TRUE(Eval("1 + 2")->is_int());
  EXPECT_TRUE(Eval("1 + 2.0")->is_double());
}

TEST(ExprEvalTest, Variables) {
  EXPECT_DOUBLE_EQ(Eval("X * 2", {{"X", Value::Double(1.5)}})->as_double(), 3.0);
  const auto unbound = Eval("X + 1");
  EXPECT_FALSE(unbound.ok());
  EXPECT_EQ(unbound.status().code(), StatusCode::kFailedPrecondition);
}

TEST(ExprEvalTest, StringFunctions) {
  EXPECT_EQ(Eval("concat(\"a\", 1, \"b\")")->as_string(), "a1b");
  EXPECT_EQ(Eval("lower(\"NoRTH\")")->as_string(), "north");
  EXPECT_EQ(Eval("upper(\"abc\")")->as_string(), "ABC");
  EXPECT_EQ(Eval("strlen(\"abcd\")")->as_int(), 4);
  EXPECT_DOUBLE_EQ(Eval("similarity(\"area\", \"area\")")->as_double(), 1.0);
}

TEST(ExprEvalTest, LogicFunctions) {
  EXPECT_TRUE(Eval("lt(1, 2)")->as_bool());
  EXPECT_FALSE(Eval("gt(1, 2)")->as_bool());
  EXPECT_TRUE(Eval("and(lt(1,2), ge(2,2))")->as_bool());
  EXPECT_TRUE(Eval("or(eq(1,2), ne(1,2))")->as_bool());
  EXPECT_TRUE(Eval("not(eq(1,2))")->as_bool());
  // The paper's "case R1 < k then 1 else 0" shape:
  EXPECT_EQ(Eval("if(lt(1, 2), 1, 0)")->as_int(), 1);
  EXPECT_EQ(Eval("if(lt(3, 2), 1, 0)")->as_int(), 0);
  EXPECT_FALSE(Eval("if(1, 2, 3)").ok());  // Condition must be boolean.
}

TEST(ExprEvalTest, MathFunctions) {
  EXPECT_EQ(Eval("abs(-4)")->as_int(), 4);
  EXPECT_EQ(Eval("min(3, 5)")->as_int(), 3);
  EXPECT_EQ(Eval("max(3, 5)")->as_int(), 5);
  EXPECT_DOUBLE_EQ(Eval("sqrt(16)")->as_double(), 4.0);
  EXPECT_EQ(Eval("floor(2.7)")->as_int(), 2);
  EXPECT_EQ(Eval("ceil(2.2)")->as_int(), 3);
  EXPECT_EQ(Eval("round(2.5)")->as_int(), 3);
  EXPECT_FALSE(Eval("sqrt(-1)").ok());
}

TEST(ExprEvalTest, CollectionsBasics) {
  EXPECT_EQ(Eval("size(set(1, 2, 2, 3))")->as_int(), 3);
  EXPECT_EQ(Eval("size(list(1, 2, 2))")->as_int(), 3);
  EXPECT_TRUE(Eval("contains(set(1,2), 2)")->as_bool());
  EXPECT_FALSE(Eval("contains(set(1,2), 5)")->as_bool());
  EXPECT_EQ(Eval("size(union(set(1,2), set(2,3)))")->as_int(), 3);
  EXPECT_EQ(Eval("size(intersection(set(1,2), set(2,3)))")->as_int(), 1);
  EXPECT_EQ(Eval("size(difference(set(1,2,3), set(2)))")->as_int(), 2);
}

TEST(ExprEvalTest, PairsetOperations) {
  // VSet-style pairsets: the access operator VSet[A] of the paper maps to
  // get(VSet, A), projection to project(VSet, keyset).
  const std::string vset = "set(pair(\"Area\",\"North\"), pair(\"Sector\",\"Textiles\"))";
  EXPECT_EQ(Eval("get(" + vset + ", \"Area\")")->as_string(), "North");
  EXPECT_FALSE(Eval("get(" + vset + ", \"Missing\")").ok());
  EXPECT_TRUE(Eval("has_key(" + vset + ", \"Sector\")")->as_bool());
  EXPECT_FALSE(Eval("has_key(" + vset + ", \"Missing\")")->as_bool());
  EXPECT_EQ(Eval("size(without(" + vset + ", \"Area\"))")->as_int(), 1);
  EXPECT_EQ(Eval("get(with(" + vset + ", \"Area\", \"Center\"), \"Area\")")->as_string(),
            "Center");
  EXPECT_EQ(Eval("size(keys(" + vset + "))")->as_int(), 2);
  EXPECT_EQ(Eval("size(project(" + vset + ", set(\"Area\")))")->as_int(), 1);
  EXPECT_EQ(Eval("first(pair(1, 2))")->as_int(), 1);
  EXPECT_EQ(Eval("second(pair(1, 2))")->as_int(), 2);
}

TEST(ExprEvalTest, NullInspection) {
  const std::map<std::string, Value> vars = {{"X", Value::Null(9)}};
  EXPECT_TRUE(Eval("is_null(X)", vars)->as_bool());
  EXPECT_FALSE(Eval("is_null(1)")->as_bool());
  EXPECT_EQ(Eval("null_label(X)", vars)->as_int(), 9);
  EXPECT_TRUE(Eval("maybe_eq(X, 42)", vars)->as_bool());
  EXPECT_FALSE(Eval("eq(X, 42)", vars)->as_bool());
}

TEST(ExprEvalTest, ModOfANonIntegerIsATypeError) {
  for (const char* src : {"mod(7, 2.5)", "mod(7.5, 2)", "mod(\"a\", 2)"}) {
    const auto r = Eval(src);
    ASSERT_FALSE(r.ok()) << src << " = " << r->ToString();
    EXPECT_EQ(r.status().code(), StatusCode::kTypeError) << src;
  }
  EXPECT_EQ(Eval("mod(-7, 3)")->as_int(), -1);
}

TEST(ExprEvalTest, IntOverflowIsAnError) {
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  const std::map<std::string, Value> vars = {
      {"X", Value::Int(kMax)}, {"Y", Value::Int(kMin)}, {"S", Value::Int(2)}};
  for (const char* src : {"X + 1", "Y - 1", "X * S", "Y * -1", "-Y", "abs(Y)",
                          "floor(P)", "round(P)"}) {
    std::map<std::string, Value> with_p = vars;
    with_p["P"] = Value::Double(1e19);
    const auto r = Eval(src, with_p);
    ASSERT_FALSE(r.ok()) << src << " = " << r->ToString();
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << src;
  }
  EXPECT_EQ(Eval("X - 1 + 1", vars)->as_int(), kMax);
  EXPECT_EQ(Eval("Y + X", vars)->as_int(), -1);
  EXPECT_EQ(Eval("abs(Y + 1)", vars)->as_int(), kMax);
  // A double operand keeps the double arithmetic.
  EXPECT_DOUBLE_EQ(Eval("X + 1.0", vars)->as_double(), 9223372036854775808.0);
  EXPECT_FALSE(Eval("ceil(P)", {{"P", Value::Double(std::nan(""))}}).ok());
}

TEST(ExprEvalTest, MinInt64ModMinusOneIsZero) {
  const std::map<std::string, Value> vars = {
      {"X", Value::Int(std::numeric_limits<int64_t>::min())}, {"Y", Value::Int(-1)}};
  const auto r = Eval("mod(X, Y)", vars);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->as_int(), 0);
}

TEST(ExprEvalTest, UnknownFunctionFails) {
  const auto r = Eval("frobnicate(1)");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(ExprEvalTest, ArityErrors) {
  EXPECT_FALSE(Eval("abs(1, 2)").ok());
  EXPECT_FALSE(Eval("pair(1)").ok());
}

Result<bool> EvalCond(const std::string& src,
                      const std::map<std::string, Value>& vars = {}) {
  auto program = Parse("out(X) :- dummy(X, S), " + src + ".");
  if (!program.ok()) return program.status();
  if (program->rules[0].conditions.empty()) {
    return Status::Internal("no condition parsed");
  }
  VarLookup lookup = [&vars](const std::string& name) -> const Value* {
    auto it = vars.find(name);
    return it == vars.end() ? nullptr : &it->second;
  };
  return EvalCondition(program->rules[0].conditions[0], lookup);
}

TEST(ConditionTest, Comparisons) {
  EXPECT_TRUE(EvalCond("1 < 2").value());
  EXPECT_TRUE(EvalCond("2 <= 2").value());
  EXPECT_FALSE(EvalCond("2 > 2").value());
  EXPECT_TRUE(EvalCond("3 >= 2").value());
  EXPECT_TRUE(EvalCond("2 == 2.0").value());
  EXPECT_TRUE(EvalCond("1 != 2").value());
}

TEST(ConditionTest, InAndSubset) {
  EXPECT_TRUE(EvalCond("2 in set(1, 2, 3)").value());
  EXPECT_FALSE(EvalCond("9 in set(1, 2, 3)").value());
  EXPECT_TRUE(EvalCond("set(1, 2) subset set(1, 2, 3)").value());
  EXPECT_FALSE(EvalCond("set(1, 9) subset set(1, 2, 3)").value());
  EXPECT_FALSE(EvalCond("1 in 2").ok());
}

}  // namespace
}  // namespace vadasa::vadalog
