#include "vadalog/engine.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

#include "vadalog/explain.h"
#include "vadalog/parser.h"

namespace vadasa::vadalog {
namespace {

/// Parses and runs a program on a fresh database.
Result<Database> RunProgram(const std::string& src, EngineOptions options = {}) {
  Engine engine(options);
  Database db;
  auto stats = RunSource(src, &db, &engine);
  if (!stats.ok()) return stats.status();
  return db;
}

TEST(EngineTest, FactsOnly) {
  auto db = RunProgram("edge(a, b). edge(b, c).");
  ASSERT_TRUE(db.ok());
  EXPECT_EQ(db->Rows("edge").size(), 2u);
}

TEST(EngineTest, SimpleJoin) {
  auto db = RunProgram(
      "parent(alice, bob). parent(bob, carol).\n"
      "grandparent(X, Z) :- parent(X, Y), parent(Y, Z).");
  ASSERT_TRUE(db.ok());
  ASSERT_EQ(db->Rows("grandparent").size(), 1u);
  EXPECT_TRUE(db->Contains("grandparent",
                           {Value::String("alice"), Value::String("carol")}));
}

TEST(EngineTest, TransitiveClosure) {
  std::string src;
  for (int i = 0; i < 20; ++i) {
    src += "edge(n" + std::to_string(i) + ", n" + std::to_string(i + 1) + ").\n";
  }
  src += "path(X,Y) :- edge(X,Y).\npath(X,Z) :- path(X,Y), edge(Y,Z).";
  auto db = RunProgram(src);
  ASSERT_TRUE(db.ok());
  EXPECT_EQ(db->Rows("path").size(), 21u * 20u / 2u);  // n(n+1)/2 pairs for a chain.
}

TEST(EngineTest, ConstantsInBodyFilter) {
  auto db = RunProgram(
      "val(a, 1). val(b, 2). val(a, 3).\n"
      "ofa(V) :- val(a, V).");
  ASSERT_TRUE(db.ok());
  EXPECT_EQ(db->Rows("ofa").size(), 2u);
}

TEST(EngineTest, ConditionsFilterBindings) {
  auto db = RunProgram(
      "w(x, 10). w(y, 2).\n"
      "big(X) :- w(X, V), V > 5.");
  ASSERT_TRUE(db.ok());
  ASSERT_EQ(db->Rows("big").size(), 1u);
  EXPECT_TRUE(db->Contains("big", {Value::String("x")}));
}

TEST(EngineTest, AssignmentsComputeValues) {
  auto db = RunProgram(
      "w(x, 10).\n"
      "r(X, R) :- w(X, V), R = 1 / V.");
  ASSERT_TRUE(db.ok());
  EXPECT_TRUE(db->Contains("r", {Value::String("x"), Value::Double(0.1)}));
}

TEST(EngineTest, AssignmentUsedInLaterJoin) {
  auto db = RunProgram(
      "n(1). n(2). m(2). m(3).\n"
      "chain(X, Y) :- n(X), Y = X + 1, m(Y).");
  ASSERT_TRUE(db.ok());
  EXPECT_EQ(db->Rows("chain").size(), 2u);
}

TEST(EngineTest, StratifiedNegation) {
  auto db = RunProgram(
      "node(a). node(b). node(c). edge(a, b). start(a).\n"
      "reach(X) :- start(X).\n"
      "reach(Y) :- reach(X), edge(X, Y).\n"
      "unreached(X) :- node(X), not reach(X).");
  ASSERT_TRUE(db.ok());
  ASSERT_EQ(db->Rows("unreached").size(), 1u);
  EXPECT_TRUE(db->Contains("unreached", {Value::String("c")}));
}

TEST(EngineTest, UnstratifiableProgramFails) {
  auto db = RunProgram(
      "q(a).\n"
      "p(X) :- q(X), not r(X).\n"
      "r(X) :- q(X), not p(X).");
  EXPECT_FALSE(db.ok());
}

TEST(EngineTest, ExistentialsCreateLabelledNulls) {
  auto db = RunProgram(
      "employee(alice). employee(bob).\n"
      "worksin(X, D) :- employee(X).");
  ASSERT_TRUE(db.ok());
  const auto& rows = db->Rows("worksin");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_TRUE(rows[0][1].is_null());
  EXPECT_TRUE(rows[1][1].is_null());
  // Different frontier values → different nulls (Skolem).
  EXPECT_NE(rows[0][1].null_label(), rows[1][1].null_label());
}

TEST(EngineTest, SkolemMemoizationReusesNulls) {
  // Two rules deriving employee twice must not create two departments.
  auto db = RunProgram(
      "employee(alice).\n"
      "person(X) :- employee(X).\n"
      "worksin(X, D) :- employee(X).\n"
      "worksin2(X, D) :- person(X), worksin(X, D).");
  ASSERT_TRUE(db.ok());
  EXPECT_EQ(db->Rows("worksin").size(), 1u);
}

TEST(EngineTest, RestrictedChaseSkipsSatisfiedHeads) {
  EngineOptions options;
  options.restricted_chase = true;
  auto db = RunProgram(
      "worksin(alice, sales).\n"
      "employee(alice).\n"
      "worksin(X, D) :- employee(X).",
      options);
  ASSERT_TRUE(db.ok());
  // alice already works somewhere: no null introduced.
  EXPECT_EQ(db->Rows("worksin").size(), 1u);
}

TEST(EngineTest, ObliviousChaseCreatesNullWhenUnrestricted) {
  EngineOptions options;
  options.restricted_chase = false;
  auto db = RunProgram(
      "worksin(alice, sales).\n"
      "employee(alice).\n"
      "worksin(X, D) :- employee(X).",
      options);
  ASSERT_TRUE(db.ok());
  EXPECT_EQ(db->Rows("worksin").size(), 2u);
}

TEST(EngineTest, NonTerminatingChaseHitsFactGuard) {
  // The classic infinite chase: every person needs a parent who is a person.
  // Neither the restricted check nor Skolem memoization can make this finite;
  // the termination guard must fire instead of hanging.
  EngineOptions options;
  options.max_facts = 200;
  auto db = RunProgram(
      "person(adam).\n"
      "hasparent(X, Y) :- person(X).\n"
      "person(Y) :- hasparent(X, Y).",
      options);
  EXPECT_FALSE(db.ok());
  EXPECT_EQ(db.status().code(), StatusCode::kLimitExceeded);
}

TEST(EngineTest, EgdUnifiesNullWithConstant) {
  auto db = RunProgram(
      "att(area).\n"
      "cat(A, C) :- att(A).\n"          // Existential category.
      "cat(area, quasi) :- att(area).\n"
      "C1 = C2 :- cat(A, C1), cat(A, C2).");
  ASSERT_TRUE(db.ok());
  // The labelled null collapsed into "quasi".
  ASSERT_EQ(db->Rows("cat").size(), 1u);
  EXPECT_TRUE(db->Contains("cat", {Value::String("area"), Value::String("quasi")}));
}

TEST(EngineTest, EgdConstantClashFails) {
  EngineOptions options;
  options.egd_mode = EgdMode::kFail;
  auto db = RunProgram(
      "cat(area, quasi). cat(area, identifier).\n"
      "C1 = C2 :- cat(A, C1), cat(A, C2).",
      options);
  EXPECT_FALSE(db.ok());
  EXPECT_EQ(db.status().code(), StatusCode::kEgdViolation);
}

TEST(EngineTest, EgdCollectModeRecordsViolations) {
  EngineOptions options;
  options.egd_mode = EgdMode::kCollect;
  Database db;
  Engine engine(options);
  auto stats = RunSource(
      "cat(area, quasi). cat(area, identifier).\n"
      "C1 = C2 :- cat(A, C1), cat(A, C2).",
      &db, &engine);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_GE(stats->egd_violations.size(), 1u);
}

TEST(EngineTest, EgdUnifiesTwoNulls) {
  auto db = RunProgram(
      "p(a). q(a).\n"
      "r(X, Z) :- p(X).\n"
      "s(X, W) :- q(X).\n"
      "Z = W :- r(X, Z), s(X, W).");
  ASSERT_TRUE(db.ok());
  const auto& r = db->Rows("r");
  const auto& s = db->Rows("s");
  ASSERT_EQ(r.size(), 1u);
  ASSERT_EQ(s.size(), 1u);
  EXPECT_TRUE(r[0][1].Equals(s[0][1]));
}

TEST(EngineTest, MonotonicSum) {
  auto db = RunProgram(
      "item(g1, a, 10). item(g1, b, 20). item(g2, c, 5).\n"
      "total(G, S) :- item(G, I, W), S = msum(W, <I>).");
  ASSERT_TRUE(db.ok());
  const auto finals = FinalAggregateRows(*db, "total", 1, /*take_max=*/true);
  ASSERT_EQ(finals.size(), 2u);
  // Sorted by group key: g1 then g2.
  EXPECT_EQ(finals[0][1].as_int(), 30);
  EXPECT_EQ(finals[1][1].as_int(), 5);
}

TEST(EngineTest, MonotonicSumPastInt64IsTheDoubleSum) {
  auto db = RunProgram(
      "item(g, a, 9223372036854775807). item(g, b, 9223372036854775807).\n"
      "item(h, c, 9223372036854775806). item(h, d, 1).\n"
      "total(G, S) :- item(G, I, W), S = msum(W, <I>).");
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  const auto finals = FinalAggregateRows(*db, "total", 1, /*take_max=*/true);
  ASSERT_EQ(finals.size(), 2u);
  ASSERT_TRUE(finals[0][1].is_double()) << finals[0][1].ToString();
  EXPECT_DOUBLE_EQ(finals[0][1].as_double(), 2 * 9223372036854775807.0);
  // A sum that fits stays an int.
  ASSERT_TRUE(finals[1][1].is_int()) << finals[1][1].ToString();
  EXPECT_EQ(finals[1][1].as_int(), std::numeric_limits<int64_t>::max());
}

TEST(EngineTest, MonotonicCountDistinctContributors) {
  auto db = RunProgram(
      "obs(g, t1). obs(g, t2). obs(g, t2).\n"
      "cnt(G, N) :- obs(G, I), N = mcount(<I>).");
  ASSERT_TRUE(db.ok());
  const auto finals = FinalAggregateRows(*db, "cnt", 1, true);
  ASSERT_EQ(finals.size(), 1u);
  EXPECT_EQ(finals[0][1].as_int(), 2);  // Distinct contributors only.
}

TEST(EngineTest, ContributorReplacementKeepsExtremal) {
  // The same contributor delivering a larger value replaces its old
  // contribution instead of double counting (Section 4.3 semantics).
  auto db = RunProgram(
      "v(g, i1, 10). v(g, i1, 25). v(g, i2, 5).\n"
      "total(G, S) :- v(G, I, W), S = msum(W, <I>).");
  ASSERT_TRUE(db.ok());
  const auto finals = FinalAggregateRows(*db, "total", 1, true);
  ASSERT_EQ(finals.size(), 1u);
  EXPECT_EQ(finals[0][1].as_int(), 30);  // 25 + 5, not 40.
}

TEST(EngineTest, MonotonicProd) {
  auto db = RunProgram(
      "risk(c, e1, 0.5). risk(c, e2, 0.5).\n"
      "combined(G, P) :- risk(G, E, R), S = 1 - R, P = mprod(S, <E>).");
  ASSERT_TRUE(db.ok());
  const auto finals = FinalAggregateRows(*db, "combined", 1, /*take_max=*/false);
  ASSERT_EQ(finals.size(), 1u);
  EXPECT_DOUBLE_EQ(finals[0][1].as_double(), 0.25);
}

TEST(EngineTest, MonotonicMinAndMax) {
  auto db = RunProgram(
      "v(g, a, 7). v(g, b, 3). v(g, c, 9). v(h, d, 5).\n"
      "lo(G, M) :- v(G, I, W), M = mmin(W, <I>).\n"
      "hi(G, M) :- v(G, I, W), M = mmax(W, <I>).");
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  const auto lo = FinalAggregateRows(*db, "lo", 1, /*take_max=*/false);
  ASSERT_EQ(lo.size(), 2u);
  EXPECT_EQ(lo[0][1].as_int(), 3);  // Group g.
  EXPECT_EQ(lo[1][1].as_int(), 5);  // Group h.
  const auto hi = FinalAggregateRows(*db, "hi", 1, /*take_max=*/true);
  EXPECT_EQ(hi[0][1].as_int(), 9);
  EXPECT_EQ(hi[1][1].as_int(), 5);
}

TEST(EngineTest, MinContributorReplacementKeepsSmallest) {
  // mmin keeps the minimum per contributor: a contributor re-delivering a
  // larger value must not raise the minimum.
  auto db = RunProgram(
      "v(g, i1, 4). v(g, i1, 9). v(g, i2, 6).\n"
      "lo(G, M) :- v(G, I, W), M = mmin(W, <I>).");
  ASSERT_TRUE(db.ok());
  const auto lo = FinalAggregateRows(*db, "lo", 1, false);
  ASSERT_EQ(lo.size(), 1u);
  EXPECT_EQ(lo[0][1].as_int(), 4);
}

TEST(EngineTest, AggregateGroupKeyWithConstants) {
  auto db = RunProgram(
      "v(a, 1). v(b, 2).\n"
      "total(fixed, S) :- v(X, W), S = msum(W, <X>).");
  ASSERT_TRUE(db.ok());
  const auto rows = FinalAggregateRows(*db, "total", 1, true);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0].as_string(), "fixed");
  EXPECT_EQ(rows[0][1].as_int(), 3);
}

TEST(EngineTest, MonotonicUnionBuildsVSet) {
  auto db = RunProgram(
      "val(m, 1, area, north). val(m, 1, sector, textiles).\n"
      "tuple(M, I, VSet) :- val(M, I, A, V), VSet = munion(pair(A, V), <A>).");
  ASSERT_TRUE(db.ok());
  // The monotone stream ends with the full 2-pair set.
  size_t best = 0;
  for (const auto& row : db->Rows("tuple")) {
    best = std::max(best, row[2].items().size());
  }
  EXPECT_EQ(best, 2u);
}

TEST(EngineTest, AggregationThroughRecursionConverges) {
  // Company-control example from Section 4.4: joint ownership via msum
  // inside recursion.
  auto db = RunProgram(
      "own(a, b, 0.6). own(a, c, 0.4). own(b, c, 0.3).\n"
      "rel(X, Y) :- own(X, Y, W), W > 0.5.\n"
      "rel(X, Y) :- rel(X, Z), own(Z, Y, W), S = msum(W, <Z>), S > 0.5.");
  ASSERT_TRUE(db.ok());
  EXPECT_TRUE(db->Contains("rel", {Value::String("a"), Value::String("b")}));
  // a controls c jointly: own(b,c) counted via rel(a,b)... only b's 0.3 feeds
  // the msum (the rule sums over controlled intermediaries Z), so a does NOT
  // control c through this rule alone.
  EXPECT_FALSE(db->Contains("rel", {Value::String("a"), Value::String("c")}));
}

TEST(EngineTest, JointControlThroughSubsidiaries) {
  // d owns 30% of t directly-ish via two controlled subsidiaries: 0.3 + 0.3.
  auto db = RunProgram(
      "own(d, s1, 0.9). own(d, s2, 0.9). own(s1, t, 0.3). own(s2, t, 0.3).\n"
      "rel(X, Y) :- own(X, Y, W), W > 0.5.\n"
      "rel(X, Y) :- rel(X, Z), own(Z, Y, W), S = msum(W, <Z>), S > 0.5.");
  ASSERT_TRUE(db.ok());
  EXPECT_TRUE(db->Contains("rel", {Value::String("d"), Value::String("t")}));
}

TEST(EngineTest, ExternalPredicateBindsValues) {
  Engine engine;
  engine.externals()->RegisterPredicate(
      "#double",
      [](const std::vector<std::optional<Value>>& args,
         const Database&) -> Result<std::vector<std::vector<Value>>> {
        if (!args[0] || !args[0]->is_int()) return std::vector<std::vector<Value>>{};
        return std::vector<std::vector<Value>>{
            {*args[0], Value::Int(args[0]->as_int() * 2)}};
      });
  Database db;
  auto stats = RunSource("n(3). n(5).\nd(X, Y) :- n(X), #double(X, Y).", &db, &engine);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_TRUE(db.Contains("d", {Value::Int(3), Value::Int(6)}));
  EXPECT_TRUE(db.Contains("d", {Value::Int(5), Value::Int(10)}));
}

TEST(EngineTest, UnregisteredExternalFails) {
  auto db = RunProgram("n(1).\np(X) :- n(X), #mystery(X).");
  EXPECT_FALSE(db.ok());
  EXPECT_EQ(db.status().code(), StatusCode::kNotFound);
}

TEST(EngineTest, ExternalActionEmitsFacts) {
  Engine engine;
  int invocations = 0;
  engine.externals()->RegisterAction(
      "#mark", [&invocations](const std::vector<Value>& args, ActionContext* ctx) {
        ++invocations;
        ctx->Emit("marked", {args[0]});
        return Status::OK();
      });
  Database db;
  auto stats = RunSource("n(1). n(2).\n#mark(X) :- n(X).", &db, &engine);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(invocations, 2);
  EXPECT_EQ(db.Rows("marked").size(), 2u);
}

TEST(EngineTest, ActionNotReinvokedOnSameBinding) {
  Engine engine;
  int invocations = 0;
  engine.externals()->RegisterAction(
      "#poke", [&invocations](const std::vector<Value>& args, ActionContext* ctx) {
        ++invocations;
        // Re-emitting the trigger must not loop forever.
        ctx->Emit("n", {args[0]});
        return Status::OK();
      });
  Database db;
  auto stats = RunSource("n(1).\n#poke(X) :- n(X).", &db, &engine);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(invocations, 1);
}

TEST(EngineTest, ProvenanceExplainsDerivations) {
  Engine engine;
  Database db;
  auto program = Parse(
      "edge(a, b). edge(b, c).\n"
      "path(X,Y) :- edge(X,Y).\n"
      "path(X,Z) :- path(X,Y), edge(Y,Z).");
  ASSERT_TRUE(program.ok());
  auto stats = engine.Run(*program, &db);
  ASSERT_TRUE(stats.ok());
  const FactId id =
      FindFact(db, "path", {Value::String("a"), Value::String("c")});
  ASSERT_NE(id, kInvalidFactId);
  const std::string explanation = ExplainFact(db, *program, id);
  EXPECT_NE(explanation.find("path(a,c)"), std::string::npos);
  EXPECT_NE(explanation.find("edge(b,c)"), std::string::npos);
  EXPECT_NE(explanation.find("[asserted]"), std::string::npos);
}

TEST(EngineTest, MaxFactsGuard) {
  EngineOptions options;
  options.max_facts = 50;
  options.restricted_chase = false;
  auto db = RunProgram(
      "n(0).\n"
      "n(Y) :- n(X), X < 1000000, Y = X + 1.",
      options);
  EXPECT_FALSE(db.ok());
  EXPECT_EQ(db.status().code(), StatusCode::kLimitExceeded);
}

TEST(EngineTest, ArithmeticRecursionWithBound) {
  auto db = RunProgram(
      "n(0).\n"
      "n(Y) :- n(X), X < 10, Y = X + 1.");
  ASSERT_TRUE(db.ok());
  EXPECT_EQ(db->Rows("n").size(), 11u);
}

TEST(EngineTest, RunStatsCounters) {
  Engine engine;
  Database db;
  auto stats = RunSource(
      "q(a).\n"
      "p(X, Z) :- q(X).",
      &db, &engine);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->nulls_created, 1u);
  EXPECT_GE(stats->facts_derived, 1u);
  EXPECT_GE(stats->rounds, 1u);
}

TEST(EngineTest, RequireWardedRejectsUnwardedProgram) {
  EngineOptions options;
  options.require_warded = true;
  auto db = RunProgram(
      "q(a). q(b).\n"
      "p(X, Z) :- q(X).\n"
      "s(Z) :- p(X, Z), p(Y, Z).",
      options);
  EXPECT_FALSE(db.ok());
  EXPECT_EQ(db.status().code(), StatusCode::kFailedPrecondition);
}

TEST(EngineTest, RuleFiringsCountEmissionsPerRuleInProgramOrder) {
  Engine engine;
  Database db;
  auto stats = RunSource(
      "n(1). n(2). n(3).\n"
      "pair(X, Y) :- n(X), n(Y).\n"
      "id(X) :- n(X).",
      &db, &engine);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  ASSERT_EQ(stats->rule_firings.size(), 2u);  // Facts are not rules.
  EXPECT_EQ(stats->rule_firings[0], 9u);      // 3 × 3 complete bindings.
  EXPECT_EQ(stats->rule_firings[1], 3u);
}

TEST(EngineTest, RuleFiringsAccumulateAcrossChaseRounds) {
  Engine engine;
  Database db;
  auto stats = RunSource(
      "edge(n0, n1). edge(n1, n2). edge(n2, n3).\n"
      "path(X, Y) :- edge(X, Y).\n"
      "path(X, Z) :- path(X, Y), edge(Y, Z).",
      &db, &engine);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  ASSERT_EQ(stats->rule_firings.size(), 2u);
  EXPECT_EQ(stats->rule_firings[0], 3u);
  // Semi-naive: each of the 3 length-≥2 paths is emitted exactly once.
  EXPECT_EQ(stats->rule_firings[1], 3u);
  EXPECT_EQ(stats->termination_check_seconds, 0.0);  // Untraced run.
}

TEST(EngineTest, FinalAggregateRowsPicksExtremes) {
  Database db;
  db.AddFact("out", {Value::String("g"), Value::Int(1)});
  db.AddFact("out", {Value::String("g"), Value::Int(3)});
  db.AddFact("out", {Value::String("h"), Value::Int(2)});
  const auto maxes = FinalAggregateRows(db, "out", 1, true);
  ASSERT_EQ(maxes.size(), 2u);
  EXPECT_EQ(maxes[0][1].as_int(), 3);
  const auto mins = FinalAggregateRows(db, "out", 1, false);
  EXPECT_EQ(mins[0][1].as_int(), 1);
}

}  // namespace
}  // namespace vadasa::vadalog
