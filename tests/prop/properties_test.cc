#include "testing/properties.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "testing/harness.h"
#include "vadalog/engine.h"
#include "vadalog/parser.h"

namespace vadasa::testing {
namespace {

std::vector<std::string> PropertyNames() {
  std::vector<std::string> names;
  for (const Property& property : PropertyCatalog()) names.push_back(property.name);
  return names;
}

TEST(PropCatalogTest, LookupWorks) {
  EXPECT_GE(PropertyCatalog().size(), 10u);
  for (const Property& property : PropertyCatalog()) {
    ASSERT_NE(FindProperty(property.name), nullptr);
    EXPECT_EQ(FindProperty(property.name)->name, property.name);
    EXPECT_FALSE(property.summary.empty()) << property.name;
  }
  EXPECT_EQ(FindProperty("no-such-property"), nullptr);
  ReproCase unknown;
  unknown.property = "no-such-property";
  EXPECT_FALSE(EvaluateRepro(unknown).ok());
}

TEST(PropCatalogTest, GenerationIsDeterministic) {
  for (const Property& property : PropertyCatalog()) {
    Rng a(7), b(7);
    const ReproCase ca = property.generate(&a, 0);
    const ReproCase cb = property.generate(&b, 0);
    EXPECT_EQ(ReproToString(ca), ReproToString(cb)) << property.name;
  }
}

TEST(PropCatalogTest, DefaultRunCoversAtLeast200Cases) {
  const HarnessOptions options = HarnessOptionsFromEnv();
  EXPECT_GE(PropertyCatalog().size() * options.cases_per_property, 200u)
      << "the prop suite must generate at least 200 cases per run";
}

/// The grouping acceptance bar: 220+ generated cases (labelled nulls,
/// weights, duplicate rows) where cold group stats, an incrementally
/// maintained cache and its what-if queries, the grouping measures, SUDA's
/// MSUs and a full audited cycle must equal a linear scan of the =⊥
/// definition exactly. A wider sweep than the per-property default because
/// every risk measure reads its groups through this one code path.
TEST(PropCatalogTest, GroupingNaiveOracleWideSweep) {
  const Property* property = FindProperty("grouping-matches-naive-oracle");
  ASSERT_NE(property, nullptr);
  HarnessOptions options;
  options.cases_per_property = 220;
  const HarnessReport report = RunProperty(*property, options);
  EXPECT_EQ(report.cases_run, 220u);
  std::string diagnostics;
  for (const ReproCase& repro : report.repros) {
    diagnostics += "\n--- shrunk repro ---\n" + ReproToString(repro);
  }
  EXPECT_EQ(report.failures, 0u)
      << "grouping diverged from the naive scan on " << report.failures << "/"
      << report.cases_run << " cases" << diagnostics;
}

/// The declarative-cycle acceptance bar: 220 generated cases of up to 48
/// rows and 5 quasi-identifiers where the bridge's index-backed #risk,
/// #anonymize and decode must chase and release exactly what the linear-scan
/// reference (ReferenceDeclarativeCycle) does, and both the declarative and
/// the imperative release must honour the release contract.
TEST(PropCatalogTest, CycleDifferentialWideSweep) {
  const Property* property = FindProperty("cycle-differential");
  ASSERT_NE(property, nullptr);
  HarnessOptions options;
  options.cases_per_property = 220;
  // The sweep's cases, drawn as RunProperty draws them, cover both measures,
  // both null semantics, and runs with and without an ownership graph.
  Rng rng(options.seed ^ std::hash<std::string>{}(property->name));
  std::set<std::string> kinds;
  for (uint64_t i = 0; i < options.cases_per_property; ++i) {
    const ReproCase repro = property->generate(&rng, i);
    kinds.insert(repro.params.at("measure") + " " + repro.params.at("semantics") +
                 " graph=" + repro.params.at("with_graph"));
  }
  EXPECT_EQ(kinds.size(), 8u);
  const HarnessReport report = RunProperty(*property, options);
  EXPECT_EQ(report.cases_run, 220u);
  std::string diagnostics;
  for (const ReproCase& repro : report.repros) {
    diagnostics += "\n--- shrunk repro ---\n" + ReproToString(repro);
  }
  EXPECT_EQ(report.failures, 0u)
      << "the declarative cycle diverged on " << report.failures << "/"
      << report.cases_run << " cases" << diagnostics;
}

/// The fault-hardening acceptance bar (docs/robustness.md): 220+ generated
/// chaos cases, each arming a random deterministic failpoint assignment over
/// the registry/scheduler sites and rerunning a full protocol conversation.
/// Every response must stay well-formed, nothing may hang, and the jobs that
/// still succeed must be bit-identical to the fault-free reference pass.
TEST(PropCatalogTest, ChaosServeNeverCorruptsWideSweep) {
  const Property* property = FindProperty("chaos-serve-never-corrupts");
  ASSERT_NE(property, nullptr);
  HarnessOptions options;
  options.cases_per_property = 220;
  const HarnessReport report = RunProperty(*property, options);
  EXPECT_EQ(report.cases_run, 220u);
  std::string diagnostics;
  for (const ReproCase& repro : report.repros) {
    diagnostics += "\n--- shrunk repro ---\n" + ReproToString(repro);
  }
  EXPECT_EQ(report.failures, 0u)
      << "faulted serving corrupted or wedged " << report.failures << "/"
      << report.cases_run << " cases" << diagnostics;
}

/// The incremental-maintenance acceptance bar (docs/api.md §"Streaming
/// deltas"): 220+ generated cases, each streaming chained random delta
/// batches (appends, updates, deletes, labelled-null suppressions) through
/// Session::Apply. Every step's risks, released bytes,
/// and audit text must be byte-identical to a cold session built from
/// scratch over the post-delta table.
TEST(PropCatalogTest, DeltaVsFullRecomputeWideSweep) {
  const Property* property = FindProperty("delta-vs-full-recompute-bit-identical");
  ASSERT_NE(property, nullptr);
  HarnessOptions options;
  options.cases_per_property = 220;
  const HarnessReport report = RunProperty(*property, options);
  EXPECT_EQ(report.cases_run, 220u);
  std::string diagnostics;
  for (const ReproCase& repro : report.repros) {
    diagnostics += "\n--- shrunk repro ---\n" + ReproToString(repro);
  }
  EXPECT_EQ(report.failures, 0u)
      << "incremental delta maintenance diverged from the cold rebuild on "
      << report.failures << "/" << report.cases_run << " cases" << diagnostics;
}

/// The result-cache coherence acceptance bar (docs/serving.md): 220+
/// generated cases, each priming hot policies, interleaving them with
/// unique-policy traffic, and replacing the dataset's content mid-stream.
/// Every hit must replay the cold run's exact bytes,
/// every unique policy must miss, and the first request after a one-cell
/// edit must miss and match the edited table's cold reference.
TEST(PropCatalogTest, CachedResultBitIdenticalWideSweep) {
  const Property* property = FindProperty("cached-result-bit-identical");
  ASSERT_NE(property, nullptr);
  HarnessOptions options;
  options.cases_per_property = 220;
  const HarnessReport report = RunProperty(*property, options);
  EXPECT_EQ(report.cases_run, 220u);
  std::string diagnostics;
  for (const ReproCase& repro : report.repros) {
    diagnostics += "\n--- shrunk repro ---\n" + ReproToString(repro);
  }
  EXPECT_EQ(report.failures, 0u)
      << "result cache served wrong or stale bytes on " << report.failures
      << "/" << report.cases_run << " cases" << diagnostics;
}

/// The streaming-CSV acceptance bar: 220 generated documents (quoted commas,
/// doubled quotes and line breaks, CRLF, blank and ragged rows, labelled
/// nulls, doubles of up to 17 digits) and tables, where the streaming loader
/// must equal the retired CsvTable load, the text writer WriteCsv(ToCsv()),
/// the written text must load back to the same cells, and the streamed
/// fingerprint must equal the retired one wherever the bytes are unchanged.
TEST(PropCatalogTest, CsvStreamMatchesReferenceWideSweep) {
  const Property* property = FindProperty("csv-stream-matches-reference");
  ASSERT_NE(property, nullptr);
  HarnessOptions options;
  options.cases_per_property = 220;
  const HarnessReport report = RunProperty(*property, options);
  EXPECT_EQ(report.cases_run, 220u);
  std::string diagnostics;
  for (const ReproCase& repro : report.repros) {
    diagnostics += "\n--- shrunk repro ---\n" + ReproToString(repro);
  }
  EXPECT_EQ(report.failures, 0u)
      << "the streaming CSV path diverged from the reference on " << report.failures
      << "/" << report.cases_run << " cases" << diagnostics;
}

/// The utility acceptance bar: 220 generated tables (Int and Double cells
/// equal but spelled apart, doubles equal to six digits, strings spelled like
/// numbers or holding byte 0x1F, nulls in the original, one-QI tables, QIs
/// with thousands of distinct values, tables without a numeric payload),
/// released by a cycle or edited by hand, where every field of the report
/// counted by spelling id must equal the per-cell spelling reference.
TEST(PropCatalogTest, UtilityMatchesReferenceWideSweep) {
  const Property* property = FindProperty("utility-matches-reference");
  ASSERT_NE(property, nullptr);
  HarnessOptions options;
  options.cases_per_property = 220;
  const HarnessReport report = RunProperty(*property, options);
  EXPECT_EQ(report.cases_run, 220u);
  std::string diagnostics;
  for (const ReproCase& repro : report.repros) {
    diagnostics += "\n--- shrunk repro ---\n" + ReproToString(repro);
  }
  EXPECT_EQ(report.failures, 0u)
      << "the utility report diverged from the reference on " << report.failures
      << "/" << report.cases_run << " cases" << diagnostics;
}

/// The provenance acceptance bar: 220 generated programs chased with
/// provenance on and EGD violations collected, where every derived fact must
/// cite earlier facts that match its rule. The sweep is only worth its cases
/// if a tenth of them, or more, merge facts through an EGD.
TEST(PropCatalogTest, ChaseProvenanceExactWideSweep) {
  const Property* property = FindProperty("chase-provenance-exact");
  ASSERT_NE(property, nullptr);
  HarnessOptions options;
  options.cases_per_property = 220;
  // Re-chase the sweep's programs, drawn as RunProperty draws them.
  Rng rng(options.seed ^ std::hash<std::string>{}(property->name));
  size_t substituting = 0;
  for (uint64_t i = 0; i < options.cases_per_property; ++i) {
    auto program = vadalog::Parse(property->generate(&rng, i).program);
    ASSERT_TRUE(program.ok()) << program.status().ToString();
    vadalog::EngineOptions engine_options;
    engine_options.max_rounds = 200;
    engine_options.max_facts = 20000;
    engine_options.egd_mode = vadalog::EgdMode::kCollect;
    vadalog::Engine engine(engine_options);
    vadalog::Database db;
    auto stats = engine.Run(*program, &db);
    if (stats.ok() && stats->egd_substitutions > 0) ++substituting;
  }
  EXPECT_GE(substituting * 10, options.cases_per_property)
      << "only " << substituting << " of 220 chases substituted a null";
  const HarnessReport report = RunProperty(*property, options);
  EXPECT_EQ(report.cases_run, 220u);
  std::string diagnostics;
  for (const ReproCase& repro : report.repros) {
    diagnostics += "\n--- shrunk repro ---\n" + ReproToString(repro);
  }
  EXPECT_EQ(report.failures, 0u)
      << "chase provenance was wrong on " << report.failures << "/"
      << report.cases_run << " cases" << diagnostics;
}

/// One discovered ctest entry per property; each runs its full generated-case
/// budget (cases × properties >= 200 per full suite run).
class PropertyRunTest : public ::testing::TestWithParam<std::string> {};

TEST_P(PropertyRunTest, HoldsOnGeneratedCases) {
  const Property* property = FindProperty(GetParam());
  ASSERT_NE(property, nullptr);
  const HarnessOptions options = HarnessOptionsFromEnv();
  const HarnessReport report = RunProperty(*property, options);
  EXPECT_GT(report.cases_run, 0u);
  if (options.budget_ms == 0) {
    EXPECT_EQ(report.cases_run, options.cases_per_property);
  }
  std::string diagnostics;
  for (const ReproCase& repro : report.repros) {
    diagnostics += "\n--- shrunk repro ---\n" + ReproToString(repro);
  }
  EXPECT_EQ(report.failures, 0u)
      << property->name << " violated on " << report.failures << "/"
      << report.cases_run << " generated cases (seed " << options.seed << ")"
      << diagnostics;
}

std::string SanitizeName(const ::testing::TestParamInfo<std::string>& info) {
  std::string name = info.param;
  for (char& c : name) {
    if (c == '-') c = '_';
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(Catalog, PropertyRunTest,
                         ::testing::ValuesIn(PropertyNames()), SanitizeName);

/// Replays a failure file from a previous run:
///   VADASA_PROP_REPRO=case.repro ctest -R prop
/// The test fails while the bug reproduces and passes once it is fixed.
TEST(PropReplayTest, EnvRepro) {
  const char* path = std::getenv("VADASA_PROP_REPRO");
  if (path == nullptr || *path == '\0') {
    GTEST_SKIP() << "VADASA_PROP_REPRO not set";
  }
  const Status verdict = ReplayReproFile(path);
  EXPECT_TRUE(verdict.ok()) << verdict.ToString();
}

}  // namespace
}  // namespace vadasa::testing
