#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/cancel.h"
#include "core/cycle.h"
#include "core/datagen.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace vadasa::core {
namespace {

CycleOptions KAnonOptions(int k) {
  CycleOptions options;
  options.threshold = 0.5;
  options.risk.k = k;
  return options;
}

std::string Serialize(const MicrodataTable& t) {
  std::string out;
  for (size_t r = 0; r < t.num_rows(); ++r) {
    for (size_t c = 0; c < t.attributes().size(); ++c) {
      out += t.cell(r, c).ToString();
      out += '\x1f';
    }
    out += '\n';
  }
  return out;
}

Result<CycleStats> RunCycle(MicrodataTable* t, const CycleOptions& options) {
  KAnonymityRisk risk;
  LocalSuppression anon;
  AnonymizationCycle cycle(&risk, &anon, options);
  return cycle.Run(t);
}

TEST(CycleObsTest, TracingDoesNotAlterOutcome) {
  // The observability layer must be a pure observer: a cycle run with
  // tracing recording is bit-identical — same cells, same stats — to one
  // with tracing off.
  MicrodataTable plain = Figure5Microdata();
  auto plain_stats = RunCycle(&plain, KAnonOptions(2));
  ASSERT_TRUE(plain_stats.ok()) << plain_stats.status().ToString();

  MicrodataTable traced = Figure5Microdata();
  obs::StartTracing();
  auto traced_stats = RunCycle(&traced, KAnonOptions(2));
  obs::StopTracing();
  ASSERT_TRUE(traced_stats.ok()) << traced_stats.status().ToString();

  EXPECT_EQ(Serialize(plain), Serialize(traced));
  EXPECT_EQ(plain_stats->iterations, traced_stats->iterations);
  EXPECT_EQ(plain_stats->risk_evaluations, traced_stats->risk_evaluations);
  EXPECT_EQ(plain_stats->anonymization_steps, traced_stats->anonymization_steps);
  EXPECT_EQ(plain_stats->nulls_injected, traced_stats->nulls_injected);
  EXPECT_EQ(plain_stats->initial_risky, traced_stats->initial_risky);
  EXPECT_EQ(plain_stats->unresolved, traced_stats->unresolved);
  EXPECT_EQ(plain_stats->group_rebuilds, traced_stats->group_rebuilds);
  EXPECT_EQ(plain_stats->group_updates, traced_stats->group_updates);
  EXPECT_DOUBLE_EQ(plain_stats->information_loss, traced_stats->information_loss);

  // The traced run produced the expected span taxonomy.
  const auto spans = obs::CollectSpans();
  auto count = [&](const std::string& name) {
    size_t n = 0;
    for (const auto& s : spans) {
      if (name == s.name) ++n;
    }
    return n;
  };
  EXPECT_EQ(count("cycle.run"), 1u);
  EXPECT_EQ(count("cycle.iteration"), traced_stats->iterations);
  EXPECT_EQ(count("cycle.risk_eval"), traced_stats->risk_evaluations);
  EXPECT_GE(count("risk.compute.k_anonymity"), traced_stats->risk_evaluations);
}

TEST(CycleObsTest, StatsMatchGlobalRegistryView) {
  // CycleStats is derived from the same registry the exporters serialize;
  // after a run on a fresh global registry the two views must agree exactly.
  obs::MetricsRegistry& global = obs::MetricsRegistry::Global();
  global.Reset();
  MicrodataTable t = Figure5Microdata();
  auto stats = RunCycle(&t, KAnonOptions(2));
  ASSERT_TRUE(stats.ok());

  EXPECT_EQ(global.counter("cycle.iterations")->value(), stats->iterations);
  EXPECT_EQ(global.counter("cycle.risk_evaluations")->value(),
            stats->risk_evaluations);
  EXPECT_EQ(global.counter("cycle.anonymization_steps")->value(),
            stats->anonymization_steps);
  EXPECT_EQ(global.counter("cycle.nulls_injected")->value(), stats->nulls_injected);
  EXPECT_EQ(global.counter("cycle.initial_risky")->value(), stats->initial_risky);
  EXPECT_EQ(global.counter("cycle.unresolved")->value(), stats->unresolved);
  EXPECT_EQ(global.counter("cycle.group_rebuilds")->value(), stats->group_rebuilds);
  EXPECT_EQ(global.counter("cycle.group_updates")->value(), stats->group_updates);
  EXPECT_DOUBLE_EQ(global.histogram("cycle.risk_eval_seconds")->sum(),
                   stats->risk_eval_seconds);
  EXPECT_DOUBLE_EQ(global.gauge("cycle.total_seconds")->value(),
                   stats->total_seconds);
  // Steady-clock consistency: the risk-eval component can never exceed the
  // whole run measured on the same clock.
  EXPECT_LE(stats->risk_eval_seconds, stats->total_seconds);
  EXPECT_EQ(global.histogram("cycle.risk_eval_seconds")->count(),
            stats->risk_evaluations);
}

TEST(CycleObsTest, GlobalRegistryAccumulatesCompletedRuns) {
  // Each completed run adds its counts to the cycle.* counters; the gauges
  // hold the last run's values.
  obs::MetricsRegistry& global = obs::MetricsRegistry::Global();
  global.Reset();
  MicrodataTable first_table = Figure5Microdata();
  auto first = RunCycle(&first_table, KAnonOptions(2));
  ASSERT_TRUE(first.ok());
  // Standard semantics with a capped log: unresolved tuples and dropped
  // justifications, so every counter moves in at least one run.
  MicrodataTable second_table = Figure5Microdata();
  CycleOptions options = KAnonOptions(2);
  options.risk.semantics = NullSemantics::kStandard;
  options.log_steps = true;
  options.max_log_steps = 2;
  auto second = RunCycle(&second_table, options);
  ASSERT_TRUE(second.ok());
  ASSERT_NE(first->information_loss, second->information_loss);

  auto summed = [&](const std::string& name, size_t CycleStats::*field) {
    EXPECT_EQ(global.counter("cycle." + name)->value(), (*first).*field + (*second).*field)
        << name;
  };
  summed("iterations", &CycleStats::iterations);
  summed("risk_evaluations", &CycleStats::risk_evaluations);
  summed("anonymization_steps", &CycleStats::anonymization_steps);
  summed("nulls_injected", &CycleStats::nulls_injected);
  summed("cells_recoded", &CycleStats::cells_recoded);
  summed("initial_risky", &CycleStats::initial_risky);
  summed("unresolved", &CycleStats::unresolved);
  summed("group_rebuilds", &CycleStats::group_rebuilds);
  summed("group_updates", &CycleStats::group_updates);
  summed("log_dropped", &CycleStats::log_dropped);
  EXPECT_GT(second->unresolved, 0u);
  EXPECT_GT(second->log_dropped, 0u);
  EXPECT_DOUBLE_EQ(global.gauge("cycle.total_seconds")->value(), second->total_seconds);
  EXPECT_DOUBLE_EQ(global.gauge("cycle.information_loss")->value(),
                   second->information_loss);
  EXPECT_EQ(global.histogram("cycle.risk_eval_seconds")->count(),
            first->risk_evaluations + second->risk_evaluations);
}

TEST(CycleObsTest, RunCancelledMidwayKeepsOnlyItsPhaseSamples) {
  // The token fires during the first iteration's risk evaluation, so the
  // run fails at the second iteration's check. Its counts and gauges never
  // reach the registry; the phases it finished keep their samples.
  obs::MetricsRegistry& global = obs::MetricsRegistry::Global();
  global.Reset();
  CancelToken token;
  CycleOptions options = KAnonOptions(2);
  options.cancel = &token;
  options.risk_transform = [&token](const MicrodataTable&, std::vector<double>*) {
    token.Cancel();
  };
  MicrodataTable t = Figure5Microdata();
  auto stats = RunCycle(&t, options);
  ASSERT_EQ(stats.status().code(), StatusCode::kCancelled);
  for (const char* name : {"cycle.iterations", "cycle.risk_evaluations", "cycle.initial_risky",
                           "cycle.anonymization_steps", "cycle.nulls_injected"}) {
    EXPECT_EQ(global.counter(name)->value(), 0u) << name;
  }
  EXPECT_EQ(global.gauge("cycle.total_seconds")->value(), 0.0);
  EXPECT_EQ(global.gauge("cycle.information_loss")->value(), 0.0);
  EXPECT_EQ(global.histogram("cycle.risk_eval_seconds")->count(), 1u);
  EXPECT_EQ(global.histogram("cycle.anonymize_seconds")->count(), 1u);
}

TEST(CycleObsTest, MaxLogStepsTruncatesWithSentinel) {
  // Standard semantics makes suppression useless: the cycle wipes all 4 QIs
  // of the 3 risky tuples and gives up — 12 step entries + 3 give-ups,
  // far above the cap of 2.
  MicrodataTable t = Figure5Microdata();
  CycleOptions options = KAnonOptions(2);
  options.risk.semantics = NullSemantics::kStandard;
  options.log_steps = true;
  options.max_log_steps = 2;
  auto stats = RunCycle(&t, options);
  ASSERT_TRUE(stats.ok());
  ASSERT_EQ(stats->log.size(), 3u);  // Cap + one sentinel.
  EXPECT_EQ(stats->log.back(), kLogTruncatedSentinel);
  EXPECT_NE(stats->log[0], kLogTruncatedSentinel);
  EXPECT_GT(stats->log_dropped, 0u);
  // Dropped + kept (minus the sentinel) = every justification produced.
  MicrodataTable full = Figure5Microdata();
  options.max_log_steps = 10000;
  auto full_stats = RunCycle(&full, options);
  ASSERT_TRUE(full_stats.ok());
  EXPECT_EQ(full_stats->log_dropped, 0u);
  EXPECT_EQ(full_stats->log.size(), 2u + stats->log_dropped);
}

TEST(CycleObsTest, UncappedLogHasNoSentinel) {
  MicrodataTable t = Figure5Microdata();
  CycleOptions options = KAnonOptions(2);
  options.log_steps = true;
  auto stats = RunCycle(&t, options);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->log_dropped, 0u);
  for (const std::string& line : stats->log) {
    EXPECT_NE(line, kLogTruncatedSentinel);
  }
}

}  // namespace
}  // namespace vadasa::core
