#include "core/cycle.h"

#include <chrono>

#include "core/columnar.h"
#include "core/infoloss.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace vadasa::core {

namespace {

/// Outer-iteration guard of the cycle.
constexpr size_t kMaxIterations = 10000;

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

/// Code-space QI projection of a row's *current* cells. Translated through
/// the view's dictionaries (CodeForQuery) rather than read from the code
/// arrays, because the index's view is only refreshed at iteration end while
/// this guard must see mid-iteration mutations.
CodeRow QiCodePattern(const ColumnarView& view, const MicrodataTable& table,
                      const std::vector<size_t>& qis, size_t row) {
  CodeRow p;
  p.reserve(qis.size());
  for (const size_t c : qis) p.push_back(view.CodeForQuery(c, table.cell(row, c)));
  return p;
}

/// Maybe-match over packed codes: equal code, or either side in the null
/// band (a labelled null matches anything — Value::MaybeEquals).
bool MaybeMatchesAnyCodes(const CodeRow& pattern, const std::vector<CodeRow>& others) {
  for (const auto& o : others) {
    bool match = true;
    for (size_t i = 0; i < pattern.size() && match; ++i) {
      match = pattern[i] == o[i] || IsNullCode(pattern[i]) || IsNullCode(o[i]);
    }
    if (match) return true;
  }
  return false;
}

/// Adds a completed run to the global registry: each count adds to its
/// `cycle.*` counter and the run's totals become the gauges' values.
void ExportCompletedRun(const CycleStats& stats) {
  obs::MetricsRegistry& global = obs::MetricsRegistry::Global();
  global.counter("cycle.iterations")->Add(stats.iterations);
  global.counter("cycle.risk_evaluations")->Add(stats.risk_evaluations);
  global.counter("cycle.anonymization_steps")->Add(stats.anonymization_steps);
  global.counter("cycle.nulls_injected")->Add(stats.nulls_injected);
  global.counter("cycle.cells_recoded")->Add(stats.cells_recoded);
  global.counter("cycle.initial_risky")->Add(stats.initial_risky);
  global.counter("cycle.unresolved")->Add(stats.unresolved);
  global.counter("cycle.group_rebuilds")->Add(stats.group_rebuilds);
  global.counter("cycle.group_updates")->Add(stats.group_updates);
  global.counter("cycle.log_dropped")->Add(stats.log_dropped);
  global.gauge("cycle.total_seconds")->Set(stats.total_seconds);
  global.gauge("cycle.information_loss")->Set(stats.information_loss);
}

/// Appends a log line under the max_log_steps cap; past the cap, appends the
/// truncation sentinel once and counts the dropped entries.
void AppendLog(const CycleOptions& options, CycleStats* stats, std::string line) {
  if (stats->log.size() < options.max_log_steps) {
    stats->log.push_back(std::move(line));
    return;
  }
  if (stats->log.size() == options.max_log_steps) {
    stats->log.push_back(kLogTruncatedSentinel);
  }
  ++stats->log_dropped;
}

}  // namespace

Result<CycleStats> AnonymizationCycle::Run(MicrodataTable* table,
                                           RiskEvalCache* shared_cache) {
  obs::Span run_span("cycle.run");
  const auto t_start = std::chrono::steady_clock::now();
  CycleStats stats;
  VADASA_RETURN_NOT_OK(table->Validate());
  const std::vector<size_t> qis = options_.risk.ResolveQiColumns(*table);
  if (qis.empty()) {
    return Status::FailedPrecondition("microdata DB " + table->name() +
                                      " has no quasi-identifier columns");
  }
  // Phase times go to the global registry as each phase ends, one sample per
  // iteration; the counts reach it only with a completed run.
  static obs::Histogram* const risk_eval_histogram =
      obs::MetricsRegistry::Global().histogram("cycle.risk_eval_seconds");
  static obs::Histogram* const anonymize_histogram =
      obs::MetricsRegistry::Global().histogram("cycle.anonymize_seconds");
  static obs::Histogram* const index_update_histogram =
      obs::MetricsRegistry::Global().histogram("cycle.index_update_seconds");
  std::vector<bool> unresolvable(table->num_rows(), false);

  // One cache for the whole run: the group index inside is built on first
  // use (or copied from the cache's warm index) and then maintained
  // incrementally from the changed-row sets the anonymizer reports —
  // iterations >= 2 never recompute group stats from scratch
  // (stats.group_rebuilds reads 1 on a cold cache and 0 on a warm one).
  RiskEvalCache local_cache;
  RiskEvalCache& cache = shared_cache != nullptr ? *shared_cache : local_cache;

  for (size_t iter = 0; iter < kMaxIterations; ++iter) {
    if (options_.cancel != nullptr) {
      VADASA_RETURN_NOT_OK(options_.cancel->Check());
    }
    obs::Span iteration_span("cycle.iteration");
    ++stats.iterations;
    // --- Risk evaluation (the component Fig. 7e singles out). ---
    const auto t_risk = std::chrono::steady_clock::now();
    std::vector<double> risks;
    std::vector<bool> cluster_elevated;
    {
      obs::Span risk_span("cycle.risk_eval");
      VADASA_ASSIGN_OR_RETURN(risks,
                              risk_->ComputeRisks(*table, options_.risk, &cache));
      // Rows whose risk was raised by the business-knowledge transform carry
      // non-local risk: the group-touch skip below must not apply to them.
      cluster_elevated.assign(risks.size(), false);
      if (options_.risk_transform) {
        const std::vector<double> base_risks = risks;
        options_.risk_transform(*table, &risks);
        for (size_t r = 0; r < risks.size(); ++r) {
          cluster_elevated[r] = risks[r] > base_risks[r] + 1e-12;
        }
      }
    }
    const double risk_seconds = SecondsSince(t_risk);
    ++stats.risk_evaluations;
    stats.risk_eval_seconds += risk_seconds;
    risk_eval_histogram->Record(risk_seconds);

    std::vector<size_t> risky;
    for (size_t r = 0; r < risks.size(); ++r) {
      if (risks[r] > options_.threshold && !unresolvable[r]) risky.push_back(r);
    }
    if (iter == 0) {
      for (size_t r = 0; r < risks.size(); ++r) {
        if (risks[r] > options_.threshold) ++stats.initial_risky;
      }
    }
    if (risky.empty()) break;

    const auto t_anon = std::chrono::steady_clock::now();
    obs::Span anonymize_span("cycle.anonymize");
    const std::vector<size_t> order =
        OrderRiskyTuples(*table, risky, risks, options_.tuple_order);
    // What-if oracle for the QI-choice heuristic: the cache's incremental
    // index. Updates are batched to the end of the iteration, so mid-iteration
    // queries see the iteration-start state.
    const GroupIndex& index = cache.Index(*table, qis, options_.risk.semantics);
    // Group-touch guard state: QI patterns anonymized earlier this iteration,
    // as packed dictionary codes read from the index's own view (never the
    // shared warm view: the guard interns mid-iteration cells).
    const std::shared_ptr<const ColumnarView> guard_view = index.shared_view();
    std::vector<CodeRow> touched_codes;
    std::vector<uint32_t> iteration_changed;
    bool progressed = false;

    for (const size_t r : order) {
      if (!options_.single_step && !cluster_elevated[r] &&
          options_.risk.semantics == NullSemantics::kMaybeMatch) {
        if (MaybeMatchesAnyCodes(QiCodePattern(*guard_view, *table, qis, r),
                                 touched_codes)) {
          // An earlier step this iteration may already have widened this
          // tuple's group; re-check at the next risk evaluation.
          continue;
        }
      }
      auto col = ChooseQiColumn(*table, qis, r, options_.qi_choice, *anonymizer_,
                                index);
      if (!col.ok()) {
        if (col.status().code() == StatusCode::kNotFound) {
          unresolvable[r] = true;
          if (options_.log_steps) {
            AppendLog(options_, &stats,
                      "row " + std::to_string(r) +
                          ": risky but no anonymization applicable; giving up");
          }
          continue;
        }
        return col.status();
      }
      // Explain against the pre-step state: why was this tuple risky? The
      // cache hands Explain the stats ComputeRisks already produced instead
      // of a fresh O(n) grouping pass per logged row.
      std::string why;
      if (options_.log_steps) {
        why = risk_->Explain(*table, options_.risk, r, risks[r], &cache);
      }
      VADASA_ASSIGN_OR_RETURN(const AnonymizationStep step,
                              anonymizer_->Apply(table, r, *col));
      ++stats.anonymization_steps;
      stats.nulls_injected += step.nulls_injected;
      if (step.nulls_injected == 0) stats.cells_recoded += step.affected_rows;
      progressed = true;
      iteration_changed.insert(iteration_changed.end(), step.changed_rows.begin(),
                               step.changed_rows.end());
      if (options_.log_steps) {
        AppendLog(options_, &stats, step.ToString(*table) + "  [" + why + "]");
      }
      if (options_.single_step) break;  // Paper-literal: back to risk eval.
      if (step.affected_rows > 1) break;  // Global recoding: groups shifted broadly.
      touched_codes.push_back(QiCodePattern(*guard_view, *table, qis, r));
    }
    anonymize_histogram->Record(SecondsSince(t_anon));
    if (!iteration_changed.empty()) {
      obs::Span update_span("cycle.index_update");
      const auto t_update = std::chrono::steady_clock::now();
      cache.NotifyRowsChanged(*table, iteration_changed);
      index_update_histogram->Record(SecondsSince(t_update));
    }
    if (!progressed) break;  // Only unresolvable risky tuples remain.
  }

  for (const bool u : unresolvable) {
    if (u) ++stats.unresolved;
  }
  stats.group_rebuilds = cache.full_builds();
  stats.group_updates = cache.incremental_updates();
  stats.information_loss =
      PaperInformationLoss(stats.nulls_injected, stats.initial_risky, qis.size());
  stats.total_seconds = SecondsSince(t_start);
  ExportCompletedRun(stats);
  return stats;
}

}  // namespace vadasa::core
