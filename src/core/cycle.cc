#include "core/cycle.h"

#include <chrono>

#include "core/columnar.h"
#include "core/infoloss.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace vadasa::core {

namespace {

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

/// Per-run meter set over a local registry — the single source CycleStats is
/// derived from. Counters are registered up front so the snapshot is complete
/// even for runs that never touch a path.
struct CycleMeters {
  obs::MetricsRegistry registry;
  obs::Counter* iterations = registry.counter("iterations");
  obs::Counter* risk_evaluations = registry.counter("risk_evaluations");
  obs::Counter* anonymization_steps = registry.counter("anonymization_steps");
  obs::Counter* nulls_injected = registry.counter("nulls_injected");
  obs::Counter* cells_recoded = registry.counter("cells_recoded");
  obs::Counter* initial_risky = registry.counter("initial_risky");
  obs::Counter* unresolved = registry.counter("unresolved");
  obs::Counter* group_rebuilds = registry.counter("group_rebuilds");
  obs::Counter* group_updates = registry.counter("group_updates");
  obs::Counter* log_dropped = registry.counter("log_dropped");
  obs::Histogram* risk_eval_seconds = registry.histogram("risk_eval_seconds");
  obs::Histogram* anonymize_seconds = registry.histogram("anonymize_seconds");
  obs::Histogram* index_update_seconds = registry.histogram("index_update_seconds");
  obs::Gauge* total_seconds = registry.gauge("total_seconds");
  obs::Gauge* information_loss = registry.gauge("information_loss");
};

/// Appends a log line under the max_log_steps cap; past the cap, appends the
/// truncation sentinel once and counts the dropped entries.
void AppendLog(const CycleOptions& options, CycleMeters* meters, CycleStats* stats,
               std::string line) {
  if (stats->log.size() < options.max_log_steps) {
    stats->log.push_back(std::move(line));
    return;
  }
  if (stats->log.size() == options.max_log_steps) {
    stats->log.push_back(kLogTruncatedSentinel);
  }
  meters->log_dropped->Add(1);
}

}  // namespace

Result<CycleStats> AnonymizationCycle::Run(MicrodataTable* table,
                                           RiskEvalCache* shared_cache) {
  obs::Span run_span("cycle.run");
  const auto t_start = std::chrono::steady_clock::now();
  CycleMeters meters;
  CycleStats stats;
  VADASA_RETURN_NOT_OK(table->Validate());
  const std::vector<size_t> qis = options_.risk.ResolveQiColumns(*table);
  if (qis.empty()) {
    return Status::FailedPrecondition("microdata DB " + table->name() +
                                      " has no quasi-identifier columns");
  }
  std::vector<bool> unresolvable(table->num_rows(), false);

  // One cache for the whole run: the group index inside is built on first
  // use (or copied from the cache's warm index) and then maintained
  // incrementally from the changed-row sets the anonymizer reports —
  // iterations >= 2 never recompute group stats from scratch
  // (stats.group_rebuilds reads 1 on a cold cache and 0 on a warm one).
  RiskEvalCache local_cache;
  RiskEvalCache& cache = shared_cache != nullptr ? *shared_cache : local_cache;

  for (size_t iter = 0; iter < options_.max_iterations; ++iter) {
    if (options_.cancel != nullptr) {
      VADASA_RETURN_NOT_OK(options_.cancel->Check());
    }
    obs::Span iteration_span("cycle.iteration");
    meters.iterations->Add(1);
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
    meters.risk_evaluations->Add(1);
    meters.risk_eval_seconds->Record(SecondsSince(t_risk));

    std::vector<size_t> risky;
    for (size_t r = 0; r < risks.size(); ++r) {
      if (risks[r] > options_.threshold && !unresolvable[r]) risky.push_back(r);
    }
    if (iter == 0) {
      size_t initial = 0;
      for (size_t r = 0; r < risks.size(); ++r) {
        if (risks[r] > options_.threshold) ++initial;
      }
      meters.initial_risky->Add(initial);
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
            AppendLog(options_, &meters, &stats,
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
      meters.anonymization_steps->Add(1);
      meters.nulls_injected->Add(step.nulls_injected);
      if (step.nulls_injected == 0) meters.cells_recoded->Add(step.affected_rows);
      progressed = true;
      iteration_changed.insert(iteration_changed.end(), step.changed_rows.begin(),
                               step.changed_rows.end());
      if (options_.log_steps) {
        AppendLog(options_, &meters, &stats, step.ToString(*table) + "  [" + why + "]");
      }
      if (options_.single_step) break;  // Paper-literal: back to risk eval.
      if (step.affected_rows > 1) break;  // Global recoding: groups shifted broadly.
      touched_codes.push_back(QiCodePattern(*guard_view, *table, qis, r));
    }
    meters.anonymize_seconds->Record(SecondsSince(t_anon));
    if (!iteration_changed.empty()) {
      obs::Span update_span("cycle.index_update");
      const auto t_update = std::chrono::steady_clock::now();
      cache.NotifyRowsChanged(*table, iteration_changed);
      meters.index_update_seconds->Record(SecondsSince(t_update));
    }
    if (!progressed) break;  // Only unresolvable risky tuples remain.
  }

  size_t unresolved = 0;
  for (const bool u : unresolvable) {
    if (u) ++unresolved;
  }
  meters.unresolved->Add(unresolved);
  meters.group_rebuilds->Add(cache.full_builds());
  meters.group_updates->Add(cache.incremental_updates());
  meters.information_loss->Set(PaperInformationLoss(
      meters.nulls_injected->value(), meters.initial_risky->value(), qis.size()));
  meters.total_seconds->Set(SecondsSince(t_start));

  // CycleStats is a view over the meter registry — one snapshot, one truth.
  stats.iterations = meters.iterations->value();
  stats.risk_evaluations = meters.risk_evaluations->value();
  stats.anonymization_steps = meters.anonymization_steps->value();
  stats.nulls_injected = meters.nulls_injected->value();
  stats.cells_recoded = meters.cells_recoded->value();
  stats.initial_risky = meters.initial_risky->value();
  stats.unresolved = meters.unresolved->value();
  stats.group_rebuilds = meters.group_rebuilds->value();
  stats.group_updates = meters.group_updates->value();
  stats.log_dropped = meters.log_dropped->value();
  stats.risk_eval_seconds = meters.risk_eval_seconds->sum();
  stats.total_seconds = meters.total_seconds->value();
  stats.information_loss = meters.information_loss->value();

  // Fold the run into the process-wide registry for the exporters.
  meters.registry.MergeInto(&obs::MetricsRegistry::Global(), "cycle.");
  return stats;
}

}  // namespace vadasa::core
