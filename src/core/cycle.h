#ifndef VADASA_CORE_CYCLE_H_
#define VADASA_CORE_CYCLE_H_

#include <functional>
#include <string>
#include <vector>

#include "common/cancel.h"
#include "common/result.h"
#include "core/anonymize.h"
#include "core/heuristics.h"
#include "core/microdata.h"
#include "core/risk.h"

namespace vadasa::core {

/// Optional hook that rewrites the per-row risk vector after the base
/// estimation — the business-knowledge injection point of Algorithm 9 (e.g.
/// cluster risk propagation along company-control links).
using RiskTransform =
    std::function<void(const MicrodataTable& table, std::vector<double>* risks)>;

/// Configuration of the anonymization cycle (Algorithm 2).
struct CycleOptions {
  /// Risk threshold T in [0,1]; a tuple is anonymized while its risk > T.
  double threshold = 0.5;
  RiskContext risk;
  TupleOrder tuple_order = TupleOrder::kLessSignificantFirst;
  QiChoice qi_choice = QiChoice::kMostRiskyFirst;
  /// Paper-literal mode: re-evaluate risk after every single anonymization
  /// step. Slower; the default batches steps within an iteration and skips
  /// tuples whose group was already touched, which yields the same greedy
  /// minimality up to ties.
  bool single_step = false;
  /// Record a human-readable justification for every step.
  bool log_steps = false;
  /// Upper bound on buffered log entries (log_steps mode). Long runs on big
  /// tables would otherwise grow CycleStats.log without bound; once the cap
  /// is hit a single "… log truncated" sentinel entry is appended and
  /// further justifications are dropped (counted in CycleStats.log_dropped).
  size_t max_log_steps = 10000;
  RiskTransform risk_transform;
  /// Cooperative cancellation / deadline token, polled at every iteration
  /// boundary (before each risk evaluation). When it fires, Run unwinds with
  /// Cancelled/DeadlineExceeded and the table is left mid-anonymization —
  /// callers must treat the table as scratch on a non-OK result. Not owned;
  /// nullptr = never cancelled.
  const CancelToken* cancel = nullptr;
};

/// Outcome and accounting of a cycle run.
///
/// Run counts into this struct, then adds a completed run to
/// obs::MetricsRegistry::Global() once under the "cycle." prefix: each count
/// adds to its counter, and total_seconds and information_loss become the
/// gauges' values. The phase-time histograms take one sample per iteration as
/// each phase ends. A run that fails adds no counts or gauges. All timers are
/// steady_clock.
struct CycleStats {
  size_t iterations = 0;
  size_t risk_evaluations = 0;
  size_t anonymization_steps = 0;
  size_t nulls_injected = 0;
  size_t cells_recoded = 0;
  /// Tuples over threshold at the first evaluation.
  size_t initial_risky = 0;
  /// Tuples still risky but with no applicable anonymization left (e.g. all
  /// quasi-identifiers already suppressed under standard null semantics).
  size_t unresolved = 0;
  /// The paper's Fig. 7b loss metric: nulls / (initial_risky × #QI).
  double information_loss = 0.0;
  double risk_eval_seconds = 0.0;
  double total_seconds = 0.0;
  /// From-scratch group-index constructions of the run's cache: 1 on a cold
  /// cache, 0 when the cache copied its warm index or the run never needed
  /// one. Either way at most 1 — a cycle that regrouped per iteration would
  /// count one per iteration — so the incremental reuse shows as <= 1.
  size_t group_rebuilds = 0;
  /// Incremental UpdateRows batches absorbed by the index.
  size_t group_updates = 0;
  /// Justifications dropped by the CycleOptions.max_log_steps cap.
  size_t log_dropped = 0;
  /// Step-by-step explanations (log_steps only). Capped at
  /// CycleOptions.max_log_steps entries plus one truncation sentinel.
  std::vector<std::string> log;
};

/// The sentinel appended to CycleStats.log when max_log_steps is exceeded.
inline constexpr const char* kLogTruncatedSentinel = "… log truncated";

/// The anonymization cycle: iterative risk evaluation + minimal anonymization
/// until every tuple's statistical disclosure risk is within the threshold
/// (or provably cannot be reduced further).
class AnonymizationCycle {
 public:
  AnonymizationCycle(const RiskMeasure* risk, Anonymizer* anonymizer,
                     CycleOptions options)
      : risk_(risk), anonymizer_(anonymizer), options_(std::move(options)) {}

  /// Runs in place on `table`, evaluating through `cache` (a run-local one
  /// when null), which sees every mutation through NotifyRowsChanged.
  Result<CycleStats> Run(MicrodataTable* table, RiskEvalCache* cache = nullptr);

 private:
  const RiskMeasure* risk_;
  Anonymizer* anonymizer_;
  CycleOptions options_;
};

}  // namespace vadasa::core

#endif  // VADASA_CORE_CYCLE_H_
