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
  /// Outer-iteration guard.
  size_t max_iterations = 10000;
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
/// The numeric fields are a *view over the run's metrics registry*: the cycle
/// meters every counter and timer into a local obs::MetricsRegistry (also
/// folded into obs::MetricsRegistry::Global() under the "cycle." prefix) and
/// derives this struct from one snapshot at the end of Run — the struct and
/// the exported metrics can never disagree. All timers are steady_clock.
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
  /// From-scratch group-index constructions of the run's cache. 1 proves the
  /// index was reused incrementally across iterations instead of being
  /// rebuilt per iteration; 0 when the measure never groups (e.g. SUDA-only
  /// runs build it lazily for the QI-choice heuristic).
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
