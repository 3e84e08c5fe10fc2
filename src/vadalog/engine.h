#ifndef VADASA_VADALOG_ENGINE_H_
#define VADASA_VADALOG_ENGINE_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "vadalog/analysis.h"
#include "vadalog/ast.h"
#include "vadalog/database.h"
#include "vadalog/externals.h"

namespace vadasa::vadalog {

/// What to do when an EGD equates two distinct constants.
enum class EgdMode {
  kFail,     ///< Abort the chase with Status::EgdViolation.
  kCollect,  ///< Record the violation and continue (human-in-the-loop mode).
};

/// Knobs of the chase-based evaluation.
struct EngineOptions {
  /// Hard cap on semi-naive rounds per stratum (termination guard).
  size_t max_rounds = 100000;
  /// Hard cap on total facts (termination guard for non-terminating chases).
  size_t max_facts = 50'000'000;
  /// If true, an existential rule does not fire when a fact already
  /// satisfying the head exists (restricted-chase check). If false, a pure
  /// Skolem chase with memoized nulls is used.
  bool restricted_chase = true;
  /// Whether to remember body-fact support for each derivation.
  bool track_provenance = true;
  /// Refuse to run programs that are not warded.
  bool require_warded = false;
  EgdMode egd_mode = EgdMode::kFail;
};

/// Counters reported by a chase run.
struct RunStats {
  size_t rounds = 0;
  size_t facts_derived = 0;
  /// Labelled nulls created: existential head variables plus the nulls
  /// external actions allocate (ActionContext::FreshNull).
  size_t nulls_created = 0;
  size_t egd_substitutions = 0;
  size_t action_invocations = 0;
  /// Per-rule firing counts: rule_firings[i] is the number of complete body
  /// bindings rule i reached emission with (program order). Sized to the
  /// program's rule count on every run.
  std::vector<size_t> rule_firings;
  /// Time spent in the restricted-chase termination check (HeadSatisfied).
  /// Accrued only while obs tracing is enabled — the check sits on the
  /// existential hot path and is not timed in untraced runs (stays 0).
  double termination_check_seconds = 0.0;
  /// EGD constant-vs-constant violations (EgdMode::kCollect only).
  std::vector<std::string> egd_violations;
};

/// The reasoning core: a semi-naive, chase-based evaluator for the Vadalog
/// dialect — stratified negation, existentials as labelled nulls, EGDs with
/// null unification, monotonic aggregations with contributor semantics, and
/// external predicates/actions.
class Engine {
 public:
  explicit Engine(EngineOptions options = {}) : options_(options) {}

  ExternalRegistry* externals() { return &externals_; }

  /// Runs the program to fixpoint against `db` (facts are added in place).
  /// Program facts are asserted first.
  Result<RunStats> Run(const Program& program, Database* db);

 private:
  EngineOptions options_;
  ExternalRegistry externals_;
};

/// Convenience: parse + run a program on a database.
Result<RunStats> RunSource(const std::string& source, Database* db,
                           Engine* engine);

/// For monotonic-aggregate output predicates: groups rows of `predicate` by
/// all columns except `value_col` and keeps, per group, only the row whose
/// value column is extremal (max if `take_max`, else min). This selects the
/// *final* value of the monotone stream emitted during the chase.
std::vector<std::vector<Value>> FinalAggregateRows(const Database& db,
                                                   const std::string& predicate,
                                                   size_t value_col, bool take_max);

}  // namespace vadasa::vadalog

#endif  // VADASA_VADALOG_ENGINE_H_
