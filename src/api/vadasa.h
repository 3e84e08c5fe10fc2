#ifndef VADASA_API_VADASA_H_
#define VADASA_API_VADASA_H_

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/cancel.h"
#include "common/result.h"
#include "core/business.h"
#include "core/categorize.h"
#include "core/delta.h"
#include "core/global_risk.h"
#include "core/group_index.h"
#include "core/metadata.h"
#include "core/microdata.h"
#include "core/report.h"
#include "core/risk.h"
#include "vadalog/engine.h"

namespace vadasa::api {

/// The stable public facade of the Vada-SA framework.
///
/// Everything an embedder (CLI, serving layer, notebook binding) needs lives
/// behind this header: open a dataset, score its disclosure risk, run the
/// audited anonymization cycle. Callers never touch GroupIndex, RiskEvalCache
/// or the cycle plumbing — those remain internal and free to change. All
/// entry points report failure via Status/Result (no bools, no sentinels);
/// see docs/api.md for the facade reference and migration notes.

/// Per-session knobs: the dataset-independent release policy.
struct SessionOptions {
  /// "k-anonymity", "reidentification", "individual" or "suda".
  std::string risk_measure = "k-anonymity";
  /// k of k-anonymity / the MSU size bound of SUDA. >= 1.
  int k = 2;
  /// Risk threshold T in [0,1]; a tuple is anonymized while risk > T.
  double threshold = 0.5;
  /// Use standard (Skolem) null semantics instead of the paper's =⊥.
  bool standard_nulls = false;
  /// Paper-literal single-step cycle (re-evaluate risk after every step).
  bool single_step = false;
  /// Route Anonymize through the Vadalog reasoning engine (the paper's
  /// declarative pipeline) instead of the native cycle.
  bool declarative = false;
  /// Monte-Carlo draws for the sampled individual-risk estimator (0 = closed
  /// form), and its seed.
  int posterior_draws = 0;
  uint64_t seed = 7;
};

/// Validates measure name, k and threshold ranges; returns the options
/// unchanged on success.
Result<SessionOptions> ValidateSessionOptions(SessionOptions options);

/// One over-threshold tuple with the measure's human-readable justification.
struct RiskyTuple {
  size_t row = 0;
  double risk = 0.0;
  std::string explanation;
};

/// Outcome of Session::Risk — per-tuple and file-level disclosure risk.
struct RiskReport {
  std::vector<double> tuple_risks;
  core::GlobalRiskReport global;
  double threshold = 0.0;
  /// Tuples with risk > threshold, in row order, with explanations.
  std::vector<RiskyTuple> risky;
  /// Threshold inferred at the requested quantile; < 0 when not requested.
  double inferred_threshold = -1.0;
};

/// Per-call knobs of Session::Anonymize.
struct AnonymizeRequest {
  /// Business-knowledge hook (Algorithm 9): propagate risk along control
  /// clusters of this graph. `ownership_id_column` names the identifier
  /// column holding company ids; empty = the table's first identifier column.
  const core::OwnershipGraph* ownership = nullptr;
  std::string ownership_id_column;
  /// Cooperative cancellation / deadline; nullptr = never cancelled.
  const CancelToken* cancel = nullptr;
};

/// The released table plus its accountability artifacts.
struct AnonymizeResponse {
  core::MicrodataTable table;
  /// Full audit (native path); default-constructed on the declarative path.
  core::ReleaseAudit audit;
  bool declarative = false;
  vadalog::RunStats declarative_stats;

  /// The audit text (native) or a one-line engine summary (declarative).
  std::string ToText() const;
};

/// The warm state of one dataset version, shared by every session on it: at
/// most one group index per null semantics over the table's own AnonSet. An
/// index is built at most once, under the state's lock (concurrent first
/// users wait for that build), and is immutable once published with its
/// Stats() forced, so any number of RiskEvalCaches may start from it.
class WarmState {
 public:
  explicit WarmState(std::shared_ptr<const core::MicrodataTable> table)
      : table_(std::move(table)) {}

  const core::MicrodataTable* table() const { return table_.get(); }

  /// Builds the index for `semantics` unless it exists. `built` (optional)
  /// reports whether this call built it. Fails, caching nothing, when the
  /// AnonSet is too wide for the semantics.
  Status Build(core::NullSemantics semantics, bool* built = nullptr);

  /// The index for `semantics` if built, else null. Never builds.
  std::shared_ptr<const core::GroupIndex> Find(core::NullSemantics semantics) const;

  /// The warm state of `child_table`, which ApplyDeltaToTable made from this
  /// state's table with `plan`: every built index is delta-patched
  /// (GroupIndex::ApplyDelta), bit-identical to a cold build.
  std::shared_ptr<WarmState> Derive(
      std::shared_ptr<const core::MicrodataTable> child_table,
      const core::DeltaRowPlan& plan) const;

 private:
  std::shared_ptr<const core::MicrodataTable> table_;
  mutable std::mutex mutex_;
  /// Indexed by core::NullSemantics.
  std::shared_ptr<const core::GroupIndex> indexes_[2];
};

/// An immutable dataset + policy pair, cheap to copy and safe to share
/// across threads: the table and dictionary are refcounted const snapshots,
/// the version's WarmState is shared by every copy, and every operation works
/// on copies. This is the unit the serving layer schedules — N concurrent
/// jobs over one Session produce byte-identical results to N sequential
/// calls.
class Session {
 public:
  /// An empty session — the moved-from/not-yet-opened state. Every real
  /// session comes from Open/FromTable/FromShared; calling Risk/Anonymize on
  /// an empty session returns FailedPrecondition.
  Session() = default;

  /// Loads a CSV, categorizes attributes via the default experience base and
  /// validates the options.
  static Result<Session> Open(const std::string& csv_path, SessionOptions options);

  /// Wraps an already-categorized table (tests, generators, RDC pipelines).
  static Result<Session> FromTable(core::MicrodataTable table, SessionOptions options);

  /// Wraps shared immutable state directly (the DatasetRegistry path — one
  /// load serves many sessions). `warm` is the version's shared warm state,
  /// which must have been made for `table`; null starts a fresh, cold one.
  static Result<Session> FromShared(
      std::shared_ptr<const core::MicrodataTable> table,
      std::shared_ptr<const core::MetadataDictionary> dictionary,
      SessionOptions options, std::shared_ptr<WarmState> warm = nullptr);

  const core::MicrodataTable& table() const { return *table_; }
  const std::shared_ptr<const core::MicrodataTable>& shared_table() const {
    return table_;
  }
  /// The metadata dictionary recorded at categorization; may be empty for
  /// FromTable sessions.
  const core::MetadataDictionary& dictionary() const { return *dictionary_; }
  /// Categorization conflicts pending manual review (EGD violations).
  const std::vector<core::CategorizationConflict>& conflicts() const {
    return conflicts_;
  }
  const SessionOptions& options() const { return options_; }

  /// Per-tuple + file-level risk under the session policy. `quantile` in
  /// (0,1) additionally infers the threshold at that quantile (< 0 = skip).
  /// `explain` attaches justifications to the over-threshold tuples. One
  /// RiskEvalCache, seeded with the warm index when built, serves it all.
  Result<RiskReport> Risk(double quantile = -1.0, bool explain = true) const;

  /// The statistically inferred threshold at `quantile` (Section 1).
  Result<double> InferThreshold(double quantile) const;

  /// Runs the audited anonymization cycle (or the declarative pipeline) on a
  /// copy of the dataset. The session itself never mutates.
  Result<AnonymizeResponse> Anonymize(const AnonymizeRequest& request = {}) const;

  /// Applies a validated DeltaBatch (docs/api.md §"Streaming deltas") and
  /// returns a NEW session over the post-delta table. Sessions stay
  /// immutable: this session is untouched and keeps serving pre-delta
  /// results bit-identically, so in-flight jobs holding it are never
  /// disturbed — the returned session is a sibling snapshot, not a mutation.
  ///
  /// Semantics (see core/delta.h): update/delete indices address THIS
  /// session's row numbering; updates apply first (last write per row wins),
  /// then deletes, then appends; surviving rows keep their relative order.
  /// The batch is validated before any state is touched — a column-count
  /// mismatch or out-of-range row returns InvalidArgument and a non-numeric
  /// sampling weight returns TypeError, in both cases leaving nothing to
  /// observe.
  ///
  /// Warm-state maintenance: the child's WarmState is derived from this
  /// session's (WarmState::Derive), so only groups the batch touches are
  /// re-aggregated; the delta-vs-full-recompute-bit-identical property pins
  /// the child to a cold build. A semantics never warmed here starts cold.
  /// Dictionary, conflicts and options carry over unchanged.
  Result<Session> Apply(const core::DeltaBatch& batch) const;

  /// Builds the group index of this session's (table, AnonSet, semantics) in
  /// the shared WarmState unless built — the only build; Open, FromTable and
  /// FromShared stay lazy. `built` (optional) reports whether this call built
  /// it. Warmed and cold sessions produce bit-identical results.
  Status Warm(bool* built = nullptr) const;

  /// Null only for an empty session.
  const std::shared_ptr<WarmState>& warm_state() const { return warm_; }

 private:
  Status CheckOpen() const;
  core::RiskContext MakeRiskContext() const;

  std::shared_ptr<const core::MicrodataTable> table_;
  std::shared_ptr<const core::MetadataDictionary> dictionary_;
  std::vector<core::CategorizationConflict> conflicts_;
  SessionOptions options_;
  std::shared_ptr<WarmState> warm_;
};

}  // namespace vadasa::api

#endif  // VADASA_API_VADASA_H_
