#ifndef VADASA_TESTING_ORACLES_H_
#define VADASA_TESTING_ORACLES_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/result.h"
#include "core/business.h"
#include "core/cycle.h"
#include "core/microdata.h"
#include "core/risk.h"
#include "core/suda.h"

namespace vadasa::testing {

/// Invariant oracles: each checks one property the paper (or the SDC
/// literature) guarantees, on arbitrary inputs, and returns OK or a
/// FailedPrecondition status whose message pinpoints the violating row.
/// docs/testing.md carries the catalog with paper-algorithm references.

/// Every per-tuple risk is a probability: 0 <= rho <= 1 (Section 4.2 — all
/// four measures are defined as probabilities of re-identification).
Status CheckRisksInUnitRange(const std::vector<double>& risks);

/// After an anonymization cycle (Algorithm 2) every tuple's risk is within
/// the threshold T, or the tuple is exhausted (every quasi-identifier cell
/// suppressed — nothing left to remove). Checks the released table directly,
/// independent of how the cycle got there.
Status CheckPostCycleRisks(const core::MicrodataTable& released,
                           const core::RiskMeasure& measure,
                           const core::RiskContext& context, double threshold);

/// Suppressing one more cell never shrinks any maybe-match QI group
/// (=⊥ semantics, Section 4.3: a null matches anything, so wildcarding a
/// cell only widens match sets) — hence k-anonymity risk is monotone
/// non-increasing under suppression (Algorithms 4 and 7). Verifies both the
/// group frequencies and the k-anonymity risk vector across one suppression
/// of cell (row, column) applied to a copy of `table`.
Status CheckSuppressionMonotone(const core::MicrodataTable& table, size_t row,
                                size_t column, const core::RiskContext& context);

/// Under standard null semantics (⊥_i = ⊥_j iff i = j) a suppression must
/// inject a *fresh* labelled null: a fresh label matches nothing, so no
/// row's group frequency may grow when a cell is wildcarded away. A label
/// collision with a null already present in the input silently merges
/// unrelated groups and under-reports risk. Applies a real LocalSuppression
/// step to a copy of `table` at (row, column) and compares frequencies.
Status CheckSuppressionFreshLabels(const core::MicrodataTable& table, size_t row,
                                   size_t column);

/// SUDA scores (Algorithm 6) depend only on the multiset of QI projections,
/// never on row order: permuting the rows must permute the scores.
Status CheckSudaPermutationInvariance(const core::MicrodataTable& table,
                                      const core::RiskContext& context, Rng* rng);

/// Cluster risk (Algorithm 9): for every company cluster, the propagated
/// risk 1 − Π_c (1 − ρ_c) bounds each member's base risk from below, never
/// exceeds 1, and matches the closed form recomputed from the base risks.
Status CheckClusterRiskBounds(const core::MicrodataTable& table,
                              const core::OwnershipGraph& graph,
                              const std::string& id_column,
                              const std::vector<double>& base_risks);

/// Information loss is monotone in the number of anonymization steps applied
/// (Fig. 7b: every suppressed cell adds loss, none ever removes it). Checks
/// the paper metric and the suppressed-cell fraction across a sequence of
/// suppressions.
Status CheckInfoLossMonotone(const core::MicrodataTable& table, size_t steps,
                             Rng* rng);

/// Linear-scan reference for QI-group statistics — the =⊥ definition of
/// Section 4.3 evaluated literally. For every row r, frequency[r] counts the
/// rows whose QI cells all match r's, cell by cell (Value::MaybeEquals under
/// kMaybeMatch, Value::Equals under kStandard, as in core::CountMatches), and
/// weight_sum[r] adds up those rows' sampling weights. O(n² · |qi|) with no
/// hashing, dictionary codes or projection indexes, so it shares nothing with
/// core::ComputeGroupStats / core::GroupIndex that could hide a grouping bug.
///
/// Comparing its output with == is sound on generated tables: RandomTable
/// draws weights as small integers, so every partial sum is an integer far
/// below 2^53 and every summation order yields the same double.
core::GroupStats NaiveGroupStats(const core::MicrodataTable& table,
                                 const std::vector<size_t>& qi_columns,
                                 core::NullSemantics semantics);

/// Linear-scan reference for core::GroupIndex::Query: count and weight mass
/// of the rows matching `pattern` (one entry per QI column) cell by cell
/// under `semantics`.
core::PatternMass NaivePatternMass(const core::MicrodataTable& table,
                                   const std::vector<size_t>& qi_columns,
                                   const std::vector<Value>& pattern,
                                   core::NullSemantics semantics);

/// Brute-force minimal sample uniques (Algorithm 6): every column
/// combination of at most `max_size` QIs is checked against every row. Row r
/// is sample unique on a combination when none of its cells there is
/// suppressed and no other row equals it on all of them; the combination is
/// an MSU of r when no proper subset is also sample unique. Per row, MSUs are
/// listed by size, then by ascending column mask — the order SudaRisk
/// reports them in.
std::vector<std::vector<core::MinimalSampleUnique>> NaiveMsus(
    const core::MicrodataTable& table, const std::vector<size_t>& qi_columns,
    int max_size);

/// Test-only RiskMeasure decorator whose group statistics come from
/// NaiveGroupStats: ComputeRisks applies the wrapped grouping measure's own
/// formula (GroupingRiskMeasure::RisksFromStats) to the naive stats of the
/// current table, ignoring any cache, so the risks are the wrapped measure's
/// formula over the oracle's groups. Wrapping a measure that does not group
/// (SUDA) changes nothing.
class NaiveStatsMeasure : public core::RiskMeasure {
 public:
  explicit NaiveStatsMeasure(const core::RiskMeasure* inner) : inner_(inner) {}

  std::string name() const override { return inner_->name(); }
  Result<std::vector<double>> ComputeRisks(
      const core::MicrodataTable& table, const core::RiskContext& context,
      core::RiskEvalCache* cache = nullptr) const override;

 private:
  const core::RiskMeasure* inner_;
};

}  // namespace vadasa::testing

#endif  // VADASA_TESTING_ORACLES_H_
