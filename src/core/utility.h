#ifndef VADASA_CORE_UTILITY_H_
#define VADASA_CORE_UTILITY_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "core/microdata.h"

namespace vadasa::core {

/// Statistical-utility preservation metrics, quantifying desideratum (v):
/// anonymization should remove the minimum information needed while keeping
/// the data statistically sound. All metrics compare an anonymized release
/// against the original microdata DB (same shape).

/// Per-attribute marginal comparison.
struct MarginalDistance {
  std::string attribute;
  /// Total variation distance between the categorical marginals, treating
  /// suppressed (null) cells as removed mass redistributed proportionally.
  double total_variation = 0.0;
  /// Fraction of this column's cells that are suppressed.
  double suppressed_fraction = 0.0;
};

/// Whole-release utility summary.
struct UtilityReport {
  std::vector<MarginalDistance> marginals;
  /// Maximum total-variation distance across quasi-identifier marginals.
  double max_total_variation = 0.0;
  /// Weighted-mean preservation of the first numeric non-identifying
  /// attribute (1.0 = perfectly preserved; 0 if none exists).
  double weighted_mean_ratio = 1.0;
  /// Fraction of pairwise QI contingency cells (2-way marginals) whose
  /// relative frequency moved by more than 1 percentage point.
  double disturbed_pairs_fraction = 0.0;

  std::string ToString() const;
};

/// Computes the report. Fails unless the tables have identical shape. Cells
/// are compared by their spelling (Value::ToString), so Int 1 and Double 1.0
/// count as one value, and Int 1234567 and Double 1234567.0 as two.
Result<UtilityReport> MeasureUtility(const MicrodataTable& original,
                                     const MicrodataTable& anonymized);

}  // namespace vadasa::core

#endif  // VADASA_CORE_UTILITY_H_
