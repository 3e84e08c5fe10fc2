#ifndef VADASA_CORE_GLOBAL_RISK_H_
#define VADASA_CORE_GLOBAL_RISK_H_

#include <cstddef>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/microdata.h"
#include "core/risk.h"

namespace vadasa::core {

/// Dataset-level disclosure risk indicators from the SDC literature
/// (Hundepool et al. [26]), computed on top of any per-tuple RiskMeasure.
/// These are the file-level numbers an RDC analyst signs off on before a
/// release (desideratum (iii): preemptive scoring).
struct GlobalRiskReport {
  /// τ1: expected number of correct re-identifications, Σ_t ρ_t.
  double expected_reidentifications = 0.0;
  /// τ2: τ1 / #tuples — the global re-identification rate.
  double global_risk_rate = 0.0;
  /// Tuples whose individual risk exceeds the threshold.
  size_t tuples_over_threshold = 0;
  /// The highest per-tuple risk in the file.
  double max_risk = 0.0;
  /// Number of sample-unique tuples on the full AnonSet.
  size_t sample_uniques = 0;

  std::string ToString() const;
};

/// Evaluates the file-level report using `measure` for the per-tuple risks
/// and the table's own frequencies for the uniqueness count, both through
/// `cache` when given.
Result<GlobalRiskReport> ComputeGlobalRisk(const MicrodataTable& table,
                                           const RiskMeasure& measure,
                                           const RiskContext& context,
                                           double threshold,
                                           RiskEvalCache* cache = nullptr);

/// Statistically infers the cycle threshold T from the data (the paper's
/// "statistically inferred or defined by the domain experts", Section 1):
/// the risk value at the given quantile of the per-tuple risk distribution,
/// so the cycle anonymizes exactly the top (1 − quantile) share of tuples.
/// `quantile` in (0,1); e.g. 0.99 targets the riskiest 1%.
Result<double> InferThreshold(const MicrodataTable& table, const RiskMeasure& measure,
                              const RiskContext& context, double quantile,
                              RiskEvalCache* cache = nullptr);

}  // namespace vadasa::core

#endif  // VADASA_CORE_GLOBAL_RISK_H_
