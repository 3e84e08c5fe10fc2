#ifndef VADASA_CORE_REPORT_H_
#define VADASA_CORE_REPORT_H_

#include <string>

#include "common/result.h"
#include "core/cycle.h"
#include "core/global_risk.h"
#include "core/utility.h"

namespace vadasa::core {

/// A release audit: the accountability artifact a financial authority files
/// alongside an anonymized dataset (the paper's explainability desideratum
/// (vi) in document form). Bundles the file-level risk before and after,
/// the cycle's accounting and explained steps, and the utility damage.
struct ReleaseAudit {
  std::string microdb;
  size_t tuples = 0;
  size_t quasi_identifiers = 0;
  std::string risk_measure;
  double threshold = 0.0;
  GlobalRiskReport risk_before;
  GlobalRiskReport risk_after;
  CycleStats cycle;
  UtilityReport utility;

  /// Renders the full report as readable text.
  std::string ToText() const;
};

/// Runs the complete audited release: evaluates global risk, runs the cycle
/// (with step logging forced on), re-evaluates, and measures utility.
/// `table` is anonymized in place. All three evaluations go through `cache`
/// (e.g. seeded with a version's warm index), else through a local one. A
/// completed release records one sample of its outcome into each release.*
/// histogram of the global metrics registry (docs/observability.md).
Result<ReleaseAudit> RunAuditedRelease(MicrodataTable* table,
                                       const RiskMeasure& measure,
                                       Anonymizer* anonymizer, CycleOptions options,
                                       RiskEvalCache* cache = nullptr);

}  // namespace vadasa::core

#endif  // VADASA_CORE_REPORT_H_
