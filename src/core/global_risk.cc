#include "core/global_risk.h"

#include <algorithm>
#include <sstream>

#include "core/group_index.h"

namespace vadasa::core {

std::string GlobalRiskReport::ToString() const {
  std::ostringstream os;
  os << "expected re-identifications (tau1): " << expected_reidentifications
     << "; global rate (tau2): " << global_risk_rate
     << "; over threshold: " << tuples_over_threshold << "; max risk: " << max_risk
     << "; sample uniques: " << sample_uniques;
  return os.str();
}

Result<GlobalRiskReport> ComputeGlobalRisk(const MicrodataTable& table,
                                           const RiskMeasure& measure,
                                           const RiskContext& context,
                                           double threshold, RiskEvalCache* cache) {
  GlobalRiskReport report;
  VADASA_ASSIGN_OR_RETURN(const std::vector<double> risks,
                          measure.ComputeRisks(table, context, cache));
  for (const double r : risks) {
    report.expected_reidentifications += r;
    report.max_risk = std::max(report.max_risk, r);
    if (r > threshold) ++report.tuples_over_threshold;
  }
  if (!risks.empty()) {
    report.global_risk_rate =
        report.expected_reidentifications / static_cast<double>(risks.size());
  }
  // Sample uniques need group frequencies: the cache's (the same grouping the
  // risks came from, for a grouping measure), else one cold pass.
  const std::vector<size_t> qis = context.ResolveQiColumns(table);
  GroupStats scratch;
  const GroupStats* stats = &scratch;
  if (cache != nullptr) {
    stats = &cache->Stats(table, qis, context.semantics);
  } else {
    scratch = ComputeGroupStats(table, qis, context.semantics);
  }
  for (const double f : stats->frequency) {
    if (f == 1.0) ++report.sample_uniques;
  }
  return report;
}

Result<double> InferThreshold(const MicrodataTable& table, const RiskMeasure& measure,
                              const RiskContext& context, double quantile,
                              RiskEvalCache* cache) {
  if (quantile <= 0.0 || quantile >= 1.0) {
    return Status::InvalidArgument("quantile must be in (0, 1)");
  }
  VADASA_ASSIGN_OR_RETURN(std::vector<double> risks,
                          measure.ComputeRisks(table, context, cache));
  if (risks.empty()) {
    return Status::FailedPrecondition("cannot infer a threshold from an empty table");
  }
  std::sort(risks.begin(), risks.end());
  size_t index = static_cast<size_t>(quantile * static_cast<double>(risks.size()));
  if (index >= risks.size()) index = risks.size() - 1;
  return risks[index];
}

}  // namespace vadasa::core
