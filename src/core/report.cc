#include "core/report.h"

#include <sstream>
#include <string>
#include <utility>

#include "obs/metrics.h"

namespace vadasa::core {

namespace {

/// One sample per release into the release.* histograms: the outcome the
/// audit reports, beside the cycle's cost in cycle.*. Nothing here is per
/// tuple, so recording costs nothing that grows with the table.
void RecordReleaseOutcome(const ReleaseAudit& audit) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  const auto record = [&registry](const std::string& name, double value) {
    registry.histogram("release." + name)->Record(value);
  };
  for (const auto& [side, risk] :
       {std::pair<const char*, const GlobalRiskReport*>{"risk_before", &audit.risk_before},
        std::pair<const char*, const GlobalRiskReport*>{"risk_after", &audit.risk_after}}) {
    const std::string prefix = std::string(side) + ".";
    record(prefix + "max_risk", risk->max_risk);
    record(prefix + "tuples_over_threshold",
           static_cast<double>(risk->tuples_over_threshold));
    record(prefix + "sample_uniques", static_cast<double>(risk->sample_uniques));
  }
  record("unresolved", static_cast<double>(audit.cycle.unresolved));
  record("information_loss", audit.cycle.information_loss);
  record("utility.max_total_variation", audit.utility.max_total_variation);
  record("utility.disturbed_pairs_fraction", audit.utility.disturbed_pairs_fraction);
}

}  // namespace

std::string ReleaseAudit::ToText() const {
  std::ostringstream os;
  os << "=== Release audit: " << microdb << " ===\n";
  os << "tuples: " << tuples << ", quasi-identifiers: " << quasi_identifiers
     << ", risk measure: " << risk_measure << ", threshold T = " << threshold << "\n";
  os << "\n-- disclosure risk before --\n  " << risk_before.ToString() << "\n";
  os << "-- disclosure risk after  --\n  " << risk_after.ToString() << "\n";
  os << "\n-- anonymization cycle --\n";
  os << "  iterations: " << cycle.iterations
     << ", risk evaluations: " << cycle.risk_evaluations
     << ", steps: " << cycle.anonymization_steps << "\n";
  os << "  initially risky: " << cycle.initial_risky
     << ", nulls injected: " << cycle.nulls_injected
     << ", cells recoded: " << cycle.cells_recoded
     << ", unresolved: " << cycle.unresolved << "\n";
  os << "  information loss (paper metric): " << cycle.information_loss << "\n";
  if (!cycle.log.empty()) {
    os << "  decisions:\n";
    for (const std::string& line : cycle.log) {
      os << "    " << line << "\n";
    }
  }
  os << "\n-- statistical utility --\n" << utility.ToString();
  return os.str();
}

Result<ReleaseAudit> RunAuditedRelease(MicrodataTable* table,
                                       const RiskMeasure& measure,
                                       Anonymizer* anonymizer, CycleOptions options,
                                       RiskEvalCache* cache) {
  RiskEvalCache local_cache;
  if (cache == nullptr) cache = &local_cache;
  ReleaseAudit audit;
  audit.microdb = table->name();
  audit.tuples = table->num_rows();
  audit.quasi_identifiers = options.risk.ResolveQiColumns(*table).size();
  audit.risk_measure = measure.name();
  audit.threshold = options.threshold;

  const MicrodataTable original = *table;
  // One cache from the before-risk through the cycle to the after-risk: the
  // cycle reports every mutation to it, so the after-risk reads the grouping
  // the cycle maintained.
  VADASA_ASSIGN_OR_RETURN(
      audit.risk_before,
      ComputeGlobalRisk(*table, measure, options.risk, options.threshold, cache));

  options.log_steps = true;
  AnonymizationCycle cycle(&measure, anonymizer, options);
  VADASA_ASSIGN_OR_RETURN(audit.cycle, cycle.Run(table, cache));

  VADASA_ASSIGN_OR_RETURN(
      audit.risk_after,
      ComputeGlobalRisk(*table, measure, options.risk, options.threshold, cache));
  VADASA_ASSIGN_OR_RETURN(audit.utility, MeasureUtility(original, *table));
  RecordReleaseOutcome(audit);
  return audit;
}

}  // namespace vadasa::core
