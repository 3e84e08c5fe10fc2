#include "testing/differential.h"

#include <cmath>

#include "common/thread_pool.h"
#include "core/anonymize.h"
#include "core/group_index.h"
#include "core/risk.h"
#include "testing/oracles.h"

namespace vadasa::testing {

using core::AnonymizationCycle;
using core::AttributeCategory;
using core::CycleOptions;
using core::CycleStats;
using core::MicrodataTable;

namespace {

/// The native RiskContext mirroring a BridgeOptions configuration.
core::RiskContext ContextFor(const core::BridgeOptions& options) {
  core::RiskContext ctx;
  ctx.k = options.k;
  ctx.semantics = options.maybe_match ? core::NullSemantics::kMaybeMatch
                                      : core::NullSemantics::kStandard;
  return ctx;
}

Status CheckRelease(const std::string& label, const MicrodataTable& input,
                    const MicrodataTable& released,
                    const std::vector<double>& input_risks,
                    const core::RiskMeasure& measure, const core::RiskContext& ctx,
                    double threshold) {
  const std::vector<size_t> qis = input.QuasiIdentifierColumns();
  // (3) Released tuples are safe or exhausted.
  Status post = CheckPostCycleRisks(released, measure, ctx, threshold);
  if (!post.ok()) {
    return Status::FailedPrecondition(label + ": " + post.ToString());
  }
  // (2) + (4): under =⊥ risk is monotone non-increasing in suppression, so
  // initially safe tuples are never anonymized — they must be released
  // cell-identical (which also proves only risky tuples carry new nulls).
  // Under standard semantics suppression can *raise* a neighbour's risk
  // (Fig. 7c), so the untouched guarantee only holds for maybe-match.
  if (ctx.semantics != core::NullSemantics::kMaybeMatch) return Status::OK();
  for (size_t r = 0; r < input.num_rows(); ++r) {
    if (input_risks[r] > threshold) continue;
    for (const size_t c : qis) {
      if (!released.cell(r, c).Equals(input.cell(r, c))) {
        return Status::FailedPrecondition(
            label + ": safe row " + std::to_string(r) + " had \"" +
            input.attributes()[c].name + "\" rewritten from " +
            input.cell(r, c).ToString() + " to " + released.cell(r, c).ToString());
      }
    }
  }
  return Status::OK();
}

}  // namespace

Result<DifferentialReport> CheckCycleDifferential(const core::MicrodataTable& input,
                                                  const core::BridgeOptions& options,
                                                  const core::OwnershipGraph* graph) {
  DifferentialReport report;
  const core::RiskContext ctx = ContextFor(options);
  VADASA_ASSIGN_OR_RETURN(const auto measure,
                          core::MakeRiskMeasure(options.risk_measure));

  // The cluster transform keys rows by the first identifier column.
  std::string id_column;
  const auto id_cols = input.ColumnsWithCategory(AttributeCategory::kIdentifier);
  if (!id_cols.empty()) id_column = input.attributes()[id_cols[0]].name;

  VADASA_ASSIGN_OR_RETURN(std::vector<double> input_risks,
                          measure->ComputeRisks(input, ctx));
  if (graph != nullptr && !id_column.empty()) {
    core::MakeClusterRiskTransform(graph, id_column)(input, &input_risks);
  }
  for (const double r : input_risks) {
    if (r > options.threshold) ++report.initially_risky;
  }

  // --- Imperative path. ---
  CycleOptions cycle_options;
  cycle_options.threshold = options.threshold;
  cycle_options.risk = ctx;
  if (graph != nullptr && !id_column.empty()) {
    cycle_options.risk_transform = core::MakeClusterRiskTransform(graph, id_column);
  }
  core::LocalSuppression suppression;
  AnonymizationCycle cycle(measure.get(), &suppression, cycle_options);
  report.imperative = input;
  VADASA_ASSIGN_OR_RETURN(report.imperative_stats, cycle.Run(&report.imperative));

  // --- Declarative path. ---
  core::VadalogBridge bridge(options);
  if (graph != nullptr) {
    VADASA_ASSIGN_OR_RETURN(report.declarative,
                            bridge.RunDeclarativeEnhancedCycle(
                                input, *graph, &report.declarative_stats));
  } else {
    VADASA_ASSIGN_OR_RETURN(report.declarative,
                            bridge.RunDeclarativeCycle(input, nullptr,
                                                       &report.declarative_stats));
  }

  // The declarative release drops identifiers; the cluster-risk recheck
  // below needs them, so the checked copy gets the input's identifier cells
  // back (they are metadata for the check, not part of the released QIs).
  MicrodataTable declarative = report.declarative;
  for (const size_t c : id_cols) {
    for (size_t r = 0; r < input.num_rows(); ++r) {
      declarative.set_cell(r, c, input.cell(r, c));
    }
  }

  VADASA_RETURN_NOT_OK(CheckRelease("imperative", input, report.imperative,
                                    input_risks, *measure, ctx, options.threshold));
  VADASA_RETURN_NOT_OK(CheckRelease("declarative", input, declarative, input_risks,
                                    *measure, ctx, options.threshold));
  return report;
}

Status CheckParallelDeterminism(const core::MicrodataTable& input,
                                const core::CycleOptions& options,
                                const std::string& measure_name, size_t threads) {
  VADASA_ASSIGN_OR_RETURN(const auto measure, core::MakeRiskMeasure(measure_name));

  struct Run {
    MicrodataTable table;
    CycleStats stats;
    std::vector<double> risks;
  };
  const size_t previous = ThreadPool::SetGlobalThreads(1);
  auto run_with = [&](size_t n) -> Result<Run> {
    ThreadPool::SetGlobalThreads(n);
    Run run;
    run.table = input;
    VADASA_ASSIGN_OR_RETURN(run.risks, measure->ComputeRisks(input, options.risk));
    core::LocalSuppression suppression;
    AnonymizationCycle cycle(measure.get(), &suppression, options);
    VADASA_ASSIGN_OR_RETURN(run.stats, cycle.Run(&run.table));
    return run;
  };

  auto sequential = run_with(1);
  auto parallel = run_with(threads);
  ThreadPool::SetGlobalThreads(previous);
  VADASA_RETURN_NOT_OK(sequential.status());
  VADASA_RETURN_NOT_OK(parallel.status());

  for (size_t r = 0; r < sequential->risks.size(); ++r) {
    if (sequential->risks[r] != parallel->risks[r]) {  // Bit-identity, not approx.
      return Status::FailedPrecondition(
          measure_name + " risk differs at row " + std::to_string(r) +
          " between 1 and " + std::to_string(threads) + " threads: " +
          std::to_string(sequential->risks[r]) + " vs " +
          std::to_string(parallel->risks[r]));
    }
  }
  for (size_t r = 0; r < input.num_rows(); ++r) {
    for (size_t c = 0; c < input.num_columns(); ++c) {
      const Value& a = sequential->table.cell(r, c);
      const Value& b = parallel->table.cell(r, c);
      // Strict equality including null labels.
      if (!a.Equals(b) || (a.is_null() && a.null_label() != b.null_label())) {
        return Status::FailedPrecondition(
            "released cell (" + std::to_string(r) + "," + std::to_string(c) +
            ") differs between 1 and " + std::to_string(threads) +
            " threads: " + a.ToString() + " vs " + b.ToString());
      }
    }
  }
  const CycleStats& s = sequential->stats;
  const CycleStats& p = parallel->stats;
  if (s.iterations != p.iterations || s.anonymization_steps != p.anonymization_steps ||
      s.nulls_injected != p.nulls_injected || s.initial_risky != p.initial_risky ||
      s.unresolved != p.unresolved) {
    return Status::FailedPrecondition(
        "cycle counters differ between 1 and " + std::to_string(threads) +
        " threads (iterations " + std::to_string(s.iterations) + " vs " +
        std::to_string(p.iterations) + ", steps " +
        std::to_string(s.anonymization_steps) + " vs " +
        std::to_string(p.anonymization_steps) + ")");
  }
  return Status::OK();
}

}  // namespace vadasa::testing
