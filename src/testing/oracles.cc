#include "testing/oracles.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <unordered_map>

#include "core/anonymize.h"
#include "core/group_index.h"
#include "core/infoloss.h"
#include "core/suda.h"

namespace vadasa::testing {

using core::GroupStats;
using core::KAnonymityRisk;
using core::MicrodataTable;
using core::NullSemantics;

namespace {

constexpr double kEps = 1e-9;

std::string RowTag(size_t row) { return "row " + std::to_string(row); }

/// Whether rows `a` and `b` hold equal values (Value::Equals) in every QI
/// column selected by `mask`.
bool EqualOn(const MicrodataTable& table, const std::vector<size_t>& qi_columns,
             size_t a, size_t b, uint32_t mask) {
  for (size_t i = 0; i < qi_columns.size(); ++i) {
    if ((mask & (1u << i)) != 0 &&
        !table.cell(a, qi_columns[i]).Equals(table.cell(b, qi_columns[i]))) {
      return false;
    }
  }
  return true;
}

}  // namespace

Status CheckRisksInUnitRange(const std::vector<double>& risks) {
  for (size_t r = 0; r < risks.size(); ++r) {
    if (!(risks[r] >= -kEps && risks[r] <= 1.0 + kEps) || std::isnan(risks[r])) {
      return Status::FailedPrecondition("risk outside [0,1] at " + RowTag(r) + ": " +
                                        std::to_string(risks[r]));
    }
  }
  return Status::OK();
}

Status CheckPostCycleRisks(const core::MicrodataTable& released,
                           const core::RiskMeasure& measure,
                           const core::RiskContext& context, double threshold) {
  VADASA_ASSIGN_OR_RETURN(const std::vector<double> risks,
                          measure.ComputeRisks(released, context));
  VADASA_RETURN_NOT_OK(CheckRisksInUnitRange(risks));
  const std::vector<size_t> qis = context.ResolveQiColumns(released);
  for (size_t r = 0; r < risks.size(); ++r) {
    if (risks[r] <= threshold) continue;
    // Over threshold: only acceptable when the tuple is exhausted — every
    // quasi-identifier already suppressed, no further step exists.
    for (const size_t c : qis) {
      if (!released.cell(r, c).is_null()) {
        return Status::FailedPrecondition(
            RowTag(r) + " released with risk " + std::to_string(risks[r]) +
            " > T=" + std::to_string(threshold) + " but quasi-identifier \"" +
            released.attributes()[c].name + "\" is not suppressed");
      }
    }
  }
  return Status::OK();
}

Status CheckSuppressionMonotone(const core::MicrodataTable& table, size_t row,
                                size_t column, const core::RiskContext& context) {
  core::RiskContext ctx = context;
  ctx.semantics = NullSemantics::kMaybeMatch;  // The invariant is a =⊥ property.
  const std::vector<size_t> qis = ctx.ResolveQiColumns(table);
  VADASA_RETURN_NOT_OK(core::ValidateQiWidth(qis, ctx.semantics));
  if (std::find(qis.begin(), qis.end(), column) == qis.end() ||
      row >= table.num_rows() || table.cell(row, column).is_null()) {
    return Status::OK();  // Nothing to suppress: trivially monotone.
  }

  const GroupStats before = core::ComputeGroupStats(table, qis, ctx.semantics);
  KAnonymityRisk k_anon;
  VADASA_ASSIGN_OR_RETURN(const std::vector<double> risks_before,
                          k_anon.ComputeRisks(table, ctx));

  MicrodataTable suppressed = table;
  // Labels must stay fresh: continue past the highest label in the table.
  uint64_t max_label = 0;
  for (size_t r = 0; r < table.num_rows(); ++r) {
    for (const size_t c : qis) {
      if (table.cell(r, c).is_null()) {
        max_label = std::max(max_label, table.cell(r, c).null_label());
      }
    }
  }
  suppressed.set_cell(row, column, Value::Null(max_label + 1));

  const GroupStats after = core::ComputeGroupStats(suppressed, qis, ctx.semantics);
  VADASA_ASSIGN_OR_RETURN(const std::vector<double> risks_after,
                          k_anon.ComputeRisks(suppressed, ctx));

  for (size_t r = 0; r < table.num_rows(); ++r) {
    if (after.frequency[r] + kEps < before.frequency[r]) {
      return Status::FailedPrecondition(
          "suppressing (" + std::to_string(row) + "," + std::to_string(column) +
          ") shrank the maybe-match group of " + RowTag(r) + ": " +
          std::to_string(before.frequency[r]) + " -> " +
          std::to_string(after.frequency[r]));
    }
    if (risks_after[r] > risks_before[r] + kEps) {
      return Status::FailedPrecondition(
          "suppressing (" + std::to_string(row) + "," + std::to_string(column) +
          ") raised the k-anonymity risk of " + RowTag(r) + ": " +
          std::to_string(risks_before[r]) + " -> " + std::to_string(risks_after[r]));
    }
  }
  return Status::OK();
}

Status CheckSuppressionFreshLabels(const core::MicrodataTable& table, size_t row,
                                   size_t column) {
  const std::vector<size_t> qis = table.QuasiIdentifierColumns();
  if (std::find(qis.begin(), qis.end(), column) == qis.end() ||
      row >= table.num_rows() || table.cell(row, column).is_null()) {
    return Status::OK();  // Nothing to suppress.
  }
  const GroupStats before =
      core::ComputeGroupStats(table, qis, NullSemantics::kStandard);

  MicrodataTable suppressed = table;
  core::LocalSuppression method;
  if (!method.CanApply(suppressed, row, column)) return Status::OK();
  auto step = method.Apply(&suppressed, row, column);
  VADASA_RETURN_NOT_OK(step.status());

  const GroupStats after =
      core::ComputeGroupStats(suppressed, qis, NullSemantics::kStandard);
  for (size_t r = 0; r < table.num_rows(); ++r) {
    if (after.frequency[r] > before.frequency[r] + kEps) {
      return Status::FailedPrecondition(
          "suppressing (" + std::to_string(row) + "," + std::to_string(column) +
          ") with label ⊥_" + std::to_string(suppressed.cell(row, column).null_label()) +
          " grew the standard-semantics group of " + RowTag(r) + " from " +
          std::to_string(before.frequency[r]) + " to " +
          std::to_string(after.frequency[r]) +
          " — the injected null collides with a pre-existing label");
    }
  }
  return Status::OK();
}

Status CheckSudaPermutationInvariance(const core::MicrodataTable& table,
                                      const core::RiskContext& context, Rng* rng) {
  if (table.num_rows() < 2) return Status::OK();
  core::SudaRisk suda;
  VADASA_ASSIGN_OR_RETURN(const std::vector<double> scores,
                          suda.ComputeScores(table, context));
  VADASA_ASSIGN_OR_RETURN(const std::vector<double> risks,
                          suda.ComputeRisks(table, context));

  std::vector<size_t> perm(table.num_rows());
  for (size_t i = 0; i < perm.size(); ++i) perm[i] = i;
  rng->Shuffle(&perm);

  MicrodataTable permuted(table.name(), table.attributes());
  for (const size_t r : perm) {
    VADASA_RETURN_NOT_OK(permuted.AddRow(table.row(r)));
  }
  VADASA_ASSIGN_OR_RETURN(const std::vector<double> scores_perm,
                          suda.ComputeScores(permuted, context));
  VADASA_ASSIGN_OR_RETURN(const std::vector<double> risks_perm,
                          suda.ComputeRisks(permuted, context));

  for (size_t i = 0; i < perm.size(); ++i) {
    if (std::abs(scores_perm[i] - scores[perm[i]]) > kEps) {
      return Status::FailedPrecondition(
          "SUDA score not permutation-invariant: original " + RowTag(perm[i]) +
          " scored " + std::to_string(scores[perm[i]]) + ", permuted copy scored " +
          std::to_string(scores_perm[i]));
    }
    if (std::abs(risks_perm[i] - risks[perm[i]]) > kEps) {
      return Status::FailedPrecondition(
          "SUDA risk not permutation-invariant at original " + RowTag(perm[i]));
    }
  }
  return Status::OK();
}

Status CheckClusterRiskBounds(const core::MicrodataTable& table,
                              const core::OwnershipGraph& graph,
                              const std::string& id_column,
                              const std::vector<double>& base_risks) {
  const int id_col = table.ColumnIndex(id_column);
  if (id_col < 0 || base_risks.size() != table.num_rows()) {
    return Status::InvalidArgument("cluster oracle: bad id column or risk vector");
  }
  std::vector<double> transformed = base_risks;
  core::MakeClusterRiskTransform(&graph, id_column)(table, &transformed);

  // Independent recomputation of the closed form 1 − Π_c (1 − ρ_c).
  const auto clusters = graph.ComputeClusters();
  std::unordered_map<int, double> survive;
  std::vector<int> row_cluster(table.num_rows(), -1);
  for (size_t r = 0; r < table.num_rows(); ++r) {
    auto it = clusters.find(table.cell(r, static_cast<size_t>(id_col)).ToString());
    if (it == clusters.end()) continue;
    row_cluster[r] = it->second;
    auto [sit, ignore] = survive.try_emplace(it->second, 1.0);
    (void)ignore;
    sit->second *= 1.0 - std::clamp(base_risks[r], 0.0, 1.0);
  }

  for (size_t r = 0; r < table.num_rows(); ++r) {
    const double t = transformed[r];
    if (std::isnan(t) || t > 1.0 + kEps) {
      return Status::FailedPrecondition("cluster risk exceeds 1 at " + RowTag(r) +
                                        ": " + std::to_string(t));
    }
    if (t + kEps < base_risks[r]) {
      return Status::FailedPrecondition(
          "cluster risk below the member's own risk at " + RowTag(r) + ": " +
          std::to_string(base_risks[r]) + " -> " + std::to_string(t));
    }
    if (row_cluster[r] < 0) {
      if (std::abs(t - base_risks[r]) > kEps) {
        return Status::FailedPrecondition(
            "unlinked " + RowTag(r) + " had its risk rewritten: " +
            std::to_string(base_risks[r]) + " -> " + std::to_string(t));
      }
      continue;
    }
    const double expected =
        std::max(base_risks[r], 1.0 - survive[row_cluster[r]]);
    if (std::abs(t - expected) > 1e-6) {
      return Status::FailedPrecondition(
          "cluster risk at " + RowTag(r) + " is " + std::to_string(t) +
          ", expected 1 - prod(1-rho) = " + std::to_string(expected));
    }
  }
  return Status::OK();
}

Status CheckInfoLossMonotone(const core::MicrodataTable& table, size_t steps,
                             Rng* rng) {
  const std::vector<size_t> qis = table.QuasiIdentifierColumns();
  if (qis.empty() || table.num_rows() == 0) return Status::OK();

  MicrodataTable working = table;
  core::LocalSuppression method;
  double last_fraction = -1.0;
  double last_paper = -1.0;
  size_t nulls = 0;
  // Treat every tuple as initially risky for the paper metric's denominator:
  // monotonicity must hold for any fixed denominator.
  const size_t denom_tuples = table.num_rows();
  for (size_t s = 0; s < steps; ++s) {
    const size_t row = rng->NextBelow(working.num_rows());
    const size_t col = qis[rng->NextBelow(qis.size())];
    if (method.CanApply(working, row, col)) {
      auto step = method.Apply(&working, row, col);
      VADASA_RETURN_NOT_OK(step.status());
      nulls += step->nulls_injected;
    }
    const core::InformationLoss loss =
        core::MeasureInformationLoss(table, working, nullptr);
    const double paper = core::PaperInformationLoss(nulls, denom_tuples, qis.size());
    if (loss.suppressed_cell_fraction + kEps < last_fraction) {
      return Status::FailedPrecondition(
          "suppressed-cell fraction decreased after step " + std::to_string(s) +
          ": " + std::to_string(last_fraction) + " -> " +
          std::to_string(loss.suppressed_cell_fraction));
    }
    if (paper + kEps < last_paper) {
      return Status::FailedPrecondition(
          "paper information loss decreased after step " + std::to_string(s));
    }
    if (loss.suppressed_cell_fraction < -kEps ||
        loss.suppressed_cell_fraction > 1.0 + kEps || paper < -kEps ||
        paper > 1.0 + kEps) {
      return Status::FailedPrecondition("information loss left [0,1] after step " +
                                        std::to_string(s));
    }
    last_fraction = loss.suppressed_cell_fraction;
    last_paper = paper;
  }
  return Status::OK();
}

GroupStats NaiveGroupStats(const MicrodataTable& table,
                           const std::vector<size_t>& qi_columns,
                           NullSemantics semantics) {
  const size_t n = table.num_rows();
  GroupStats stats;
  stats.frequency.assign(n, 0.0);
  stats.weight_sum.assign(n, 0.0);
  for (size_t r = 0; r < n; ++r) {
    std::vector<Value> pattern;
    for (const size_t c : qi_columns) pattern.push_back(table.cell(r, c));
    const core::PatternMass mass =
        NaivePatternMass(table, qi_columns, pattern, semantics);
    stats.frequency[r] = mass.count;
    stats.weight_sum[r] = mass.weight;
  }
  return stats;
}

core::PatternMass NaivePatternMass(const MicrodataTable& table,
                                   const std::vector<size_t>& qi_columns,
                                   const std::vector<Value>& pattern,
                                   NullSemantics semantics) {
  core::PatternMass mass;
  for (size_t r = 0; r < table.num_rows(); ++r) {
    bool match = true;
    for (size_t i = 0; i < qi_columns.size() && match; ++i) {
      const Value& cell = table.cell(r, qi_columns[i]);
      match = semantics == NullSemantics::kMaybeMatch ? cell.MaybeEquals(pattern[i])
                                                      : cell.Equals(pattern[i]);
    }
    if (match) {
      mass.count += 1.0;
      mass.weight += table.RowWeight(r);
    }
  }
  return mass;
}

std::vector<std::vector<core::MinimalSampleUnique>> NaiveMsus(
    const MicrodataTable& table, const std::vector<size_t>& qi_columns, int max_size) {
  const size_t n = table.num_rows();
  const uint32_t limit = 1u << qi_columns.size();
  std::vector<std::vector<core::MinimalSampleUnique>> msus(n);
  std::vector<std::vector<uint32_t>> uniques(n);  // Per row, ascending size.
  for (int size = 1; size <= max_size; ++size) {
    for (uint32_t mask = 1; mask < limit; ++mask) {
      if (__builtin_popcount(mask) != size) continue;
      for (size_t r = 0; r < n; ++r) {
        bool suppressed = false;
        for (size_t i = 0; i < qi_columns.size(); ++i) {
          if ((mask & (1u << i)) != 0 && table.cell(r, qi_columns[i]).is_null()) {
            suppressed = true;
          }
        }
        if (suppressed) continue;
        size_t equal_rows = 0;
        for (size_t o = 0; o < n; ++o) {
          if (EqualOn(table, qi_columns, r, o, mask)) ++equal_rows;
        }
        if (equal_rows != 1) continue;
        bool minimal = true;
        for (const uint32_t u : uniques[r]) {
          if ((u & mask) == u) minimal = false;
        }
        uniques[r].push_back(mask);
        if (minimal) msus[r].push_back(core::MinimalSampleUnique{mask, size});
      }
    }
  }
  return msus;
}

Result<std::vector<double>> NaiveStatsMeasure::ComputeRisks(
    const MicrodataTable& table, const core::RiskContext& context,
    core::RiskEvalCache* cache) const {
  (void)cache;  // The cache's stats are exactly what this decorator replaces.
  const auto* grouping = dynamic_cast<const core::GroupingRiskMeasure*>(inner_);
  if (grouping == nullptr) return inner_->ComputeRisks(table, context);
  const std::vector<size_t> qis = context.ResolveQiColumns(table);
  VADASA_RETURN_NOT_OK(core::ValidateQiWidth(qis, context.semantics));
  return grouping->RisksFromStats(NaiveGroupStats(table, qis, context.semantics),
                                  context);
}

}  // namespace vadasa::testing
