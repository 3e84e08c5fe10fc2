#include "core/risk.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <unordered_map>
#include <utility>

#include "common/thread_pool.h"
#include "core/suda.h"
#include "obs/trace.h"

namespace vadasa::core {

namespace {

/// Distinct (frequency, weight_sum) pairs per sampling shard of the
/// Monte-Carlo individual-risk estimator. Fixed (independent of the pool
/// size) so each shard's Rng stream — and therefore the risk vector — is
/// identical for any thread count.
constexpr size_t kSampleShardPairs = 64;

/// splitmix64 of (seed, shard): decorrelates the per-shard Rng streams.
uint64_t ShardSeed(uint64_t seed, uint64_t shard) {
  uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (shard + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Group stats via the cache (shared across the report or release), or a
/// one-shot computation into `scratch`.
const GroupStats& CachedStats(const MicrodataTable& table,
                              const std::vector<size_t>& qis, NullSemantics semantics,
                              RiskEvalCache* cache, GroupStats* scratch) {
  if (cache != nullptr) return cache->Stats(table, qis, semantics);
  *scratch = ComputeGroupStats(table, qis, semantics);
  return *scratch;
}

}  // namespace

std::vector<size_t> RiskContext::ResolveQiColumns(const MicrodataTable& table) const {
  if (!qi_columns.empty()) return qi_columns;
  return table.QuasiIdentifierColumns();
}

std::string RiskMeasure::Explain(const MicrodataTable& table, const RiskContext& context,
                                 size_t row, double risk, RiskEvalCache* cache) const {
  (void)cache;
  const auto qis = context.ResolveQiColumns(table);
  std::string combo;
  for (const size_t c : qis) {
    if (!combo.empty()) combo += ", ";
    combo += table.attributes()[c].name + "=" + table.cell(row, c).ToString();
  }
  return name() + " risk " + std::to_string(risk) + " for combination {" + combo + "}";
}

Result<std::vector<double>> GroupingRiskMeasure::ComputeRisks(
    const MicrodataTable& table, const RiskContext& context,
    RiskEvalCache* cache) const {
  obs::Span span(span_name_);
  const auto qis = context.ResolveQiColumns(table);
  VADASA_RETURN_NOT_OK(ValidateQiWidth(qis, context.semantics));
  GroupStats scratch;
  return RisksFromStats(CachedStats(table, qis, context.semantics, cache, &scratch),
                        context);
}

std::vector<double> ReidentificationRisk::RisksFromStats(
    const GroupStats& stats, const RiskContext& /*context*/) const {
  std::vector<double> risks(stats.weight_sum.size());
  for (size_t r = 0; r < risks.size(); ++r) {
    const double w = stats.weight_sum[r];
    risks[r] = w <= 1.0 ? 1.0 : std::min(1.0, 1.0 / w);
  }
  return risks;
}

std::vector<double> KAnonymityRisk::RisksFromStats(const GroupStats& stats,
                                                   const RiskContext& context) const {
  std::vector<double> risks(stats.frequency.size());
  for (size_t r = 0; r < risks.size(); ++r) {
    risks[r] = stats.frequency[r] < static_cast<double>(context.k) ? 1.0 : 0.0;
  }
  return risks;
}

std::string KAnonymityRisk::Explain(const MicrodataTable& table,
                                    const RiskContext& context, size_t row, double risk,
                                    RiskEvalCache* cache) const {
  const auto qis = context.ResolveQiColumns(table);
  if (const Status width = ValidateQiWidth(qis, context.semantics); !width.ok()) {
    return "k-anonymity: " + width.ToString();
  }
  // With a cache this is one incremental-index lookup; without one it falls
  // back to a full O(n) group-stats pass per explained row.
  GroupStats scratch;
  const GroupStats& stats = CachedStats(table, qis, context.semantics, cache, &scratch);
  std::string combo;
  for (const size_t c : qis) {
    if (!combo.empty()) combo += ", ";
    combo += table.attributes()[c].name + "=" + table.cell(row, c).ToString();
  }
  const double freq = stats.frequency[row];
  std::string verdict;
  if (risk <= 0.5) {
    verdict = " -> safe";
  } else if (freq < static_cast<double>(context.k)) {
    verdict = " -> below k, risky";
  } else {
    // The base frequency is fine, so the risk was raised externally (e.g.
    // cluster propagation along control relationships, Algorithm 9).
    verdict = " -> risky by propagation (business knowledge)";
  }
  return "combination {" + combo + "} occurs " +
         std::to_string(static_cast<int64_t>(freq)) +
         " time(s); k=" + std::to_string(context.k) + verdict;
}

std::vector<double> IndividualRisk::RisksFromStats(const GroupStats& stats,
                                                   const RiskContext& context) const {
  std::vector<double> risks(stats.frequency.size());
  if (context.posterior_draws <= 0) {
    for (size_t r = 0; r < risks.size(); ++r) {
      risks[r] = context.benedetti_franconi
                     ? stats::BenedettiFranconiRisk(stats.frequency[r],
                                                    stats.weight_sum[r])
                     : stats::NegBinomialPosteriorRiskClosedForm(
                           stats.frequency[r], stats.weight_sum[r]);
    }
    return risks;
  }
  // Monte-Carlo mode. Rows with identical (frequency, weight_sum) describe
  // the same equivalence-class posterior, so each distinct pair is sampled
  // once and the estimate broadcast to its rows — exactly as the closed form
  // maps equal group stats to equal risk. At scale that collapses millions
  // of row draws into thousands of pair draws per evaluation. Pair ids are
  // assigned in first-row order and sampled in fixed shards with one Rng
  // stream each, so the vector is deterministic in (table, seed) and
  // bit-identical for any thread count.
  const int draws = context.posterior_draws;
  const uint64_t seed = context.seed;
  struct PairHash {
    size_t operator()(const std::pair<uint64_t, uint64_t>& p) const {
      uint64_t z = p.first ^ (p.second * 0x9E3779B97F4A7C15ULL);
      z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
      return static_cast<size_t>(z ^ (z >> 27));
    }
  };
  auto bits = [](double d) {
    uint64_t u;
    std::memcpy(&u, &d, sizeof(u));
    return u;
  };
  std::unordered_map<std::pair<uint64_t, uint64_t>, uint32_t, PairHash> pair_ids;
  pair_ids.reserve(risks.size() / 4);
  std::vector<std::pair<double, double>> distinct;
  std::vector<uint32_t> row_pair(risks.size());
  for (size_t r = 0; r < risks.size(); ++r) {
    const auto [it, inserted] = pair_ids.emplace(
        std::make_pair(bits(stats.frequency[r]), bits(stats.weight_sum[r])),
        static_cast<uint32_t>(distinct.size()));
    if (inserted) distinct.emplace_back(stats.frequency[r], stats.weight_sum[r]);
    row_pair[r] = it->second;
  }
  std::vector<double> pair_risk(distinct.size());
  ThreadPool::Global().ParallelFor(
      0, distinct.size(), kSampleShardPairs,
      [&](size_t lo, size_t hi, size_t shard) {
        Rng rng(ShardSeed(seed, shard));
        for (size_t i = lo; i < hi; ++i) {
          pair_risk[i] = stats::NegBinomialPosteriorRiskSampled(
              distinct[i].first, distinct[i].second, draws, &rng);
        }
      });
  for (size_t r = 0; r < risks.size(); ++r) risks[r] = pair_risk[row_pair[r]];
  return risks;
}

Result<std::unique_ptr<RiskMeasure>> MakeRiskMeasure(const std::string& name) {
  if (name == "reidentification" || name == "re-identification") {
    return std::unique_ptr<RiskMeasure>(new ReidentificationRisk());
  }
  if (name == "k-anonymity" || name == "kanonymity") {
    return std::unique_ptr<RiskMeasure>(new KAnonymityRisk());
  }
  if (name == "individual" || name == "individual-risk") {
    return std::unique_ptr<RiskMeasure>(new IndividualRisk());
  }
  if (name == "suda") {
    return std::unique_ptr<RiskMeasure>(new SudaRisk());
  }
  return Status::NotFound("unknown risk measure: " + name);
}

}  // namespace vadasa::core
