#ifndef VADASA_CORE_RISK_H_
#define VADASA_CORE_RISK_H_

#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/result.h"
#include "core/group_index.h"
#include "core/microdata.h"

namespace vadasa::core {

/// Shared parameters of risk evaluation (Section 4.2). The general statistical
/// disclosure risk is ρ_q̂ = 1/λ(σ_{q=q̂} M) — each RiskMeasure is one choice
/// of the aggregate weight function λ.
struct RiskContext {
  /// The AnonSet: quasi-identifier columns considered by the evaluation.
  /// Empty means "all QI columns of the table".
  std::vector<size_t> qi_columns;
  /// Null comparison semantics for group formation.
  NullSemantics semantics = NullSemantics::kMaybeMatch;
  /// k of k-anonymity, and the MSU-size threshold of SUDA.
  int k = 2;
  /// Monte-Carlo draws for the sampled individual-risk estimator (0 = use a
  /// closed form).
  int posterior_draws = 0;
  /// With posterior_draws == 0: use the exact Benedetti–Franconi formulas
  /// instead of the simple f/ΣW closed form for the individual risk.
  bool benedetti_franconi = false;
  /// Seed for the sampled estimator.
  uint64_t seed = 7;

  /// Optional pre-computed group statistics for (table, AnonSet, semantics),
  /// shared read-only across evaluations — the serving layer's batch warmup:
  /// concurrent jobs against the same immutable dataset coalesce the group
  /// pass into one computation instead of redoing it per job. Contract: the
  /// stats must have been produced by ComputeGroupStats on the *exact current
  /// contents* of the table with the same resolved QI columns and semantics;
  /// callers must drop the pointer when the table mutates (the cycle is safe:
  /// it evaluates through its RiskEvalCache, which takes precedence). Ignored
  /// by measures that do not group (SUDA) and whenever a cache is supplied.
  std::shared_ptr<const GroupStats> warm_stats;

  /// Optional shared columnar materialization of the table (see columnar.h),
  /// with the same contract as warm_stats: valid for the exact current table
  /// contents only. Consulted by cache-less evaluations that must compute
  /// group stats from scratch (e.g. a serve job whose warm_stats cover a
  /// different AnonSet, or SUDA's projections), so concurrent jobs on one
  /// immutable dataset intern each column once.
  std::shared_ptr<const ColumnarView> warm_view;

  /// Resolves qi_columns against the table's schema.
  std::vector<size_t> ResolveQiColumns(const MicrodataTable& table) const;
};

/// A pluggable per-tuple statistical disclosure risk estimator. All risks are
/// in [0,1]; a tuple is "risky" when its risk exceeds the cycle threshold T.
///
/// `cache` (optional) memoizes group statistics and measure-specific state
/// across the calls of one cycle iteration — Explain reuses what ComputeRisks
/// already computed instead of re-deriving full group stats per logged row.
/// The cache's owner must report table mutations via
/// RiskEvalCache::NotifyRowsChanged. Passing nullptr always recomputes.
class RiskMeasure {
 public:
  virtual ~RiskMeasure() = default;

  virtual std::string name() const = 0;

  /// Computes the risk of every row of `table`.
  virtual Result<std::vector<double>> ComputeRisks(const MicrodataTable& table,
                                                   const RiskContext& context,
                                                   RiskEvalCache* cache = nullptr) const = 0;

  /// One-sentence, human-readable justification for a row's risk — the
  /// explainability hook used by the cycle log.
  virtual std::string Explain(const MicrodataTable& table, const RiskContext& context,
                              size_t row, double risk,
                              RiskEvalCache* cache = nullptr) const;
};

/// Re-identification-based risk (Algorithm 3): ρ = 1 / Σ W_t over the rows
/// sharing the tuple's QI combination. The weight sum estimates the
/// population size of the combination, i.e. |σ_t(M) ⋈ O|.
class ReidentificationRisk : public RiskMeasure {
 public:
  std::string name() const override { return "re-identification"; }
  Result<std::vector<double>> ComputeRisks(const MicrodataTable& table,
                                           const RiskContext& context,
                                           RiskEvalCache* cache = nullptr) const override;
};

/// k-anonymity (Algorithm 4): risk 1 if the combination occurs fewer than k
/// times in the sample, 0 otherwise.
class KAnonymityRisk : public RiskMeasure {
 public:
  std::string name() const override { return "k-anonymity"; }
  Result<std::vector<double>> ComputeRisks(const MicrodataTable& table,
                                           const RiskContext& context,
                                           RiskEvalCache* cache = nullptr) const override;
  std::string Explain(const MicrodataTable& table, const RiskContext& context,
                      size_t row, double risk,
                      RiskEvalCache* cache = nullptr) const override;
};

/// Individual risk (Algorithm 5, Benedetti–Franconi): ρ = 1/λ with
/// λ = Σ W_t / f_q̂, i.e. ρ = f/ΣW — the posterior mean of 1/F under a
/// negative-binomial model of the population frequency F given the sample
/// frequency f. With `posterior_draws > 0` the estimate is obtained by
/// actually sampling the negative binomial (the paper's "off-the-shelf
/// statistical library" mode of Fig. 7e). Sampling runs on the global thread
/// pool with one deterministic Rng stream per fixed row shard (seeded from
/// context.seed and the shard index), so the risk vector is identical for
/// any thread count.
class IndividualRisk : public RiskMeasure {
 public:
  std::string name() const override { return "individual-risk"; }
  Result<std::vector<double>> ComputeRisks(const MicrodataTable& table,
                                           const RiskContext& context,
                                           RiskEvalCache* cache = nullptr) const override;
};

/// Factory by name: "reidentification", "k-anonymity", "individual", "suda".
Result<std::unique_ptr<RiskMeasure>> MakeRiskMeasure(const std::string& name);

}  // namespace vadasa::core

#endif  // VADASA_CORE_RISK_H_
