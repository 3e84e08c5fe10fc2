#ifndef VADASA_CORE_SUDA_H_
#define VADASA_CORE_SUDA_H_

#include <cstdint>
#include <vector>

#include "core/risk.h"

namespace vadasa::core {

/// One minimal sample unique of a row: the set of quasi-identifier columns
/// (as indices into the AnonSet) whose values jointly identify the row and
/// such that no proper subset does.
struct MinimalSampleUnique {
  uint32_t column_mask = 0;  ///< Bit i = i-th resolved QI column.
  int size = 0;

  bool operator==(const MinimalSampleUnique&) const = default;
};

/// Full per-row output of the MSU search, for explanation and tests.
struct SudaDetails {
  /// Per row: its MSUs (empty if the row is not sample-unique at all).
  std::vector<std::vector<MinimalSampleUnique>> msus;
  /// Number of column combinations whose frequencies were actually counted.
  size_t combos_evaluated = 0;
  /// Number of combinations skipped by the minimality pruning.
  size_t combos_pruned = 0;
};

/// Options of the SUDA estimator.
struct SudaOptions {
  /// Largest combination size searched; 0 means "use context.k" (risk only
  /// depends on MSUs smaller than k, and every subset of such a combination
  /// is also smaller than k, so size k-1 suffices — we search up to k to
  /// also report boundary MSUs).
  int max_search_size = 0;
  /// Ablation switch: evaluate every combination even when pruning proves it
  /// cannot yield a new MSU (Fig. 7f "blowup" baseline).
  bool exhaustive = false;
};

/// The Special Unique Detection Algorithm (Algorithm 6): a tuple is risky
/// (risk 1) when it has a minimal sample unique of size below the threshold
/// k, i.e. very few attributes suffice to single it out.
///
/// The search walks the column-combination lattice bottom-up. Only rows that
/// are unique on the full AnonSet can have any sample unique, and a
/// combination is skipped when every candidate row already owns a unique
/// proper subset of it — the greedy preemption the paper credits for the
/// absence of combinatorial blowup (Section 5.2). Within one combination
/// size, evaluated combinations are independent (a same-size combination is
/// never a proper subset of another), so each lattice level fans out over the
/// global thread pool and merges its sample uniques back in combination
/// order — the details are identical for any thread count.
class SudaRisk : public RiskMeasure {
 public:
  explicit SudaRisk(SudaOptions options = {}) : options_(options) {}

  std::string name() const override { return "suda"; }
  Result<std::vector<double>> ComputeRisks(const MicrodataTable& table,
                                           const RiskContext& context,
                                           RiskEvalCache* cache = nullptr) const override;
  std::string Explain(const MicrodataTable& table, const RiskContext& context,
                      size_t row, double risk,
                      RiskEvalCache* cache = nullptr) const override;

  /// Runs the MSU search and returns per-row details. With a cache, the
  /// details of the current table version are memoized, so ComputeRisks +
  /// per-row Explain within one cycle iteration share a single search.
  Result<SudaDetails> ComputeDetails(const MicrodataTable& table,
                                     const RiskContext& context,
                                     RiskEvalCache* cache = nullptr) const;

  /// Continuous SUDA scores (Elliot/Manning-style): each MSU of size s over
  /// M searched attributes contributes 2^(M-s) — smaller sample uniques are
  /// exponentially more dangerous. Returned per row, un-normalized (0 for
  /// rows without sample uniques). Use NormalizeSudaScores for a [0,1]
  /// DIS-style relative score.
  Result<std::vector<double>> ComputeScores(const MicrodataTable& table,
                                            const RiskContext& context,
                                            RiskEvalCache* cache = nullptr) const;

 private:
  SudaOptions options_;
};

/// Rescales raw SUDA scores into [0,1] by the table maximum (all-zero stays
/// all-zero) — a pragmatic stand-in for the DIS-SUDA intrusion-simulation
/// calibration.
std::vector<double> NormalizeSudaScores(std::vector<double> scores);

}  // namespace vadasa::core

#endif  // VADASA_CORE_SUDA_H_
