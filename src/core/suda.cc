#include "core/suda.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <unordered_map>
#include <utility>

#include "common/thread_pool.h"
#include "core/columnar.h"
#include "obs/trace.h"

namespace vadasa::core {

namespace {

int Popcount(uint32_t m) { return __builtin_popcount(m); }

/// Enumerates all masks over `q` bits with exactly `s` bits set.
void CombosOfSize(int q, int s, std::vector<uint32_t>* out) {
  const uint32_t limit = 1u << q;
  for (uint32_t m = 1; m < limit; ++m) {
    if (Popcount(m) == s) out->push_back(m);
  }
}

/// Outcome of evaluating one combination for one candidate row: the row is
/// sample unique on the combination; `minimal` iff no prior-level unique
/// subset exists.
struct UniqueHit {
  uint32_t row = 0;
  bool minimal = false;
};

std::string DetailsMemoKey(const RiskContext& context, const SudaOptions& options,
                           const std::vector<size_t>& qis) {
  std::string key = "suda-details/k=" + std::to_string(context.k) +
                    "/max=" + std::to_string(options.max_search_size) +
                    "/exh=" + std::to_string(options.exhaustive ? 1 : 0) + "/qis=";
  for (const size_t c : qis) key += std::to_string(c) + ",";
  return key;
}

/// The MSU search over rows pre-projected onto the full AnonSet as
/// dictionary codes. Code equality coincides with Value::Equals and the
/// null-band test with Value::is_null, so counting code projections counts
/// value projections.
void FindMsus(const std::vector<CodeRow>& proj, int q, int max_size, bool exhaustive,
              SudaDetails* details) {
  const size_t n = proj.size();

  // Candidates: rows unique on the full AnonSet (a sample unique on any
  // subset implies uniqueness on the full set).
  std::vector<uint32_t> candidates;
  {
    std::unordered_map<CodeRow, int, CodeRowHash> counts;
    counts.reserve(n * 2);
    for (size_t r = 0; r < n; ++r) counts[proj[r]]++;
    for (size_t r = 0; r < n; ++r) {
      if (counts[proj[r]] == 1) candidates.push_back(static_cast<uint32_t>(r));
    }
  }
  if (candidates.empty()) return;

  // Per candidate: masks of combinations already known to be sample unique
  // (used both for minimality and for pruning). Within one level this is
  // frozen: two distinct same-size masks are never proper subsets of each
  // other, so prune and minimality decisions only ever read entries from
  // strictly smaller levels — which is what makes the level parallelizable.
  std::unordered_map<uint32_t, std::vector<uint32_t>> unique_combos;
  for (const uint32_t r : candidates) unique_combos[r] = {};

  for (int s = 1; s <= max_size; ++s) {
    std::vector<uint32_t> combos;
    CombosOfSize(q, s, &combos);

    // Prune decisions first (sequential, cheap — subset tests only).
    std::vector<uint32_t> eval;
    eval.reserve(combos.size());
    for (const uint32_t mask : combos) {
      if (!exhaustive) {
        // Prune: skip the combination when every candidate already owns a
        // unique proper subset of it — it cannot produce a new MSU.
        bool needed = false;
        for (const uint32_t r : candidates) {
          bool covered = false;
          for (const uint32_t u : unique_combos[r]) {
            if ((u & mask) == u) {
              covered = true;
              break;
            }
          }
          if (!covered) {
            needed = true;
            break;
          }
        }
        if (!needed) {
          ++details->combos_pruned;
          continue;
        }
      }
      eval.push_back(mask);
    }
    details->combos_evaluated += eval.size();

    // Evaluate the level's combinations concurrently; each produces its
    // candidate hits against the frozen prior-level unique_combos.
    std::vector<std::vector<UniqueHit>> hits(eval.size());
    ThreadPool::Global().ParallelFor(
        0, eval.size(), 1, [&](size_t lo, size_t hi, size_t /*shard*/) {
          CodeRow key;
          for (size_t i = lo; i < hi; ++i) {
            const uint32_t mask = eval[i];
            // Count projections of ALL rows onto this combination.
            std::unordered_map<CodeRow, int, CodeRowHash> counts;
            counts.reserve(n * 2);
            for (size_t r = 0; r < n; ++r) {
              key.clear();
              for (int b = 0; b < q; ++b) {
                if (mask & (1u << b)) key.push_back(proj[r][b]);
              }
              counts[key]++;
            }
            for (const uint32_t r : candidates) {
              key.clear();
              bool has_null = false;
              for (int b = 0; b < q; ++b) {
                if (mask & (1u << b)) {
                  if (IsNullCode(proj[r][b])) has_null = true;
                  key.push_back(proj[r][b]);
                }
              }
              // A combination containing a suppressed cell is invisible to
              // the attacker and cannot single the row out: local suppression
              // kills every MSU through the suppressed column.
              if (has_null) continue;
              if (counts[key] != 1) continue;
              // Sample unique. Minimal iff no previously found unique subset.
              bool minimal = true;
              for (const uint32_t u : unique_combos.at(r)) {
                if ((u & mask) == u) {
                  minimal = false;
                  break;
                }
              }
              hits[i].push_back(UniqueHit{r, minimal});
            }
          }
        });

    // Merge in combination order — reproduces the sequential result exactly.
    for (size_t i = 0; i < eval.size(); ++i) {
      const uint32_t mask = eval[i];
      for (const UniqueHit& hit : hits[i]) {
        unique_combos[hit.row].push_back(mask);
        if (hit.minimal) {
          details->msus[hit.row].push_back(MinimalSampleUnique{mask, s});
        }
      }
    }
  }
}

}  // namespace

Result<SudaDetails> SudaRisk::ComputeDetails(const MicrodataTable& table,
                                             const RiskContext& context,
                                             RiskEvalCache* cache) const {
  const auto qis = context.ResolveQiColumns(table);
  const int q = static_cast<int>(qis.size());
  if (q > 20) {
    return Status::InvalidArgument("SUDA supports at most 20 quasi-identifiers, got " +
                                   std::to_string(q));
  }
  const std::string memo_key = DetailsMemoKey(context, options_, qis);
  if (cache != nullptr) {
    if (auto memo = cache->Memo(memo_key)) {
      return *std::static_pointer_cast<SudaDetails>(memo);
    }
  }
  const size_t n = table.num_rows();
  SudaDetails details;
  details.msus.assign(n, {});
  if (q == 0 || n == 0) return details;

  const int max_size =
      options_.max_search_size > 0 ? std::min(options_.max_search_size, q)
                                   : std::min(context.k, q);

  // Project every row once onto the full AnonSet as dictionary codes; the
  // per-combination counting maps then hash and compare flat words. Reuse the
  // cache's view so the interning is shared with the grouping measures.
  const std::shared_ptr<const ColumnarView> view =
      cache != nullptr ? cache->View(table, qis, context.semantics)
                       : std::make_shared<const ColumnarView>(table);
  view->EnsureColumns(table, qis);
  std::vector<const uint32_t*> cols;
  cols.reserve(qis.size());
  for (const size_t c : qis) cols.push_back(view->Codes(c).data());
  std::vector<CodeRow> proj(n);
  for (size_t r = 0; r < n; ++r) {
    proj[r].reserve(cols.size());
    for (const uint32_t* col : cols) proj[r].push_back(col[r]);
  }
  FindMsus(proj, q, max_size, options_.exhaustive, &details);
  if (cache != nullptr) cache->SetMemo(memo_key, std::make_shared<SudaDetails>(details));
  return details;
}

Result<std::vector<double>> SudaRisk::ComputeRisks(const MicrodataTable& table,
                                                   const RiskContext& context,
                                                   RiskEvalCache* cache) const {
  obs::Span span("risk.compute.suda");
  VADASA_ASSIGN_OR_RETURN(const SudaDetails details,
                          ComputeDetails(table, context, cache));
  std::vector<double> risks(table.num_rows(), 0.0);
  for (size_t r = 0; r < risks.size(); ++r) {
    for (const MinimalSampleUnique& msu : details.msus[r]) {
      // Rule 8: dangerous when very few attributes disclose the identity.
      if (msu.size < context.k) {
        risks[r] = 1.0;
        break;
      }
    }
  }
  return risks;
}

Result<std::vector<double>> SudaRisk::ComputeScores(const MicrodataTable& table,
                                                    const RiskContext& context,
                                                    RiskEvalCache* cache) const {
  VADASA_ASSIGN_OR_RETURN(const SudaDetails details,
                          ComputeDetails(table, context, cache));
  const auto qis = context.ResolveQiColumns(table);
  const int m = static_cast<int>(qis.size());
  std::vector<double> scores(table.num_rows(), 0.0);
  for (size_t r = 0; r < scores.size(); ++r) {
    for (const MinimalSampleUnique& msu : details.msus[r]) {
      scores[r] += std::pow(2.0, std::max(0, m - msu.size));
    }
  }
  return scores;
}

std::vector<double> NormalizeSudaScores(std::vector<double> scores) {
  double max_score = 0.0;
  for (const double s : scores) max_score = std::max(max_score, s);
  if (max_score > 0.0) {
    for (double& s : scores) s /= max_score;
  }
  return scores;
}

std::string SudaRisk::Explain(const MicrodataTable& table, const RiskContext& context,
                              size_t row, double risk, RiskEvalCache* cache) const {
  auto details = ComputeDetails(table, context, cache);
  if (!details.ok()) return "suda: " + details.status().ToString();
  const auto qis = context.ResolveQiColumns(table);
  const auto& msus = details->msus[row];
  if (msus.empty()) return "no sample unique: tuple is not SUDA-risky";
  std::string out = std::to_string(msus.size()) + " MSU(s):";
  for (const auto& msu : msus) {
    out += " {";
    bool first = true;
    for (size_t b = 0; b < qis.size(); ++b) {
      if (msu.column_mask & (1u << b)) {
        if (!first) out += ",";
        first = false;
        out += table.attributes()[qis[b]].name + "=" + table.cell(row, qis[b]).ToString();
      }
    }
    out += "}";
  }
  out += risk > 0.5 ? " -> risky (an MSU smaller than k exists)" : " -> acceptable";
  return out;
}

}  // namespace vadasa::core
