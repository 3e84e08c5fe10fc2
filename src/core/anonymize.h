#ifndef VADASA_CORE_ANONYMIZE_H_
#define VADASA_CORE_ANONYMIZE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/hierarchy.h"
#include "core/microdata.h"

namespace vadasa::core {

/// Record of one anonymization action, for the explainable cycle log.
struct AnonymizationStep {
  size_t row = 0;
  size_t column = 0;
  Value before;
  Value after;
  std::string method;
  /// Rows actually modified (1 for local suppression; possibly many for
  /// global recoding, which rewrites every occurrence of the value).
  size_t affected_rows = 1;
  /// Labelled nulls introduced by this step.
  size_t nulls_injected = 0;
  /// Indices of the rows this step modified — what the cycle feeds to
  /// RiskEvalCache::NotifyRowsChanged for incremental index maintenance.
  std::vector<uint32_t> changed_rows;

  std::string ToString(const MicrodataTable& table) const;
};

/// A pluggable anonymization method — the polymorphic `#anonymize` of
/// Algorithm 2. The cycle chooses (row, column); the method performs one
/// minimal information-removal step.
class Anonymizer {
 public:
  virtual ~Anonymizer() = default;

  virtual std::string name() const = 0;

  /// Whether this method can do anything to (row, column).
  virtual bool CanApply(const MicrodataTable& table, size_t row, size_t column) const = 0;

  /// Applies one step in place.
  virtual Result<AnonymizationStep> Apply(MicrodataTable* table, size_t row,
                                          size_t column) = 0;
};

/// Local suppression with labelled nulls (Algorithm 7): replaces the cell
/// with a fresh ⊥_k. Applicable to any non-null quasi-identifier cell.
class LocalSuppression : public Anonymizer {
 public:
  std::string name() const override { return "local-suppression"; }
  bool CanApply(const MicrodataTable& table, size_t row, size_t column) const override;
  Result<AnonymizationStep> Apply(MicrodataTable* table, size_t row,
                                  size_t column) override;

  uint64_t nulls_created() const { return nulls_created_; }

 private:
  uint64_t next_label_ = 1;
  uint64_t nulls_created_ = 0;
  bool label_seeded_ = false;
};

/// Global recoding over a domain hierarchy (Algorithm 8): replaces the cell's
/// value with its direct super-value — in *every* row carrying that value in
/// that column, hence "global".
class GlobalRecoding : public Anonymizer {
 public:
  explicit GlobalRecoding(const Hierarchy* hierarchy) : hierarchy_(hierarchy) {}

  std::string name() const override { return "global-recoding"; }
  bool CanApply(const MicrodataTable& table, size_t row, size_t column) const override;
  Result<AnonymizationStep> Apply(MicrodataTable* table, size_t row,
                                  size_t column) override;

 private:
  const Hierarchy* hierarchy_;
};

/// Record suppression: wipes *every* quasi-identifier of the row with fresh
/// labelled nulls in one step. The blunt instrument of the SDC toolbox —
/// maximal per-tuple information loss, but guaranteed to resolve any
/// combination-based risk in a single application. Used as an ablation
/// baseline against the minimal cell-wise methods.
class RecordSuppression : public Anonymizer {
 public:
  std::string name() const override { return "record-suppression"; }
  bool CanApply(const MicrodataTable& table, size_t row, size_t column) const override;
  Result<AnonymizationStep> Apply(MicrodataTable* table, size_t row,
                                  size_t column) override;

 private:
  uint64_t next_label_ = 1;
  bool label_seeded_ = false;
};

/// Tries global recoding first and falls back to local suppression when the
/// hierarchy has nothing left to offer — a pragmatic composition used by the
/// examples.
class RecodeThenSuppress : public Anonymizer {
 public:
  explicit RecodeThenSuppress(const Hierarchy* hierarchy) : recode_(hierarchy) {}

  std::string name() const override { return "recode-then-suppress"; }
  bool CanApply(const MicrodataTable& table, size_t row, size_t column) const override;
  Result<AnonymizationStep> Apply(MicrodataTable* table, size_t row,
                                  size_t column) override;

 private:
  GlobalRecoding recode_;
  LocalSuppression suppress_;
};

}  // namespace vadasa::core

#endif  // VADASA_CORE_ANONYMIZE_H_
