#ifndef VADASA_CORE_HEURISTICS_H_
#define VADASA_CORE_HEURISTICS_H_

#include <cstddef>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/anonymize.h"
#include "core/group_index.h"
#include "core/microdata.h"

namespace vadasa::core {

/// Which risky tuples to anonymize first — the Vadalog "routing strategies"
/// of Section 4.4 surfaced as cycle knobs.
enum class TupleOrder {
  /// "Less significant first": ascending sampling weight, so the tuples
  /// carrying the least data utility are touched first.
  kLessSignificantFirst,
  /// Descending risk.
  kMostRiskyFirst,
  /// Table order (no strategy — ablation baseline).
  kFifo,
};

/// Which quasi-identifier of a tuple to suppress/recode first.
enum class QiChoice {
  /// "Most risky first": score every applicable column by the frequency the
  /// tuple would reach if that column were wiped; pick the best.
  kMostRiskyFirst,
  /// First applicable column in schema order (ablation baseline).
  kFirstApplicable,
  /// Column whose current value is rarest in its column (cheap proxy).
  kRarestValue,
};

Result<TupleOrder> TupleOrderFromString(const std::string& s);
Result<QiChoice> QiChoiceFromString(const std::string& s);

/// Returns the indices of `risky_rows` ordered by the strategy.
std::vector<size_t> OrderRiskyTuples(const MicrodataTable& table,
                                     const std::vector<size_t>& risky_rows,
                                     const std::vector<double>& risks, TupleOrder order);

/// Picks the quasi-identifier column of `row` to anonymize, among columns the
/// anonymizer can act on. `index` provides what-if frequencies for
/// kMostRiskyFirst (GroupIndex::Query). Fails with NotFound when no column is
/// applicable (e.g. everything already suppressed).
Result<size_t> ChooseQiColumn(const MicrodataTable& table,
                              const std::vector<size_t>& qi_columns, size_t row,
                              QiChoice choice, const Anonymizer& anonymizer,
                              const GroupIndex& index);

}  // namespace vadasa::core

#endif  // VADASA_CORE_HEURISTICS_H_
