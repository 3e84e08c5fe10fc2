#include "core/heuristics.h"

#include <algorithm>
#include <unordered_map>

namespace vadasa::core {

Result<TupleOrder> TupleOrderFromString(const std::string& s) {
  if (s == "less-significant-first") return TupleOrder::kLessSignificantFirst;
  if (s == "most-risky-first") return TupleOrder::kMostRiskyFirst;
  if (s == "fifo") return TupleOrder::kFifo;
  return Status::InvalidArgument("unknown tuple order: " + s);
}

Result<QiChoice> QiChoiceFromString(const std::string& s) {
  if (s == "most-risky-first") return QiChoice::kMostRiskyFirst;
  if (s == "first-applicable") return QiChoice::kFirstApplicable;
  if (s == "rarest-value") return QiChoice::kRarestValue;
  return Status::InvalidArgument("unknown QI choice: " + s);
}

std::vector<size_t> OrderRiskyTuples(const MicrodataTable& table,
                                     const std::vector<size_t>& risky_rows,
                                     const std::vector<double>& risks,
                                     TupleOrder order) {
  std::vector<size_t> out = risky_rows;
  switch (order) {
    case TupleOrder::kFifo:
      break;
    case TupleOrder::kLessSignificantFirst:
      std::stable_sort(out.begin(), out.end(), [&](size_t a, size_t b) {
        return table.RowWeight(a) < table.RowWeight(b);
      });
      break;
    case TupleOrder::kMostRiskyFirst:
      std::stable_sort(out.begin(), out.end(), [&](size_t a, size_t b) {
        return risks[a] > risks[b];
      });
      break;
  }
  return out;
}

Result<size_t> ChooseQiColumn(const MicrodataTable& table,
                              const std::vector<size_t>& qi_columns, size_t row,
                              QiChoice choice, const Anonymizer& anonymizer,
                              const GroupIndex& index) {
  std::vector<size_t> applicable;
  for (const size_t c : qi_columns) {
    if (anonymizer.CanApply(table, row, c)) applicable.push_back(c);
  }
  if (applicable.empty()) {
    return Status::NotFound("no applicable quasi-identifier for row " +
                            std::to_string(row));
  }
  switch (choice) {
    case QiChoice::kFirstApplicable:
      return applicable.front();
    case QiChoice::kRarestValue: {
      size_t best = applicable.front();
      double best_count = -1.0;
      for (const size_t c : applicable) {
        double count = 0.0;
        const Value& v = table.cell(row, c);
        for (size_t r = 0; r < table.num_rows(); ++r) {
          if (table.cell(r, c).Equals(v)) count += 1.0;
        }
        if (best_count < 0.0 || count < best_count) {
          best_count = count;
          best = c;
        }
      }
      return best;
    }
    case QiChoice::kMostRiskyFirst: {
      // Score each candidate by the frequency the tuple would reach if that
      // column were wildcarded; highest reach = widest risk-reduction effect,
      // minimizing the number of suppressions needed (Section 4.4's example:
      // suppressing Sector of tuple 1 lifts its frequency to 5 in one step).
      std::vector<Value> pattern;
      pattern.reserve(qi_columns.size());
      for (const size_t c : qi_columns) pattern.push_back(table.cell(row, c));
      size_t best = applicable.front();
      double best_count = -1.0;
      for (const size_t c : applicable) {
        // Position of c inside qi_columns.
        size_t pos = 0;
        for (size_t i = 0; i < qi_columns.size(); ++i) {
          if (qi_columns[i] == c) pos = i;
        }
        const Value saved = pattern[pos];
        pattern[pos] = Value::Null(0);  // Wildcard for the what-if query.
        const double count = index.Query(pattern).count;
        pattern[pos] = saved;
        if (count > best_count) {
          best_count = count;
          best = c;
        }
      }
      return best;
    }
  }
  return applicable.front();
}

}  // namespace vadasa::core
