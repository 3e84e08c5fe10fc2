#include "core/utility.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <sstream>
#include <unordered_map>
#include <utility>

#include "common/flat_map.h"

namespace vadasa::core {

namespace {

// Counting by spelling id
// -----------------------
// Every comparison the report makes is between cell *spellings*
// (Value::ToString), never between values: Int 1234567 and Double 1234567.0
// compare equal but are spelled apart, while doubles equal to six digits
// share a spelling. So each QI column's cells get a dense spelling id, shared
// by both tables, and every count is over ids. Marginals count in flat arrays
// indexed by id; each QI pair counts in one hash table keyed by the packed
// pair of ids. Total variations are summed in ascending spelling order, the
// order a std::map keyed by spelling visits, so every field is bit-identical
// to counting spellings in ordered maps (testing::ReferenceMeasureUtility and
// the utility-matches-reference property).

/// Dense ids for the spellings of one column's cells, in first-seen order.
/// Each payload is looked up once per cell by identity; a string is its own
/// spelling, and any other value is spelled by Value::ToString once per
/// distinct payload.
class SpellingIds {
 public:
  uint32_t Id(const Value& v) {
    bool inserted = false;
    uint32_t& id = by_cell_.Emplace(CellKey::Of(v), &inserted);
    if (inserted) id = v.is_string() ? IdOf(v.as_string()) : IdOf(v.ToString());
    return id;
  }

  size_t size() const { return spellings_.size(); }

  /// Every id, ordered by ascending spelling (std::string's operator<).
  std::vector<uint32_t> Ascending() const {
    std::vector<uint32_t> order(spellings_.size());
    for (uint32_t id = 0; id < order.size(); ++id) order[id] = id;
    std::sort(order.begin(), order.end(), [this](uint32_t a, uint32_t b) {
      return *spellings_[a] < *spellings_[b];
    });
    return order;
  }

 private:
  uint32_t IdOf(const std::string& spelling) {
    auto [it, inserted] =
        by_spelling_.try_emplace(spelling, static_cast<uint32_t>(spellings_.size()));
    if (inserted) spellings_.push_back(&it->first);  // Nodes never move.
    return it->second;
  }

  FlatMap<CellKey, uint32_t, CellKeyHash> by_cell_{16};
  std::unordered_map<std::string, uint32_t> by_spelling_;
  std::vector<const std::string*> spellings_;  // id -> spelling
};

/// The anonymized side's id of a suppressed cell: excluded from every count.
constexpr uint32_t kSuppressed = std::numeric_limits<uint32_t>::max();

/// One QI column's cells as spelling ids, with its marginal counts.
struct ColumnIds {
  SpellingIds ids;
  std::vector<uint32_t> original;    // Per row; nulls included (pairs key them).
  std::vector<uint32_t> anonymized;  // Per row; kSuppressed for nulls.
  std::vector<size_t> original_counts;    // Per id, non-null cells only.
  std::vector<size_t> anonymized_counts;  // Per id, non-null cells only.
  size_t original_total = 0;
  size_t anonymized_total = 0;
  size_t suppressed = 0;

  /// Adds one row's original and released cell; `same` when they are one
  /// Value (a row the release shares with the original).
  void Add(const Value& before, const Value& after, bool same) {
    const uint32_t id = ids.Id(before);
    original.push_back(id);
    if (!before.is_null()) {
      Count(&original_counts, id);
      ++original_total;
    }
    if (after.is_null()) {
      anonymized.push_back(kSuppressed);
      ++suppressed;
      return;
    }
    const uint32_t after_id = same ? id : ids.Id(after);
    anonymized.push_back(after_id);
    Count(&anonymized_counts, after_id);
    ++anonymized_total;
  }

  /// Total variation between the two non-null marginals: first every
  /// spelling of the original's support, then the spellings only the release
  /// has, each pass in ascending spelling order.
  double TotalVariation() {
    original_counts.resize(ids.size(), 0);
    anonymized_counts.resize(ids.size(), 0);
    const std::vector<uint32_t> order = ids.Ascending();
    const auto mass = [](size_t count, size_t total) {
      return static_cast<double>(count) / static_cast<double>(total);
    };
    double tv = 0.0;
    for (const uint32_t id : order) {
      if (original_counts[id] == 0) continue;
      const double after =
          anonymized_counts[id] == 0 ? 0.0 : mass(anonymized_counts[id], anonymized_total);
      tv += std::fabs(mass(original_counts[id], original_total) - after);
    }
    for (const uint32_t id : order) {
      if (original_counts[id] == 0 && anonymized_counts[id] > 0) {
        tv += mass(anonymized_counts[id], anonymized_total);
      }
    }
    return tv / 2.0;
  }

 private:
  static void Count(std::vector<size_t>* counts, uint32_t id) {
    if (id >= counts->size()) counts->resize(id + 1, 0);
    ++(*counts)[id];
  }
};

/// Spells every QI cell of both tables, one row at a time. A release shares
/// the storage of each row the cycle left alone with the original, and such
/// a row's released cells take the original's ids without a lookup.
std::vector<ColumnIds> SpellColumns(const MicrodataTable& original,
                                   const MicrodataTable& anonymized,
                                   const std::vector<size_t>& qis) {
  const size_t n = anonymized.num_rows();
  std::vector<ColumnIds> columns(qis.size());
  for (ColumnIds& column : columns) {
    column.original.reserve(n);
    column.anonymized.reserve(n);
  }
  for (size_t r = 0; r < n; ++r) {
    const std::span<const Value> before = original.row(r);
    const std::span<const Value> after = anonymized.row(r);
    const bool same = before.data() == after.data();
    for (size_t q = 0; q < qis.size(); ++q) {
      columns[q].Add(before[qis[q]], after[qis[q]], same);
    }
  }
  return columns;
}

/// Counts of one QI pair's cell: rows of the original, and non-suppressed
/// rows of the release.
struct PairCounts {
  uint32_t before = 0;
  uint32_t after = 0;
};

uint64_t PackPair(uint32_t a, uint32_t b) { return (static_cast<uint64_t>(a) << 32) | b; }

}  // namespace

std::string UtilityReport::ToString() const {
  std::ostringstream os;
  os << "utility: max marginal TV " << max_total_variation
     << ", weighted-mean ratio " << weighted_mean_ratio
     << ", disturbed 2-way cells " << disturbed_pairs_fraction << "\n";
  for (const MarginalDistance& m : marginals) {
    os << "  " << m.attribute << ": TV " << m.total_variation << ", suppressed "
       << m.suppressed_fraction << "\n";
  }
  return os.str();
}

Result<UtilityReport> MeasureUtility(const MicrodataTable& original,
                                     const MicrodataTable& anonymized) {
  if (original.num_rows() != anonymized.num_rows() ||
      original.num_columns() != anonymized.num_columns()) {
    return Status::InvalidArgument(
        "utility comparison requires identically shaped tables");
  }
  UtilityReport report;
  const auto qis = anonymized.QuasiIdentifierColumns();
  const size_t n = anonymized.num_rows();

  std::vector<ColumnIds> columns = SpellColumns(original, anonymized, qis);
  for (size_t q = 0; q < qis.size(); ++q) {
    MarginalDistance m;
    m.attribute = anonymized.attributes()[qis[q]].name;
    m.total_variation = columns[q].TotalVariation();
    m.suppressed_fraction =
        n == 0 ? 0.0
               : static_cast<double>(columns[q].suppressed) / static_cast<double>(n);
    report.max_total_variation = std::max(report.max_total_variation, m.total_variation);
    report.marginals.push_back(std::move(m));
  }

  // Weighted mean of the first numeric non-identifying attribute.
  for (const size_t c :
       anonymized.ColumnsWithCategory(AttributeCategory::kNonIdentifying)) {
    bool numeric = n > 0 && anonymized.cell(0, c).is_numeric();
    if (!numeric) continue;
    double num_orig = 0.0;
    double num_anon = 0.0;
    double wsum = 0.0;
    for (size_t r = 0; r < n; ++r) {
      const double w = original.RowWeight(r);
      if (original.cell(r, c).is_numeric()) num_orig += w * original.cell(r, c).as_double();
      if (anonymized.cell(r, c).is_numeric()) {
        num_anon += w * anonymized.cell(r, c).as_double();
      }
      wsum += w;
    }
    if (wsum > 0.0 && num_orig != 0.0) {
      report.weighted_mean_ratio = num_anon / num_orig;
    }
    break;
  }

  // 2-way contingency disturbance across QI pairs: every cell of the
  // original's pair table, compared with the release's relative frequency.
  size_t cells = 0;
  size_t disturbed = 0;
  for (size_t i = 0; i + 1 < columns.size(); ++i) {
    for (size_t j = i + 1; j < columns.size(); ++j) {
      const ColumnIds& a = columns[i];
      const ColumnIds& b = columns[j];
      FlatMap<uint64_t, PairCounts, WordHash> pairs(
          std::min<size_t>(n, a.ids.size() * b.ids.size()));
      bool inserted = false;
      for (size_t r = 0; r < n; ++r) {
        ++pairs.Emplace(PackPair(a.original[r], b.original[r]), &inserted).before;
      }
      size_t n_after = 0;
      for (size_t r = 0; r < n; ++r) {
        if (a.anonymized[r] == kSuppressed || b.anonymized[r] == kSuppressed) continue;
        ++n_after;
        if (PairCounts* hit = pairs.Find(PackPair(a.anonymized[r], b.anonymized[r]))) {
          ++hit->after;
        }
      }
      pairs.ForEach([&](const PairCounts& counts) {
        const double p_before =
            static_cast<double>(counts.before) / static_cast<double>(n);
        const double p_after =
            counts.after == 0
                ? 0.0
                : static_cast<double>(counts.after) / static_cast<double>(n_after);
        ++cells;
        if (std::fabs(p_before - p_after) > 0.01) ++disturbed;
      });
    }
  }
  if (cells > 0) {
    report.disturbed_pairs_fraction =
        static_cast<double>(disturbed) / static_cast<double>(cells);
  }
  return report;
}

}  // namespace vadasa::core
