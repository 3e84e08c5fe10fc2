#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstddef>
#include <vector>

namespace perfbench {

/// Median, quartiles and tail of one op class's samples.
///
/// Quartiles use the same rule as Python's statistics.quantiles(data, n=4)
/// (the "exclusive" method), so the spread a record states is the spread a
/// reader recomputes from the raw values.
struct Summary {
  size_t n = 0;
  double median = 0.0;
  double q1 = 0.0;
  double q3 = 0.0;
  double min = 0.0;
  double max = 0.0;
  /// The tail: the highest percentile of {99.9, 99, 95, 90, 75, 50} that
  /// still has at least kTailBeyond samples ranked above it. Absent when
  /// n < kTailBeyond + 2 (no percentile qualifies).
  bool has_tail = false;
  double tail_pct = 0.0;
  double tail_value = 0.0;
  size_t tail_beyond = 0;
};

/// Samples that must rank above a percentile before it may be reported.
inline constexpr size_t kTailBeyond = 10;

Summary Summarize(std::vector<double> samples);

/// The tail rule on its own, over sorted samples: the nearest-rank index
/// (0-based) of the highest candidate percentile with >= kTailBeyond samples
/// ranked above it, or -1 when none qualifies. `pct` receives the percentile.
long TailIndex(size_t n, double* pct);

/// Python statistics.quantiles(sorted, n=4) — returns {q1, q2, q3}. Needs at
/// least one sample; one sample yields three copies of it.
std::vector<double> Quartiles(const std::vector<double>& sorted);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
