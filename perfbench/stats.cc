#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

std::vector<double> Quartiles(const std::vector<double>& sorted) {
  const size_t ld = sorted.size();
  if (ld == 1) return {sorted[0], sorted[0], sorted[0]};
  // CPython's statistics.quantiles, method="exclusive", n=4.
  const long m = static_cast<long>(ld) + 1;
  std::vector<double> out;
  for (long i = 1; i < 4; ++i) {
    long j = i * m / 4;
    j = std::clamp(j, 1L, static_cast<long>(ld) - 1);
    const long delta = i * m - j * 4;
    out.push_back((sorted[j - 1] * static_cast<double>(4 - delta) +
                   sorted[j] * static_cast<double>(delta)) /
                  4.0);
  }
  return out;
}

long TailIndex(size_t n, double* pct) {
  static constexpr double kCandidates[] = {99.9, 99.0, 95.0, 90.0, 75.0, 50.0};
  for (double p : kCandidates) {
    // Nearest rank: the ceil(p/100 * n)-th smallest sample.
    const auto rank =
        static_cast<size_t>(std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
    if (rank == 0 || rank > n) continue;
    if (n - rank >= kTailBeyond) {
      if (pct != nullptr) *pct = p;
      return static_cast<long>(rank) - 1;
    }
  }
  return -1;
}

Summary Summarize(std::vector<double> samples) {
  Summary s;
  s.n = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  const std::vector<double> q = Quartiles(samples);
  s.q1 = q[0];
  s.q3 = q[2];
  const size_t mid = s.n / 2;
  s.median = s.n % 2 == 1 ? samples[mid] : (samples[mid - 1] + samples[mid]) / 2.0;
  s.min = samples.front();
  s.max = samples.back();
  double pct = 0.0;
  const long tail = TailIndex(s.n, &pct);
  if (tail >= 0) {
    s.has_tail = true;
    s.tail_pct = pct;
    s.tail_value = samples[static_cast<size_t>(tail)];
    s.tail_beyond = s.n - static_cast<size_t>(tail) - 1;
  }
  return s;
}

}  // namespace perfbench
