// Sample statistics shared by the benchmark and its tests.

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace perfbench {

/// 1-based nearest rank of quantile `q` in a sample of `n` (0 when n is 0).
inline size_t NearestRank(size_t n, double q) {
  if (n == 0) return 0;
  const double r = std::ceil(q * static_cast<double>(n) - 1e-9);
  return std::clamp<size_t>(static_cast<size_t>(std::max(r, 1.0)), 1, n);
}

/// Samples strictly beyond the nearest-rank quantile `q`.
inline size_t SamplesBeyond(size_t n, double q) {
  return n - NearestRank(n, q);
}

/// Smallest sample size whose quantile `q` leaves `beyond` samples past it.
inline size_t MinSamplesFor(double q, size_t beyond) {
  size_t n = beyond + 1;
  while (SamplesBeyond(n, q) < beyond) ++n;
  return n;
}

/// The highest of `candidates` that leaves at least `beyond` samples past
/// it in a sample of `n`; 0 when none does.
inline double HighestSupportedQuantile(size_t n,
                                       const std::vector<double>& candidates,
                                       size_t beyond) {
  double best = 0.0;
  for (double q : candidates) {
    if (n > 0 && SamplesBeyond(n, q) >= beyond) best = std::max(best, q);
  }
  return best;
}

/// Nearest-rank quantile of `v` (0 for an empty sample).
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  const size_t rank = NearestRank(v.size(), q);
  std::nth_element(v.begin(), v.begin() + (rank - 1), v.end());
  return v[rank - 1];
}

inline double Median(std::vector<double> v) {
  return Quantile(std::move(v), 0.5);
}

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
