// Order statistics for the serving benchmark.

#ifndef SERVEBENCH_STATS_H_
#define SERVEBENCH_STATS_H_

#include <cstddef>
#include <vector>

namespace servebench {

// A reported percentile must have at least this many samples above it.
inline constexpr size_t kTailSamples = 10;

struct Percentile {
  double value = 0.0;
  double q = 0.0;        // the quantile actually reported, rank / n
  size_t n = 0;          // sample count
  bool supported = false;  // false when n <= kTailSamples
};

// The nearest-rank q-quantile of `samples`, lowered to the highest rank
// that still leaves kTailSamples samples above it: p99 of 500 samples is
// reported as their p98.
Percentile TailPercentile(std::vector<double> samples, double q);

// Indices, in ascending order, of the `keep` rounds with the least host
// steal (`steal[i]` is round i's share of CPU time the host took away);
// among equal shares the earlier round is kept.
std::vector<size_t> QuietestRounds(const std::vector<double>& steal, size_t keep);

double Median(std::vector<double> values);

}  // namespace servebench

#endif  // SERVEBENCH_STATS_H_
