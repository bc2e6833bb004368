#include "servebench/stats.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace servebench {

Percentile TailPercentile(std::vector<double> samples, double q) {
  Percentile result;
  result.n = samples.size();
  if (samples.empty()) {
    return result;
  }
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  // 1-based nearest rank; the epsilon keeps q * n exact for q = 0.99, n = 1000.
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n) - 1e-9));
  rank = std::clamp<size_t>(rank, 1, n);
  result.supported = n > kTailSamples;
  rank = result.supported ? std::min(rank, n - kTailSamples) : 1;
  result.value = samples[rank - 1];
  result.q = static_cast<double>(rank) / static_cast<double>(n);
  return result;
}

std::vector<size_t> QuietestRounds(const std::vector<double>& steal, size_t keep) {
  std::vector<size_t> order(steal.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](size_t a, size_t b) { return steal[a] < steal[b]; });
  order.resize(std::min(keep, order.size()));
  std::sort(order.begin(), order.end());
  return order;
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : (values[mid - 1] + values[mid]) / 2.0;
}

}  // namespace servebench
