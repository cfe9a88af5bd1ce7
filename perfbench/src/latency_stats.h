// Latency percentiles over transaction attempts.
//
// Every attempt the closed loop starts inside the measuring window counts.
// An attempt that ends kFailed (deadline, no quorum) or never ends at all has
// no latency; it counts as infinitely slow, so a failure can only push a
// percentile up, never vanish from the sample.

#ifndef PERFBENCH_SRC_LATENCY_STATS_H_
#define PERFBENCH_SRC_LATENCY_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <vector>

namespace perfbench {

inline constexpr double kInfiniteLatency = std::numeric_limits<double>::infinity();

// Nearest-rank percentile (q in (0, 1]) of `latencies`, where a failed
// attempt is entered as kInfiniteLatency. Returns NaN for an empty sample.
inline double Percentile(std::vector<double> latencies, double q) {
  if (latencies.empty()) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(latencies.size())));
  rank = std::clamp<size_t>(rank, 1, latencies.size());
  std::nth_element(latencies.begin(), latencies.begin() + static_cast<ptrdiff_t>(rank - 1),
                   latencies.end());
  return latencies[rank - 1];
}

// Median of a small sample (the repeated set-up times), averaging the two
// middle values of an even-sized sample.
inline double Median(std::vector<double> values) {
  if (values.empty()) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  std::sort(values.begin(), values.end());
  size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : (values[mid - 1] + values[mid]) / 2.0;
}

}  // namespace perfbench

#endif  // PERFBENCH_SRC_LATENCY_STATS_H_
