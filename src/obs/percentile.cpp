#include "obs/percentile.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace teamnet::obs {

std::size_t nearest_rank(std::size_t n, double pct) {
  if (n == 0) return 0;
  const double exact = pct / 100.0 * static_cast<double>(n);
  std::size_t rank =
      static_cast<std::size_t>(std::ceil(std::round(exact * 1e6) / 1e6));
  if (rank == 0) rank = 1;
  return std::min(rank, n);
}

double nearest_rank_percentile(std::vector<double> values, double pct) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  return values[nearest_rank(values.size(), pct) - 1];
}

double published_percentile(double value, std::size_t n, double pct) {
  return n - nearest_rank(n, pct) >= kMinBeyond
             ? value
             : std::numeric_limits<double>::quiet_NaN();
}

double sample_mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

}  // namespace teamnet::obs
