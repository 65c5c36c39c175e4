// Nearest-rank percentile, the repo's one percentile rule.
//
// Every published p50/p90/p99/p99.9 goes through these functions: the
// resilience sweep (sim/scenario.cpp), the load plane's LoadResult
// (load/loadgen.*) and the --breakdown distributions (load/breakdown.*).
// The rule is exact over the raw samples — nearest rank, ceil(p/100 * n),
// 1-based, clamped to the sample — the same as perfbench/metrics.py, so
// two surfaces can never drift apart by an off-by-one or a bucket edge.
//
// A percentile is published only when at least kMinBeyond samples lie
// beyond its rank (the choosing-metrics rule, perfbench's MIN_BEYOND):
// with fewer, "p99" is just a name for the largest few samples.
#pragma once

#include <cstddef>
#include <vector>

namespace teamnet::obs {

/// Samples a published percentile must have strictly above its rank.
inline constexpr std::size_t kMinBeyond = 10;

/// 1-based nearest-rank index for percentile `pct` (in (0, 100]) over `n`
/// ordered samples: ceil(pct/100 * n), clamped to [1, n]. pct/100 * n is
/// rounded to 6 decimal places first, so 99.9% of 1000 is rank 999, not
/// the 1000 that the product's rounding error would give. Returns 0 only
/// when n == 0 (no sample to name).
std::size_t nearest_rank(std::size_t n, double pct);

/// Nearest-rank percentile of `values` (sorts a copy; empty -> 0.0).
double nearest_rank_percentile(std::vector<double> values, double pct);

/// `value` (the pct-th percentile of `n` samples) when at least kMinBeyond
/// samples lie beyond its rank; NaN otherwise, which obs::json_double
/// writes as null.
double published_percentile(double value, std::size_t n, double pct);

/// Sum of `values` in the given order, divided by their count (0.0 when
/// empty). The order is part of the result's bytes.
double sample_mean(const std::vector<double>& values);

}  // namespace teamnet::obs
