// Order statistics for the benchmark's timings.
//
// A tail percentile is only reported when at least `kMinBeyond` samples
// lie beyond it; with fewer, one slow sample would decide the number.
#pragma once

#include <algorithm>
#include <cstddef>
#include <optional>
#include <utility>
#include <vector>

namespace signoffbench {

constexpr std::size_t kMinBeyond = 10;

/// 1-based nearest rank of the `percent`-th percentile of n samples:
/// ceil(percent * n / 100), at least 1. Integer arithmetic, so p90 of 100
/// samples is exactly rank 90.
inline std::size_t nearestRank(int percent, std::size_t n) {
    const std::size_t r =
        (static_cast<std::size_t>(percent) * n + 99) / 100;
    return std::max<std::size_t>(r, 1);
}

/// Nearest-rank percentile; samples must be non-empty.
inline double percentile(std::vector<double> samples, int percent) {
    std::sort(samples.begin(), samples.end());
    return samples[nearestRank(percent, samples.size()) - 1];
}

inline double median(const std::vector<double>& samples) {
    return percentile(samples, 50);
}

/// The `percent`-th percentile when at least kMinBeyond samples lie beyond
/// its rank, else nothing. p90 thus needs at least 100 samples.
inline std::optional<double> tailPercentile(const std::vector<double>& samples,
                                            int percent) {
    const std::size_t n = samples.size();
    if (n == 0 || n - nearestRank(percent, n) < kMinBeyond) {
        return std::nullopt;
    }
    return percentile(samples, percent);
}

/// The highest percentile from `maxPercent` down to 50 that has at least
/// kMinBeyond samples beyond it, with its value; the median (50) when even
/// that has fewer. Samples must be non-empty.
inline std::pair<int, double> highestResolvedPercentile(
    const std::vector<double>& samples, int maxPercent) {
    for (int p = maxPercent; p > 50; --p) {
        if (const auto v = tailPercentile(samples, p)) return {p, *v};
    }
    return {50, median(samples)};
}

}  // namespace signoffbench
