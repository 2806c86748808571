#pragma once
// Measurement arithmetic of the benchmark: the percentile rule and span
// self time. Pure functions, covered by selftest.cpp.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Samples strictly above the nearest-rank `pct` percentile of `n` samples.
inline std::size_t samples_beyond(std::size_t n, double pct) {
  const auto rank = static_cast<std::size_t>(
      std::ceil(pct / 100.0 * static_cast<double>(n) - 1e-9));
  return n - std::min(rank, n);
}

/// The highest of the reported percentiles {50, 90, 99, 99.9, 99.99} that
/// leaves at least 10 samples beyond it; 0 when even p50 does not.
inline double highest_supported_percentile(std::size_t n) {
  double best = 0.0;
  for (const double p : {50.0, 90.0, 99.0, 99.9, 99.99}) {
    if (samples_beyond(n, p) >= 10) best = p;
  }
  return best;
}

/// Nearest-rank percentile of an ascending-sorted sample.
inline double percentile_sorted(const std::vector<double>& sorted,
                                double pct) {
  if (sorted.empty()) throw std::runtime_error("percentile of no samples");
  auto rank = static_cast<std::size_t>(
      std::ceil(pct / 100.0 * static_cast<double>(sorted.size()) - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

inline double percentile(std::vector<double> v, double pct) {
  std::sort(v.begin(), v.end());
  return percentile_sorted(v, pct);
}

/// Samples per p99 window: the fewest that leave 10 beyond p99.
inline constexpr std::size_t kP99Window = 1000;

/// Median and p99 of a latency sample, in the order it was collected. The
/// p50 is over the whole sample. The p99 is the median of the p99s of the
/// floor(n / 1000) consecutive windows the sample splits into, each window
/// leaving at least 10 values beyond its p99: a burst of host noise then
/// moves one window, not the reported figure. A sample too short for one
/// window is an error rather than a quiet lower percentile.
struct LatencySummary {
  std::size_t n = 0;
  std::size_t windows = 0;
  double p50 = 0.0;
  double p99 = 0.0;
  double top_pct = 0.0;  // highest percentile the whole sample supports
};

inline LatencySummary summarize_latency(const std::vector<double>& in_order,
                                        const std::string& what) {
  LatencySummary s;
  s.n = in_order.size();
  s.top_pct = highest_supported_percentile(s.n);
  s.windows = s.n / kP99Window;
  if (s.windows == 0) {
    throw std::runtime_error(what + ": " + std::to_string(s.n) +
                             " samples leave fewer than 10 beyond p99");
  }
  std::vector<double> window_p99;
  for (std::size_t w = 0; w < s.windows; ++w) {
    const std::size_t b = w * s.n / s.windows, e = (w + 1) * s.n / s.windows;
    window_p99.push_back(percentile(
        std::vector<double>(in_order.begin() + static_cast<std::ptrdiff_t>(b),
                            in_order.begin() + static_cast<std::ptrdiff_t>(e)),
        99.0));
  }
  std::sort(window_p99.begin(), window_p99.end());
  const std::size_t k = window_p99.size();
  s.p50 = percentile(in_order, 50.0);
  s.p99 = k % 2 ? window_p99[k / 2]
                : 0.5 * (window_p99[k / 2 - 1] + window_p99[k / 2]);
  return s;
}

/// "n=<samples> (supports p<top>), <windows> p99 windows" for the notes.
inline std::string describe(const LatencySummary& s) {
  char top[16];
  std::snprintf(top, sizeof(top), "%g", s.top_pct);
  return "n=" + std::to_string(s.n) + " (supports p" + top + "), " +
         std::to_string(s.windows) + " p99 windows";
}

/// Length of the part of [begin, end) covered by the union of `children`
/// (each clipped to the parent interval).
inline double covered_length(double begin, double end,
                             std::vector<std::pair<double, double>> children) {
  for (auto& c : children) {
    c.first = std::max(c.first, begin);
    c.second = std::min(c.second, end);
  }
  std::sort(children.begin(), children.end());
  double covered = 0.0;
  double reach = begin;
  for (const auto& [b, e] : children) {
    if (e <= reach) continue;
    covered += e - std::max(b, reach);
    reach = e;
  }
  return covered;
}

/// A span's self time: its duration minus the union of its children.
inline double self_time(double begin, double end,
                        const std::vector<std::pair<double, double>>& children) {
  return (end - begin) - covered_length(begin, end, children);
}

}  // namespace perfbench
