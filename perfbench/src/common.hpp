/// \file common.hpp
/// \brief Shared plumbing of the benchmark program: the monotonic clock,
///        sample statistics, the seeded order of a pool, and the report
///        printed as the last line of a run.

#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Seconds on the monotonic clock since an arbitrary, fixed origin.
inline double now_s() {
  using clock = std::chrono::steady_clock;
  static const auto origin = clock::now();
  return std::chrono::duration<double>(clock::now() - origin).count();
}

/// Linear-interpolation quantile (q in [0, 1]) of `v`; 0 for no samples.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double median(const std::vector<double>& v) {
  return quantile(v, 0.5);
}

/// splitmix64: the counter-based generator behind every seeded choice, so
/// item `i` of a stream is a pure function of (seed, i).
inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Seeded Fisher-Yates shuffle of `v`.
template <typename T>
void shuffle(std::vector<T>& v, std::uint64_t seed) {
  for (std::size_t i = v.size(); i > 1; --i) {
    const std::size_t j = mix64(seed ^ mix64(i)) % i;
    std::swap(v[i - 1], v[j]);
  }
}

/// The seeded, stratified rounds of a pool whose entries carry a
/// deterministic cost key.  Entries are sorted by cost and cut into
/// `strata` bands of neighbouring cost; a *round* takes one entry from
/// every band still holding one (so when the bands differ in width, the
/// last round holds only the wider bands' entries).  Inside a band the
/// entries come in descending cost, each band starting at a fixed,
/// staggered offset (the costliest band at its top), so round r asks the
/// same entries whatever the seed, every round mixes heavy and light
/// members, and every run of two or more rounds holds the pool's two
/// costliest entries: the work mix and its tail depend neither on the seed
/// nor on how many whole rounds a run completes.  The seed orders the
/// bands inside each round.  The rounds together visit every entry once.
std::vector<std::vector<std::size_t>> stratified_rounds(
    const std::vector<double>& cost, std::size_t strata, std::uint64_t seed);

/// Throughput and latency quantiles of a timed phase cut into windows of
/// `window_s` seconds by completion time, each the median over the
/// windows: a burst of machine noise moves one window, not the figure.
struct windowed {
  double throughput = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  std::size_t windows = 0;
};
windowed windowed_medians(const std::vector<double>& done_at,
                          const std::vector<double>& latency, double elapsed,
                          double window_s);

/// One metric of the final report.
struct metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a run prints as its last line.
struct report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<metric> metrics;
  /// Human-readable lines printed before the result line (sample counts,
  /// exact counters, first failures).
  std::vector<std::string> notes;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Records an incorrect output; the run fails its check.
  void incorrect(const std::string& what);
  /// Records a failed op (timeout, ERR, BUSY, incomplete enumeration).
  void fail(const std::string& what);
  /// Adds the ops, failures and notes of `other` (a client thread's own).
  void merge(const report& other);

private:
  std::size_t logged_ = 0;
};

/// Peak resident set size of this process in MiB.
double peak_rss_mb();

/// Current resident set size of this process in MiB.
double current_rss_mb();

}  // namespace perfbench
