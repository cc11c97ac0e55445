#include "common.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <fstream>

#include <numeric>

namespace perfbench {

std::vector<std::vector<std::size_t>> stratified_rounds(
    const std::vector<double>& cost, std::size_t strata, std::uint64_t seed) {
  const std::size_t n = cost.size();
  strata = std::clamp<std::size_t>(strata, 1, std::max<std::size_t>(1, n));
  std::vector<std::size_t> by_cost(n);
  std::iota(by_cost.begin(), by_cost.end(), 0);
  std::stable_sort(by_cost.begin(), by_cost.end(),
                   [&](std::size_t a, std::size_t b) { return cost[a] < cost[b]; });
  std::vector<std::vector<std::size_t>> bands(strata);
  std::size_t widest = 0;
  for (std::size_t b = 0; b < strata; ++b) {
    bands[b].assign(by_cost.begin() + static_cast<std::ptrdiff_t>(b * n / strata),
                    by_cost.begin() +
                        static_cast<std::ptrdiff_t>((b + 1) * n / strata));
    std::stable_sort(bands[b].begin(), bands[b].end(),
                     [&](std::size_t x, std::size_t y) { return cost[x] > cost[y]; });
    widest = std::max(widest, bands[b].size());
  }
  std::vector<std::vector<std::size_t>> rounds(widest);
  std::vector<std::size_t> band_order(strata);
  for (std::size_t round = 0; round < widest; ++round) {
    std::iota(band_order.begin(), band_order.end(), 0);
    shuffle(band_order, mix64(seed + 0x5bd1e995ULL) ^ mix64(round + 1));
    auto& order = rounds[round];
    for (const std::size_t b : band_order) {
      // Band b starts (strata - 1 - b) places into its descending order:
      // the costliest band starts at its top, the others staggered, so
      // every round mixes heavy and light members.
      const auto size = bands[b].size();
      if (round < size) {
        order.push_back(bands[b][(round + strata - 1 - b) % size]);
      }
    }
  }
  return rounds;
}

windowed windowed_medians(const std::vector<double>& done_at,
                          const std::vector<double>& latency, double elapsed,
                          double window_s) {
  const auto count = std::max<std::size_t>(
      1, static_cast<std::size_t>(elapsed / window_s));
  std::vector<std::vector<double>> per(count);
  for (std::size_t i = 0; i < done_at.size(); ++i) {
    const auto w = std::min(count - 1,
                            static_cast<std::size_t>(done_at[i] / window_s));
    per[w].push_back(latency[i]);
  }
  std::vector<double> thr, p50, p90, p99;
  for (std::size_t w = 0; w < count; ++w) {
    if (per[w].empty()) {
      continue;
    }
    // The last window also holds the tail past its nominal end.
    const double span =
        w + 1 < count ? window_s
                      : elapsed - window_s * static_cast<double>(count - 1);
    thr.push_back(static_cast<double>(per[w].size()) / span);
    p50.push_back(quantile(per[w], 0.50));
    p90.push_back(quantile(per[w], 0.90));
    p99.push_back(quantile(per[w], 0.99));
  }
  return {median(thr), median(p50), median(p90), median(p99), count};
}

namespace {
constexpr std::size_t kLoggedProblems = 5;
}

void report::incorrect(const std::string& what) {
  correct = false;
  if (logged_++ < kLoggedProblems) {
    notes.push_back("INCORRECT " + what);
  }
}

void report::fail(const std::string& what) {
  ++failed;
  if (logged_++ < kLoggedProblems) {
    notes.push_back("FAILED " + what);
  }
}

void report::merge(const report& other) {
  correct = correct && other.correct;
  attempted += other.attempted;
  failed += other.failed;
  notes.insert(notes.end(), other.notes.begin(), other.notes.end());
}

double peak_rss_mb() {
  rusage u{};
  ::getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double current_rss_mb() {
  std::ifstream statm{"/proc/self/statm"};
  std::size_t total_pages = 0;
  std::size_t resident_pages = 0;
  statm >> total_pages >> resident_pages;
  return static_cast<double>(resident_pages) *
         static_cast<double>(::sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

}  // namespace perfbench
