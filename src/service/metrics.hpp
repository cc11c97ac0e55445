/// \file metrics.hpp
/// \brief Lock-free service metrics: atomic counters and a latency
///        histogram with log2 buckets.
///
/// The batch path increments these from every worker; reads produce a
/// consistent-enough `snapshot()` (counters are individually atomic, not
/// mutually — fine for operational metrics).  Rendering is text for humans
/// and JSON for scrapers, so the example driver doubles as a poor man's
/// metrics endpoint.

#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <iomanip>
#include <sstream>
#include <string>
#include <vector>

#include "util/run_context.hpp"

namespace stpes::service {

/// Atomic mirror of `core::stage_counters`: workers fold the per-run
/// deltas in after each synthesis call, scrapers read a plain copy.
/// Slot i mirrors `core::stage_counter_fields[i]`.
class atomic_stage_counters {
public:
  void add(const core::stage_counters& c) {
    for (std::size_t i = 0; i < values_.size(); ++i) {
      values_[i].fetch_add(c.*core::stage_counter_fields[i].member,
                           std::memory_order_relaxed);
    }
  }

  [[nodiscard]] core::stage_counters load() const {
    core::stage_counters c;
    for (std::size_t i = 0; i < values_.size(); ++i) {
      c.*core::stage_counter_fields[i].member =
          values_[i].load(std::memory_order_relaxed);
    }
    return c;
  }

private:
  std::array<std::atomic<std::uint64_t>, core::stage_counter_fields.size()>
      values_{};
};

/// The `stage_counters` JSON object: every counter in table order, as
/// `{"fences_enumerated":N,...}`.
[[nodiscard]] inline std::string counters_json(const core::stage_counters& c) {
  std::ostringstream os;
  char sep = '{';
  for (const auto& f : core::stage_counter_fields) {
    os << sep << '"' << f.name << "\":" << c.*f.member;
    sep = ',';
  }
  os << '}';
  return os.str();
}

/// Histogram of latencies with power-of-two microsecond buckets: bucket i
/// counts samples in [2^i, 2^(i+1)) µs (bucket 0 additionally catches
/// sub-microsecond samples).
class latency_histogram {
public:
  static constexpr std::size_t kBuckets = 32;

  void record_seconds(double seconds) {
    double us = seconds * 1e6;
    std::size_t bucket = 0;
    while (bucket + 1 < kBuckets && us >= 2.0) {
      us /= 2.0;
      ++bucket;
    }
    buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    // Accumulate total time in nanoseconds for a mean read-out.
    total_ns_.fetch_add(static_cast<std::uint64_t>(seconds * 1e9),
                        std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] std::vector<std::uint64_t> bucket_counts() const {
    std::vector<std::uint64_t> out(kBuckets);
    for (std::size_t i = 0; i < kBuckets; ++i) {
      out[i] = buckets_[i].load(std::memory_order_relaxed);
    }
    return out;
  }

  [[nodiscard]] double total_seconds() const {
    return static_cast<double>(total_ns_.load(std::memory_order_relaxed)) /
           1e9;
  }

private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> total_ns_{0};
};

/// Point-in-time copy of all metrics, suitable for diffing and rendering.
struct metrics_snapshot {
  std::uint64_t requests = 0;        ///< functions submitted to the batch
  std::uint64_t cache_hits = 0;      ///< served from an already-ready entry
  std::uint64_t cache_misses = 0;    ///< triggered a synthesis run
  std::uint64_t inflight_waits = 0;  ///< waited on another worker's run
  std::uint64_t bypassed = 0;        ///< n > 5, synthesized uncached
  std::uint64_t synth_runs = 0;      ///< underlying engine invocations
  std::uint64_t synth_failures = 0;  ///< runs that timed out / failed
  std::uint64_t cancelled = 0;       ///< jobs cancelled (queued or running)
  std::uint64_t synth_latency_count = 0;
  double synth_latency_total_s = 0.0;
  std::vector<std::uint64_t> synth_latency_buckets;
  /// Aggregated per-stage effort of every synthesis run.
  core::stage_counters stage;

  [[nodiscard]] std::string to_text() const {
    std::ostringstream os;
    os << "requests          " << requests << "\n"
       << "cache_hits        " << cache_hits << "\n"
       << "cache_misses      " << cache_misses << "\n"
       << "inflight_waits    " << inflight_waits << "\n"
       << "bypassed          " << bypassed << "\n"
       << "synth_runs        " << synth_runs << "\n"
       << "synth_failures    " << synth_failures << "\n"
       << "cancelled         " << cancelled << "\n";
    for (const auto& f : core::stage_counter_fields) {
      os << std::left << std::setw(17) << f.name << ' ' << stage.*f.member
         << "\n";
    }
    if (synth_latency_count > 0) {
      os << "synth_mean_ms     "
         << 1e3 * synth_latency_total_s /
                static_cast<double>(synth_latency_count)
         << "\n";
      os << "synth_latency_us  ";
      // Print only the populated range of the histogram.
      std::size_t last = 0;
      for (std::size_t i = 0; i < synth_latency_buckets.size(); ++i) {
        if (synth_latency_buckets[i] > 0) {
          last = i;
        }
      }
      for (std::size_t i = 0; i <= last; ++i) {
        if (i > 0) {
          os << " ";
        }
        os << "[2^" << i << "]=" << synth_latency_buckets[i];
      }
      os << "\n";
    }
    return os.str();
  }

  [[nodiscard]] std::string to_json() const {
    std::ostringstream os;
    os << "{\"requests\":" << requests << ",\"cache_hits\":" << cache_hits
       << ",\"cache_misses\":" << cache_misses
       << ",\"inflight_waits\":" << inflight_waits
       << ",\"bypassed\":" << bypassed << ",\"synth_runs\":" << synth_runs
       << ",\"synth_failures\":" << synth_failures
       << ",\"cancelled\":" << cancelled << ",\"stage_counters\":"
       << counters_json(stage)
       << ",\"synth_latency_count\":" << synth_latency_count
       << ",\"synth_latency_total_s\":" << synth_latency_total_s
       << ",\"synth_latency_buckets\":[";
    for (std::size_t i = 0; i < synth_latency_buckets.size(); ++i) {
      if (i > 0) {
        os << ",";
      }
      os << synth_latency_buckets[i];
    }
    os << "]}";
    return os.str();
  }
};

/// The live counters, shared by every worker of a batch run.
class metrics {
public:
  void on_request() { requests_.fetch_add(1, std::memory_order_relaxed); }
  void on_cache_hit() { hits_.fetch_add(1, std::memory_order_relaxed); }
  void on_cache_miss() { misses_.fetch_add(1, std::memory_order_relaxed); }
  void on_inflight_wait() {
    inflight_waits_.fetch_add(1, std::memory_order_relaxed);
  }
  void on_bypass() { bypassed_.fetch_add(1, std::memory_order_relaxed); }
  void on_synth_run(double seconds, bool ok) {
    synth_runs_.fetch_add(1, std::memory_order_relaxed);
    if (!ok) {
      synth_failures_.fetch_add(1, std::memory_order_relaxed);
    }
    latency_.record_seconds(seconds);
  }
  void on_cancelled() {
    cancelled_.fetch_add(1, std::memory_order_relaxed);
  }
  /// Folds one run's per-stage counter delta into the aggregate.
  void on_counters(const core::stage_counters& c) { stage_.add(c); }

  [[nodiscard]] metrics_snapshot snapshot() const {
    metrics_snapshot s;
    s.requests = requests_.load(std::memory_order_relaxed);
    s.cache_hits = hits_.load(std::memory_order_relaxed);
    s.cache_misses = misses_.load(std::memory_order_relaxed);
    s.inflight_waits = inflight_waits_.load(std::memory_order_relaxed);
    s.bypassed = bypassed_.load(std::memory_order_relaxed);
    s.synth_runs = synth_runs_.load(std::memory_order_relaxed);
    s.synth_failures = synth_failures_.load(std::memory_order_relaxed);
    s.cancelled = cancelled_.load(std::memory_order_relaxed);
    s.stage = stage_.load();
    s.synth_latency_count = latency_.count();
    s.synth_latency_total_s = latency_.total_seconds();
    s.synth_latency_buckets = latency_.bucket_counts();
    return s;
  }

private:
  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> inflight_waits_{0};
  std::atomic<std::uint64_t> bypassed_{0};
  std::atomic<std::uint64_t> synth_runs_{0};
  std::atomic<std::uint64_t> synth_failures_{0};
  std::atomic<std::uint64_t> cancelled_{0};
  atomic_stage_counters stage_;
  latency_histogram latency_;
};

}  // namespace stpes::service
