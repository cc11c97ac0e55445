/// \file trace.hpp
/// \brief In-memory span recorder of traced runs.
///
/// A span is (name, start, end, parent, op id) on the monotonic clock.
/// Spans stay in memory while the run measures and are written as one
/// JSON document when it ends, together with a per-name summary of count,
/// total time and self time (total minus the time of direct children).
/// A recorder is single-threaded; each client thread of a serving run
/// owns one and they are merged at the end.

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

class tracer {
public:
  static constexpr std::uint32_t kNoParent = 0xffffffffu;

  struct span_record {
    const char* name;
    double start;
    double end;
    std::uint32_t parent;
    std::uint64_t op;
  };

  /// Opens a span and returns its index.
  std::uint32_t begin(const char* name, std::uint64_t op,
                      std::uint32_t parent = kNoParent) {
    spans_.push_back({name, now_s(), 0.0, parent, op});
    return static_cast<std::uint32_t>(spans_.size() - 1);
  }
  /// Closes span `id` and returns its duration in seconds.
  double end(std::uint32_t id) {
    auto& s = spans_[id];
    s.end = now_s();
    return s.end - s.start;
  }

  /// Appends every span of `other` (parents re-indexed).
  void merge(const tracer& other);

  struct summary {
    std::uint64_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };
  /// Count, total and self time per span name.
  [[nodiscard]] std::map<std::string, summary> summarize() const;

  /// Writes spans and summary as JSON; `provenance` is a JSON object text
  /// and `metrics` the per-layer metrics of the run.
  void write_json(const std::string& path, const std::string& provenance,
                  const std::vector<metric>& metrics) const;

  [[nodiscard]] std::size_t size() const { return spans_.size(); }

private:
  std::vector<span_record> spans_;
};

/// RAII span: opens on construction, closes on destruction or `close()`.
class scoped_span {
public:
  scoped_span(tracer& t, const char* name, std::uint64_t op,
              std::uint32_t parent = tracer::kNoParent)
      : t_(t), id_(t.begin(name, op, parent)) {}
  ~scoped_span() { close(); }
  scoped_span(const scoped_span&) = delete;
  scoped_span& operator=(const scoped_span&) = delete;

  /// Closes the span once and returns its duration.
  double close() {
    if (!closed_) {
      closed_ = true;
      seconds_ = t_.end(id_);
    }
    return seconds_;
  }
  [[nodiscard]] std::uint32_t id() const { return id_; }

private:
  tracer& t_;
  std::uint32_t id_;
  bool closed_ = false;
  double seconds_ = 0.0;
};

}  // namespace perfbench
