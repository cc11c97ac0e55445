/// \file stopwatch.hpp
/// \brief Wall-clock measurement and cooperative time budgets.
///
/// `time_budget` is the deadline half of `core::run_context` (see
/// `util/run_context.hpp`); layers share one run context per synthesis
/// run rather than holding budgets of their own.  Engines poll the run
/// context at coarse-grained decision points (per DAG candidate, per SAT
/// conflict stride, ...) so that the Table-I "#t/o" column can be
/// reproduced with a configurable deadline instead of the paper's fixed
/// 3 minutes.

#pragma once

#include <chrono>
#include <cstdint>

namespace stpes::util {

/// Simple monotonic stopwatch; starts on construction.
class stopwatch {
public:
  using clock = std::chrono::steady_clock;

  stopwatch() : start_(clock::now()) {}

  /// Restarts the measurement.
  void restart() { start_ = clock::now(); }

  /// Elapsed time in seconds.
  [[nodiscard]] double elapsed_seconds() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

  /// Elapsed time in microseconds.
  [[nodiscard]] std::int64_t elapsed_us() const {
    return std::chrono::duration_cast<std::chrono::microseconds>(clock::now() -
                                                                 start_)
        .count();
  }

private:
  clock::time_point start_;
};

/// A cooperative deadline shared by the layers of one synthesis call.
///
/// A default-constructed budget is unlimited.  `expired()` is cheap enough
/// to be polled every few thousand solver steps.
class time_budget {
public:
  time_budget() = default;

  /// Budget of `seconds` starting now; non-positive means unlimited.
  explicit time_budget(double seconds) {
    if (seconds > 0.0) {
      deadline_ = stopwatch::clock::now() +
                  std::chrono::duration_cast<stopwatch::clock::duration>(
                      std::chrono::duration<double>(seconds));
      limited_ = true;
    }
  }

  [[nodiscard]] bool limited() const { return limited_; }

  [[nodiscard]] bool expired() const {
    return limited_ && stopwatch::clock::now() >= deadline_;
  }

  /// Seconds remaining (infinity-like large value when unlimited).
  [[nodiscard]] double remaining_seconds() const {
    if (!limited_) {
      return 1e18;
    }
    return std::chrono::duration<double>(deadline_ - stopwatch::clock::now())
        .count();
  }

private:
  stopwatch::clock::time_point deadline_{};
  bool limited_ = false;
};

}  // namespace stpes::util
