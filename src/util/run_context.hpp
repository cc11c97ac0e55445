/// \file run_context.hpp
/// \brief The unified deadline / cancellation / counter seam shared by
///        every layer of one synthesis run.
///
/// Historically each layer (synth::spec, sat::solver, the STP recursion,
/// the AllSAT merge loop, the server request path) held its *own* copy of
/// `util::time_budget` and polled it at inconsistent depths, so a daemon
/// timeout reply could leave a worker thread burning for seconds.  A
/// `run_context` replaces all of those copies with one shared object:
///
///   * a monotonic **deadline** (same semantics as `time_budget`),
///   * an `std::atomic<bool>` **cancel flag** that any thread may flip
///     (the daemon's CANCEL verb, SIGTERM drain, pool shutdown), and
///   * **per-stage counters** incremented by the layer doing the work.
///
/// Layers poll `should_stop()` at bounded strides (the engines every
/// 1024 ticks, the CDCL loop every 256 conflicts) so a cancel or an
/// expired deadline is observed promptly and uniformly.
///
/// Counters are written by the single thread running the synthesis and
/// must only be read by other threads after the run finished (join /
/// latch).  Only the cancel flag is safe for concurrent access.
///
/// The canonical name is `core::run_context`; the definition lives in
/// `util/` (the lowest layer) so `sat/`, `fence/`, `stp/` etc. can use it
/// without depending on the `core` facade library.

#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>

#include "util/stopwatch.hpp"

namespace stpes::core {

/// Effort counters for every stage of a synthesis run, one named field
/// per line of `util/stage_counters.def` (in table order).
///
/// Deterministic counters (fences/DAGs/factorizations on solved
/// instances) double as a search-space fingerprint: the bench regression
/// gate compares them against committed baselines to catch silent drift
/// in the enumeration or pruning logic.
struct stage_counters {
#define STPES_STAGE_COUNTER(name, gate) std::uint64_t name = 0;
#include "util/stage_counters.def"

  stage_counters& operator+=(const stage_counters& o);
  stage_counters& operator-=(const stage_counters& o);
  [[nodiscard]] std::uint64_t total() const;
};

/// One row of the counter table: the field's name and its member pointer.
struct stage_counter_field {
  const char* name;
  std::uint64_t stage_counters::*member;
};

/// Every `stage_counters` field in table order; code that handles the
/// counters as a set loops over this instead of naming them.
inline constexpr std::array stage_counter_fields = {
#define STPES_STAGE_COUNTER(name, gate) \
  stage_counter_field{#name, &stage_counters::name},
#include "util/stage_counters.def"
};

inline stage_counters& stage_counters::operator+=(const stage_counters& o) {
  for (const auto& f : stage_counter_fields) {
    this->*f.member += o.*f.member;
  }
  return *this;
}

inline stage_counters& stage_counters::operator-=(const stage_counters& o) {
  for (const auto& f : stage_counter_fields) {
    this->*f.member -= o.*f.member;
  }
  return *this;
}

inline std::uint64_t stage_counters::total() const {
  std::uint64_t sum = 0;
  for (const auto& f : stage_counter_fields) {
    sum += this->*f.member;
  }
  return sum;
}

inline stage_counters operator+(stage_counters a, const stage_counters& b) {
  a += b;
  return a;
}

inline stage_counters operator-(stage_counters a, const stage_counters& b) {
  a -= b;
  return a;
}

/// Shared state of one synthesis run: deadline + cancel flag + counters.
///
/// Non-copyable (holds an atomic); pass by pointer/reference.  A
/// default-constructed context is unlimited and never cancelled until
/// `request_cancel()` is called.
class run_context {
public:
  run_context() = default;

  /// Deadline of `seconds` from now; non-positive means unlimited.
  explicit run_context(double seconds) : budget_(seconds) {}

  /// A worker-local child context: inherits the parent's deadline and
  /// observes the parent's cancel flag (transitively, so a cancel anywhere
  /// up the chain stops the worker), while owning its *own* counters and
  /// its own cancel flag.  The parallel DAG search gives every worker task
  /// one child so counters stay single-writer; the coordinator merges the
  /// deltas deterministically after the tasks are joined.  The parent must
  /// outlive the child.
  explicit run_context(const run_context* parent)
      : budget_(parent->budget_), parent_(parent) {}

  run_context(const run_context&) = delete;
  run_context& operator=(const run_context&) = delete;

  /// Replaces the deadline with `seconds` from now (<= 0 = unlimited).
  void set_deadline_after(double seconds) {
    budget_ = util::time_budget{seconds};
  }

  [[nodiscard]] bool limited() const { return budget_.limited(); }
  [[nodiscard]] bool deadline_expired() const { return budget_.expired(); }
  [[nodiscard]] double remaining_seconds() const {
    return budget_.remaining_seconds();
  }

  /// Requests cooperative cancellation; safe from any thread.
  void request_cancel() { cancel_.store(true, std::memory_order_release); }

  [[nodiscard]] bool cancel_requested() const {
    return cancel_.load(std::memory_order_acquire) ||
           (parent_ != nullptr && parent_->cancel_requested());
  }

  /// The single poll every layer uses: cancelled or past the deadline.
  [[nodiscard]] bool should_stop() const {
    return cancel_requested() || deadline_expired();
  }

  /// Per-stage effort counters; owned by the thread running the work.
  stage_counters counters;

private:
  util::time_budget budget_;
  std::atomic<bool> cancel_{false};
  const run_context* parent_ = nullptr;
};

}  // namespace stpes::core

namespace stpes::util {
// The definition lives in util/ for layering; re-export so util-level
// code can name it without reaching "up" into core.
using run_context = core::run_context;
using stage_counters = core::stage_counters;
}  // namespace stpes::util
