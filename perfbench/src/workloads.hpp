/// \file workloads.hpp
/// \brief The three benchmark workloads and the reference regenerator.
///
///   * npn4_enum  — all optimum chains of the 133 NPN4 classes whose
///                  optimum is 2-5 gates, one cold solve per op;
///   * fdsd6_enum — the same question on 200 fully-DSD 6-input functions;
///   * cuts_serve — a seeded stream of 4-input cut functions served by an
///                  in-process synthesis server over a Unix socket.
///
/// An untraced run reports the end-to-end metrics; a traced run reports
/// the per-layer metrics, each measured from outside by timing calls into
/// the layer's public functions.

#pragma once

#include <cstdint>
#include <string>

#include "common.hpp"
#include "trace.hpp"

namespace perfbench {

struct run_options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory holding the committed reference files.
  std::string ref_dir;
};

/// Per-op deadline: far above the slowest op of every pool, never
/// unlimited.
inline constexpr double kOpDeadlineSeconds = 30.0;
/// Set-ups per untraced run, one before the timed phase and the rest after
/// it (after the memory peak is read); `setup_s` is their median.
inline constexpr int kSetupRepeats = 5;

report run_engine_workload(const run_options& opts, tracer& trace);
report run_serve_workload(const run_options& opts, tracer& trace);

/// Measures the serving layers (NPN canonization, chain rewrite, the
/// batch synthesizer, socket transport, routing hop) on a fixed slice of
/// the cut stream and appends their per-layer metrics.  Engine workloads
/// call it with a small slice so every traced run reports every layer.
void measure_serving_layers(const run_options& opts, std::size_t requests,
                            tracer& trace, report& out);

/// Rewrites the three reference files under `ref_dir`, cross-checking
/// every optimum against the BMS engine.  Returns false on a mismatch.
bool regenerate_reference(const std::string& ref_dir);

}  // namespace perfbench
