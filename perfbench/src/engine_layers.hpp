/// \file engine_layers.hpp
/// \brief One all-optima solve, optionally traced with the engine-layer
///        replays, shared by the engine workloads and the cut server's
///        class solves.

#pragma once

#include <string>

#include "common.hpp"
#include "reference.hpp"
#include "synth/spec.hpp"
#include "trace.hpp"

namespace perfbench {

/// Per-layer totals over the traced solves of a run.
struct engine_layers {
  std::size_t ops = 0;
  double solve_s = 0.0;
  /// Solve span minus its probe, DAG-generation and verify replays.
  double sweep_self_s = 0.0;
  double probe_s = 0.0;
  double dag_s = 0.0;
  double verify_s = 0.0;
  std::uint64_t dags_replayed = 0;
  std::uint64_t verify_rejects = 0;
  /// Sum of the solves' own stage counters (`synth::result::counters`).
  stpes::core::stage_counters counters;
};

/// `core::exact_synthesis` with the STP engine, default options, all
/// optimum chains, under a `kOpDeadlineSeconds` deadline.
stpes::synth::result solve_all_optima(const stpes::tt::truth_table& f);

/// The solve as one traced op: spans for the solve and, from outside,
/// replays of `lower_bound_prober::probe` at every visited gate count,
/// `fence::generate_dags_for_size` at every level the probe left to the
/// sweep, and `allsat::verify_chain` over every returned chain.
stpes::synth::result traced_solve(const stpes::tt::truth_table& f,
                                  tracer& trace, std::uint64_t op,
                                  engine_layers& layers);

/// Appends the synth/sat/allsat/fence per-layer metrics.
void add_engine_layer_metrics(const engine_layers& layers, report& out);

/// Counts one op in `out`: failed on a timeout, failure or incomplete
/// enumeration, incorrect when the answer does not match `ref`.
void record(const stpes::tt::truth_table& f, const stpes::synth::result& r,
            const ref_entry& ref, report& out);

}  // namespace perfbench
