/// \file table1_common.hpp
/// \brief Shared harness for the Table-I reproduction binaries.
///
/// Each `table1_*` binary runs the four engines (BMS, FEN, CEGAR-as-ABC,
/// STP) over one function collection and prints a row set in the paper's
/// layout: mean solving time over solved instances, number of timeouts,
/// number solved, and — for STP — the per-solution mean and the average
/// number of optimum chains.
///
/// Defaults are sized for a laptop CI run (a subset of instances, a few
/// seconds of budget each).  `--full` (or env STP_BENCH_FULL=1) switches to
/// paper-scale settings: the whole collection with a 180 s timeout.
/// Other flags: --count=N, --timeout=SECONDS, --engines=stp,bms,fen,cegar,
/// --seed=S, --threads=N (STP DAG-sweep workers).

#pragma once

#include <string>
#include <vector>

#include "service/metrics.hpp"
#include "tt/truth_table.hpp"
#include "util/run_context.hpp"

namespace stpes::bench {

struct table1_options {
  std::size_t count = 0;       ///< instances to run (0 = collection size)
  double timeout = 3.0;        ///< per-instance budget in seconds
  bool full = false;           ///< paper-scale run
  std::uint64_t seed = 1;      ///< generator seed (printed for provenance)
  /// Worker threads for the STP engine's intra-instance DAG sweep
  /// (`--threads=N`; 0 or 1 = sequential).  The solution set
  /// and the deterministic counters are thread-count independent, so the
  /// flag only moves wall clock.
  unsigned threads = 0;
  std::vector<std::string> engines{"bms", "fen", "cegar", "stp"};
  /// When non-empty, per-collection wall-clock and gate-count stats are
  /// also written to this path as one JSON object (`--json <path>` or
  /// `--json=<path>`), seeding the BENCH_*.json perf trajectory.
  std::string json_path;
};

/// Parses the common CLI flags (exits with a message on bad input).
table1_options parse_options(int argc, char** argv,
                             std::size_t default_count,
                             double default_timeout);

/// Runs the comparison and prints the paper-style rows.  Returns the
/// number of engine/instance pairs that disagreed on the optimum size
/// (0 in a healthy run; cross-checked over instances solved by all).
int run_table1(const std::string& collection_name,
               const std::vector<tt::truth_table>& functions,
               const table1_options& options);

/// Multi-output variant: each instance is one output list synthesized as
/// a single shared chain.  Single-output instances take the exact
/// single-output spec path, so a collection of 1-element lists is
/// bit-identical to the overload above.  Emits the same table layout and
/// BENCH_*.json schema (gates are whole-chain gate counts).
int run_table1(const std::string& collection_name,
               const std::vector<std::vector<tt::truth_table>>& instances,
               const table1_options& options);

/// Renders a full `stage_counters` object as the `"counters"` JSON value
/// shared by every BENCH_*.json emitter (table1 rows and the sweep bench);
/// it is the STATS JSON `stage_counters` writer, so all see one key set.
using service::counters_json;

}  // namespace stpes::bench
