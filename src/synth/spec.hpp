/// \file spec.hpp
/// \brief Common specification / result types shared by every exact-
///        synthesis engine (STP, BMS, FEN, CEGAR).
///
/// All engines answer the same question: given a vector of Boolean
/// functions over shared inputs, find (an) optimum Boolean chain(s) — a
/// single chain with one output per function and the minimum number of
/// 2-input steps.  The classic single-output problem is the m = 1 case.
/// They differ in how the search is run; the types here keep the Table-I
/// harness engine-agnostic.
///
/// Degenerate outputs (constants, literals, duplicates, complements of
/// another output) are classified once by `analyze_outputs` — the shared
/// pre-pass `core::exact_synthesis` runs before any engine — so engines
/// only ever see pairwise-distinct (modulo complement) functions with
/// support >= 2.

#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "chain/boolean_chain.hpp"
#include "tt/truth_table.hpp"
#include "util/run_context.hpp"

namespace stpes::synth {

/// A synthesis problem instance.
struct spec {
  tt::truth_table function;
  /// Multi-output target: when non-empty, the chain must realize all of
  /// these functions (over the same variable count) and `function` is
  /// ignored.  Leave empty for the classic single-output problem.
  std::vector<tt::truth_table> functions;
  /// The effective target list: `functions` when non-empty, else
  /// `{function}`.
  [[nodiscard]] std::vector<tt::truth_table> targets() const {
    return functions.empty() ? std::vector<tt::truth_table>{function}
                             : functions;
  }
  /// Shared deadline / cancel flag / counters of this run (not owned).
  /// Null means free-running: no deadline, not cancellable, counters
  /// discarded.  Engines poll `ctx->should_stop()` at bounded strides and
  /// return `timeout` when it trips.
  core::run_context* ctx = nullptr;
  /// Upper bound on chain size before giving up as unrealizable.
  unsigned max_gates = 24;
  /// Worker threads for engines with an intra-instance parallel search
  /// (currently the STP DAG sweep): 0 or 1 = sequential, N = fan out over
  /// N workers.  The STP solution set is bit-identical at any thread
  /// count; with `stp_options::max_solutions == 0` the counters are too.
  unsigned num_threads = 0;
};

enum class status { success, timeout, failure };

const char* to_string(status s);

/// Result of one synthesis call.
struct result {
  status outcome = status::failure;
  /// All optimum chains found (baseline engines report exactly one; the
  /// STP engine reports the complete set under its topology constraints).
  std::vector<chain::boolean_chain> chains;
  /// Optimum step count (valid when outcome == success).
  unsigned optimum_gates = 0;
  /// True when `chains` is the engine's complete solution set under its
  /// configured caps.  False when the deadline (or an external cancel)
  /// cut the optimum level's sweep after at least one optimum chain was
  /// verified: `optimum_gates` is still the proven minimum — every
  /// smaller gate count was exhausted before the level started — but
  /// `chains` may be a strict subset of the complete set.  This is the
  /// same notion of "solved" that single-solution CNF engines report;
  /// those engines always set it to true.
  bool enumeration_complete = true;
  /// Wall-clock seconds spent.
  double seconds = 0.0;
  /// Per-stage effort spent on this call (delta, not cumulative).
  core::stage_counters counters;

  [[nodiscard]] bool ok() const { return outcome == status::success; }

  /// First (representative) chain.  Throws when the result carries no
  /// chain at all — e.g. a timeout or cancellation before any optimum was
  /// found — so callers must check `ok()` / `chains.empty()` first.
  [[nodiscard]] const chain::boolean_chain& best() const {
    if (chains.empty()) {
      throw std::logic_error(
          "synth::result::best(): no chains (outcome: " +
          std::string(to_string(outcome)) + ")");
    }
    return chains.front();
  }

  /// The representative chain's realization of spec output `index` — the
  /// explicit output-aware accessor.  `best().simulate()` only reads
  /// output 0; multi-output callers must address outputs by index.
  [[nodiscard]] tt::truth_table best_output(unsigned index) const {
    return best().simulate_output(index);
  }
};

/// Handles the degenerate targets every engine treats identically:
/// constants (one const-LUT step) and literals (zero steps).  Returns true
/// and fills `out` when `f` is degenerate.
bool synthesize_degenerate(const tt::truth_table& f, result& out);

/// Percy-style per-output classification of an m-output target list: the
/// shared pre-pass that keeps degenerate outputs out of every engine's
/// search.
struct output_plan {
  enum class kind {
    constant,  ///< const 0 (complemented = false) or const 1 (true)
    literal,   ///< input `var`, complemented or not
    synth,     ///< `distinct[synth_index]`, complemented or not
  };
  struct entry {
    kind what = kind::synth;
    bool complemented = false;
    unsigned var = 0;             ///< literal only
    std::size_t synth_index = 0;  ///< synth only
  };
  /// One entry per requested output, in request order.
  std::vector<entry> outputs;
  /// The pairwise-distinct (also modulo complement) non-degenerate
  /// functions that actually enter the search, in first-seen order.
  std::vector<tt::truth_table> distinct;
  /// True when some output is constant (costs one shared const-0 step).
  bool needs_constant = false;

  [[nodiscard]] bool all_degenerate() const { return distinct.empty(); }
};

/// Classifies every output of `targets` (all over the same variable
/// count).  Throws on an empty list or mismatched variable counts.
output_plan analyze_outputs(const std::vector<tt::truth_table>& targets);

/// Builds the final m-output chain for `plan` from a chain realizing
/// `plan.distinct` (one output per distinct function, in order); pass an
/// empty chain template when `plan.all_degenerate()`.  Appends the shared
/// const-0 step when needed and binds every requested output.
chain::boolean_chain bind_plan_outputs(const output_plan& plan,
                                       chain::boolean_chain chain);

/// Shrinks `f` to its support and returns the shrunk function; `old_of_new`
/// receives the original variable of each shrunk variable.  Chains
/// synthesized for the shrunk function are lifted back with
/// `lift_chain_to_original`.
tt::truth_table shrink_for_synthesis(const tt::truth_table& f,
                                     std::vector<unsigned>& old_of_new);

/// Union-support variant: shrinks every function of `fs` to the union of
/// their supports under one shared variable mapping, so an m-output chain
/// for the shrunk list lifts back with the same `old_of_new`.
std::vector<tt::truth_table> shrink_for_synthesis(
    const std::vector<tt::truth_table>& fs,
    std::vector<unsigned>& old_of_new);

/// Re-expresses a chain over the shrunk support as a chain over the
/// original `num_original_inputs` inputs.
chain::boolean_chain lift_chain_to_original(
    const chain::boolean_chain& shrunk_chain,
    const std::vector<unsigned>& old_of_new, unsigned num_original_inputs);

/// Lower bound on the number of 2-input steps: a function depending on s
/// variables needs at least s-1 steps.
unsigned trivial_lower_bound(const tt::truth_table& f);

/// Multi-output lower bound for pairwise-distinct (modulo complement)
/// non-degenerate functions: every function needs its own step, and each
/// needs at least support-1 steps on its own.
unsigned trivial_lower_bound(const std::vector<tt::truth_table>& fs);

}  // namespace stpes::synth
