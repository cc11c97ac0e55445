/// \file stp_synth.hpp
/// \brief The paper's exact-synthesis algorithm (Section III).
///
/// For increasing gate counts r (starting from the paper's bound: number of
/// support variables minus one) the engine
///
///   1. generates the pruned DAG topology families of r gates from Boolean
///      fences (Section III-A, `fence/`),
///   2. top-down factors the specification's canonical form over each DAG:
///      every vertex enumerates cone splits for its children (the `M_w`
///      reorderings and `M_r` sharings of Properties 3/4) and STP-factors
///      its requirement into child requirements (`factorize.hpp`),
///      pruning DAGs that cannot realize the function (Section III-B),
///   3. verifies every complete candidate with the STP circuit AllSAT
///      solver plus simulation (Section III-C) and collects *all* optimum
///      chains of the first feasible r.
///
/// Under a wall-clock budget the first feasible level may be cut short
/// after some optimum chains were already verified; the engine then still
/// reports success (the optimum size is proven — every smaller level was
/// exhausted) with `result::enumeration_complete = false` marking the
/// possibly-partial chain set.
///
/// Solutions are plain 2-LUT `boolean_chain`s; `core/selector.hpp` picks
/// among them by arbitrary cost functions, which is the flexibility the
/// paper advertises over single-solution CNF-based engines.

#pragma once

#include <cstdint>

#include "synth/factorize.hpp"
#include "synth/lower_bound.hpp"
#include "synth/spec.hpp"

namespace stpes::synth {

/// How each gate-count level is decided before/while the STP sweep runs.
///
/// The sweep *enumerates all* optimum chains; the CNF lower-bound probe
/// (`synth/lower_bound.hpp`) only decides *existence*, but refutes a whole
/// level orders of magnitude faster on the hard instances.  Combining the
/// two keeps the paper's all-optima semantics while killing the sweep's
/// worst case (exhausting the last infeasible level).
enum class stp_level_engine {
  /// Sweep every level (the paper's baseline; ablation reference).
  sweep,
  /// Run the probe first: UNSAT skips the level's sweep entirely, SAT or
  /// unknown falls through to the sweep.  Sequential, deterministic.
  probe_sweep,
  /// Race the probe against the sweep on the thread pool; the first
  /// proof wins and cancels the loser through `core::run_context`.  The
  /// solution set is still bit-identical to `sweep` (the probe can only
  /// cancel solution-free levels); effort counters become race-dependent.
  portfolio,
};

/// Tuning knobs; the defaults reproduce the paper's configuration, the
/// toggles exist for the ablation benchmarks.
struct stp_options {
  /// Generate DAGs with shared internal gates (reconvergence).  Turning
  /// this off restricts the search to fanout-free topologies.
  bool allow_shared_gates = true;
  /// Use the paper's pruned fence family; off = raw F_k (ablation).
  bool use_fence_pruning = true;
  /// Canonicalize internal polarities: every internal signal is required
  /// to be *normal* (0 on the all-zeros input row), with inversions folded
  /// into the consuming LUT — the same canonicalization CNF encodings use.
  /// Kills an up-to-2^r duplication of every solution under polarity
  /// redistribution; the solution set becomes "all optimum normal chains".
  bool normalize_polarity = true;
  /// Stop after this many optimum chains (0 = enumerate all).
  std::size_t max_solutions = 0;
  /// Entry cap of the per-run factorization memo (0 = unlimited).  Hard
  /// 6-input instances otherwise grow the memo into millions of entries
  /// (about 285 bytes each at n <= 6, measured on NPN4 class 0x0180:
  /// 32 bytes of key, 40 per stored branch, and the index slot — so the
  /// default cap bounds the memo near 150 MB), plus merge time past the
  /// deadline; the cap bounds memory while keeping the hit rate of the
  /// small, hot keys.
  /// Applied deterministically, so capped runs stay thread-count
  /// independent.
  std::size_t factor_memo_cap = 1u << 19;
  /// Entry cap of the fruitless-pending-state memo (0 = unlimited), for
  /// the same memory/teardown reasons as `factor_memo_cap`.
  std::size_t failed_memo_cap = 2u << 20;
  /// Per-level engine: lower-bound probe gating (default), plain sweep,
  /// or the probe-vs-sweep portfolio race.
  stp_level_engine engine = stp_level_engine::probe_sweep;
  /// Knobs of the lower-bound probe (budget, clause families, size cap).
  lower_bound_options probe;
  /// Branch caps of the per-vertex factorization.
  factorize_options factor;
};

/// The STP exact-synthesis engine.
class stp_engine {
public:
  explicit stp_engine(stp_options options = {});

  /// Synthesizes all optimum chains for `s.targets()`, fanning the DAG
  /// sweep over `s.num_threads` workers.
  result run(const spec& s);

  /// Don't-care-aware synthesis: all minimum chains whose function is
  /// *accepted* by `target` (agrees on every care minterm).  A natural
  /// extension of the paper: the factorization engine already propagates
  /// incompletely specified requirements, so an ISF at the root costs
  /// nothing extra — CNF encodings would need per-row relaxation instead.
  /// `ctx` follows the `spec::ctx` contract (may be nullptr).  Sequential.
  result run_with_dont_cares(const tt::isf& target,
                             core::run_context* ctx = nullptr,
                             unsigned max_gates = 24);

private:
  stp_options options_;
};

/// Convenience wrapper: run the engine with default options.
result stp_synthesize(const spec& s);

}  // namespace stpes::synth
