/// \file lower_bound.hpp
/// \brief Infeasibility probe: "no k-gate 2-LUT chain computes this ISF".
///
/// A completely specified target whose onset has support s is decided
/// without a solver at k <= s − 1 gates: k gates read at most k + 1
/// signals, so below s − 1 there is no chain, and at s − 1 every signal is
/// read exactly once — the chain is a tree, which exists iff the target is
/// read-once (fully DSD into 2-input blocks).  That is the paper's "two
/// unique quartering parts" test (`tt::analyze_dsd`), applied once to the
/// whole target; its contraction chain is the witness.  This decision has
/// no size cap.  Everything else — larger k, ISFs with a restricted care
/// set, and `probe_multi` — takes the CNF path below.
///
/// The STP sweep enumerates *all* optimum chains of a level, but proving
/// that a level has *no* chain at all is cheaper as a single CNF call per
/// pruned fence: one UNSAT answer refutes the whole DAG family that the
/// sweep would otherwise factorize topology by topology.  This is percy's
/// partial-DAG idea (Haaswijk et al.) on our own CDCL solver, at fence
/// granularity — `fence_fanin_pairs` restricts every step's fanins to
/// fence-compatible levels, so refuting every pruned fence of k gates
/// refutes gate count k outright.
///
/// On top of the plain SSV encoding the probe layers the four percy
/// symmetry-break clause families, each sound for *existence* questions in
/// the engine's ascending level loop (levels < k already refuted):
///
///   * **colex** — consecutive steps on the same fence level are
///     interchangeable (their allowed pair lists coincide and later steps
///     cannot distinguish them), so their fanin pairs may be required to
///     be colexicographically non-decreasing;
///   * **noreapply** — a step consuming step i *and* one of i's own fanins
///     computes a two-variable function of i's fanins, so a repaired chain
///     with the same gate count (or, via the already-refuted smaller
///     levels, a contradiction) exists; the repair strictly shrinks the
///     fanin-index sum, so it terminates;
///   * **symvar** — if the ISF is invariant under swapping inputs p < q
///     (on-set *and* care-set), any chain using q first can be relabelled
///     into one using p first;
///   * **alonce** — every non-output step must fan out (an unused step
///     would yield a chain at an already-refuted smaller level).  This one
///     is the encoder's own `use_all_steps` option.
///
/// The probe answers `feasible` / `infeasible` / `unknown`; `unknown`
/// (conflict budget or deadline hit, or a CNF question above `max_vars`)
/// must be treated as *feasible* by callers — the sweep then
/// decides the level exactly, so the probe can only ever skip work, never
/// change results.

#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "chain/boolean_chain.hpp"
#include "tt/isf.hpp"
#include "util/run_context.hpp"

namespace stpes::synth {

/// Probe tuning knobs.
struct lower_bound_options {
  /// Symmetry-break clause families (percy names).
  bool colex_clauses = true;
  bool noreapply_clauses = true;
  bool symvar_clauses = true;
  bool alonce_clauses = true;
  /// Per-solver-call conflict cutoff (0 = unbounded).  Conflicts are
  /// machine-independent, so a budget cutoff keeps the probe's verdicts —
  /// and hence the `probe_*` counters in probe_sweep mode — deterministic.
  std::uint64_t conflict_budget = 100000;
  /// Skip the CNF path (verdict `unknown`) above this variable count; the
  /// CNF grows with 2^n rows and stops paying for itself.  The read-once
  /// decision ignores it.
  unsigned max_vars = 6;
};

/// Probe verdict for one (ISF, gate count) question.
enum class probe_verdict {
  feasible,    ///< a k-gate chain exists (read-once or SAT witness)
  infeasible,  ///< no k-gate chain: support bound, read-once test, or
               ///< every pruned fence of k gates refuted (UNSAT proofs)
  unknown      ///< budget/deadline/size cutoff — treat as feasible
};

/// Outcome of one probe call.
struct probe_result {
  probe_verdict verdict = probe_verdict::unknown;
  /// CNF solver calls made (== pruned fences attempted; 0 when the
  /// read-once test decided).
  std::uint64_t solver_calls = 0;
  /// On `feasible`: a chain of exactly k steps computing the target,
  /// verified by simulation (read-once) or decoded from the SAT model.  A
  /// deadline-cut
  /// sweep of the winning level can fall back on it — the smaller levels
  /// are refuted, so this single chain already proves the optimum.
  std::optional<chain::boolean_chain> witness;
};

/// The probe.  Stateless between calls apart from options; cheap to
/// construct per use.
class lower_bound_prober {
public:
  explicit lower_bound_prober(lower_bound_options options = {})
      : options_(options) {}

  /// Decides whether any `num_gates`-gate chain satisfies `target`.
  /// Sound for the ascending level loop: a CNF `infeasible` is only
  /// trustworthy when every smaller gate count was already refuted
  /// (the symmetry-break repairs may move a chain to a smaller level);
  /// a read-once verdict holds on its own.  `ctx` (optional) supplies
  /// deadline/cancel polling and receives `probe_calls` (CNF solver calls
  /// only) and SAT-stage counters.
  [[nodiscard]] probe_result probe(const tt::isf& target, unsigned num_gates,
                                   core::run_context* ctx = nullptr) const;

  /// Multi-output variant: decides whether any `num_gates`-gate chain
  /// computes *all* of `functions` (each output possibly complemented).
  /// Uses the multi-output fence family and the per-output
  /// output-selection SSV encoding; the symvar break applies to an input
  /// pair only when *every* function is symmetric in it.  Soundness
  /// contract matches `probe`.
  [[nodiscard]] probe_result probe_multi(
      const std::vector<tt::truth_table>& functions, unsigned num_gates,
      core::run_context* ctx = nullptr) const;

  [[nodiscard]] const lower_bound_options& options() const {
    return options_;
  }

private:
  lower_bound_options options_;
};

}  // namespace stpes::synth
