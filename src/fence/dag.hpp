/// \file dag.hpp
/// \brief DAG topology generation from fences (Section III-A, Fig. 3).
///
/// A `dag_topology` fixes the gate-to-gate connectivity of a candidate
/// Boolean chain before any operator or input variable is chosen: each gate
/// has two fanin slots holding either a lower gate or an *open PI slot*.
/// Generation enforces the fence semantics (each gate above the bottom
/// level takes at least one fanin from the level directly below, so levels
/// are real) plus:
///
///   * the root is the single top-level gate and every other gate has at
///     least one fanout (dangling gates would contradict optimality),
///   * fanin pairs are unordered and never duplicate a gate (a 2-input
///     operator on twin inputs degenerates),
///   * gates within a level appear in non-decreasing fanin-signature order
///     and a final signature dedup removes remaining isomorphic duplicates — this
///     plays the role of the paper's NPN-based DAG reduction.

#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "fence/fence.hpp"

namespace stpes::fence {

/// Marker for a fanin slot fed by a primary input.
inline constexpr int kPiSlot = -1;

/// Connectivity skeleton of a candidate chain.
struct dag_topology {
  struct gate {
    /// Fanins sorted descending, so PI slots (-1) come last.
    std::array<int, 2> fanin{kPiSlot, kPiSlot};
    unsigned level = 0;
  };

  /// Gates in topological order (level-ascending); the last gate is the
  /// root / output.
  std::vector<gate> gates;

  [[nodiscard]] unsigned num_gates() const {
    return static_cast<unsigned>(gates.size());
  }
  [[nodiscard]] int root() const {
    return static_cast<int>(gates.size()) - 1;
  }
  /// All fanout-free gates in index order.  Single-output topologies have
  /// exactly one (== root()); multi-output generation allows up to
  /// `dag_options::max_outputs`, and each must be bound to an output.
  [[nodiscard]] std::vector<int> roots() const;
  /// Total number of open PI slots.
  [[nodiscard]] unsigned num_pi_slots() const;
  /// Number of open PI slots in the cone of each gate (counting a shared
  /// slot once) — the maximum number of distinct variables the gate's
  /// function can depend on.
  [[nodiscard]] std::vector<unsigned> pi_slot_capacity() const;
  /// Number of gates in the cone of each gate (including itself).  A cone
  /// of g gates can depend on at most g + 1 distinct variables, which is a
  /// much tighter capacity than the slot count on wide shapes.
  [[nodiscard]] std::vector<unsigned> gates_in_cone() const;
  /// Compact structural key for deduplication, e.g. "2,1|0,1;-1,-1".
  [[nodiscard]] std::string signature() const;
};

/// Options for DAG generation.
struct dag_options {
  /// Allow a gate to feed more than one higher gate.  When false only
  /// fanout-free (tree) topologies are produced.
  bool allow_shared_gates = true;
  /// Number of chain outputs the topologies may serve: up to this many
  /// gates may be fanout-free (each such gate must later be bound to an
  /// output).  1 reproduces the classic single-root family.
  unsigned max_outputs = 1;
};

/// All valid DAG topologies for one fence.  With a `ctx`, every emitted
/// topology counts into `dags_generated` and every complete assignment
/// rejected by the validity filters (dangling gate, duplicate signature,
/// fanout restriction) into `dags_pruned`; the enumeration also observes
/// the context's cancel flag between assignments.
std::vector<dag_topology> generate_dags(const fence& f,
                                        const dag_options& options = {},
                                        core::run_context* ctx = nullptr);

/// All valid DAG topologies over every pruned fence with `num_gates`
/// gates, concatenated in fence order.
std::vector<dag_topology> generate_dags_for_size(
    unsigned num_gates, const dag_options& options = {});

}  // namespace stpes::fence
