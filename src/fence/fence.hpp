/// \file fence.hpp
/// \brief Boolean fences (Section III-A): partitions of k nodes over l
///        levels that seed DAG topology families.
///
/// A fence F(k, l) distributes k gates over l levels with every level
/// non-empty.  The paper prunes the family for single-output synthesis with
/// 2-input operators:
///   * the top level holds exactly one node (single output), and
///   * a level may not hold more nodes than the levels above it can consume
///     (each node above contributes two fanin slots, and every node must
///     drive at least one node on a higher level — including the nodes
///     above, which leaves `above + 1` slots for the level).
///
/// For k <= 8 every pruned fence yields at least one DAG topology (at
/// k = 9 some do not: the rule is necessary, not sufficient).
///
/// For k = 3 this leaves {(2,1), (1,1,1)} of the unpruned
/// {(3), (2,1), (1,2), (1,1,1)}, matching Fig. 2.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/run_context.hpp"

namespace stpes::fence {

/// Node counts per level, bottom level (fed only by PIs) first.
struct fence {
  std::vector<unsigned> widths;

  [[nodiscard]] unsigned num_nodes() const;
  [[nodiscard]] unsigned num_levels() const {
    return static_cast<unsigned>(widths.size());
  }
  /// e.g. "(2,1)".
  [[nodiscard]] std::string to_string() const;

  bool operator==(const fence& other) const {
    return widths == other.widths;
  }
};

/// All fences of k nodes (all compositions of k), in lexicographic order.
/// When `ctx` is given, every emitted fence counts into
/// `ctx->counters.fences_enumerated`.
std::vector<fence> all_fences(unsigned k, core::run_context* ctx = nullptr);

/// The paper's pruned family (see file comment).  Counts as `all_fences`;
/// fences rejected by the pruning rules are not counted.
std::vector<fence> pruned_fences(unsigned k,
                                 core::run_context* ctx = nullptr);

/// True iff `f` survives the paper's pruning rules.
bool is_pruned_valid(const fence& f);

/// Multi-output generalization of the pruning rules: a chain with up to
/// `max_outputs` outputs may leave up to that many gates without fanout
/// (each dangling gate must be an output signal), so a level may exceed
/// the fanin capacity of the levels above by the remaining dangle budget.
/// It counts all `2 * above` slots as free, so at one output it keeps a
/// superset of `is_pruned_valid` (e.g. the DAG-less `(4,1,1)`).
bool is_pruned_valid_multi(const fence& f, unsigned max_outputs);

/// The pruned fence family for chains with up to `max_outputs` outputs.
/// Counts into `fences_enumerated` like `pruned_fences`.
std::vector<fence> pruned_fences_multi(unsigned k, unsigned max_outputs,
                                       core::run_context* ctx = nullptr);

}  // namespace stpes::fence
