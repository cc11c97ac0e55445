#include "fence/dag.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>
#include <unordered_set>

namespace stpes::fence {

unsigned dag_topology::num_pi_slots() const {
  unsigned count = 0;
  for (const auto& g : gates) {
    count += (g.fanin[0] == kPiSlot ? 1u : 0u) +
             (g.fanin[1] == kPiSlot ? 1u : 0u);
  }
  return count;
}

std::vector<unsigned> dag_topology::pi_slot_capacity() const {
  // Distinct PI slots reachable from each gate, as bitsets over slot ids
  // assigned in gate order.
  std::vector<std::uint64_t> reach(gates.size(), 0);
  unsigned next_slot = 0;
  for (std::size_t g = 0; g < gates.size(); ++g) {
    for (const int fi : gates[g].fanin) {
      if (fi == kPiSlot) {
        reach[g] |= std::uint64_t{1} << next_slot++;
      } else {
        reach[g] |= reach[static_cast<std::size_t>(fi)];
      }
    }
  }
  std::vector<unsigned> capacity(gates.size());
  for (std::size_t g = 0; g < gates.size(); ++g) {
    capacity[g] = static_cast<unsigned>(std::popcount(reach[g]));
  }
  return capacity;
}

std::vector<unsigned> dag_topology::gates_in_cone() const {
  std::vector<std::uint64_t> reach(gates.size(), 0);
  for (std::size_t g = 0; g < gates.size(); ++g) {
    reach[g] = std::uint64_t{1} << g;
    for (const int fi : gates[g].fanin) {
      if (fi != kPiSlot) {
        reach[g] |= reach[static_cast<std::size_t>(fi)];
      }
    }
  }
  std::vector<unsigned> count(gates.size());
  for (std::size_t g = 0; g < gates.size(); ++g) {
    count[g] = static_cast<unsigned>(std::popcount(reach[g]));
  }
  return count;
}

std::vector<int> dag_topology::roots() const {
  std::vector<bool> has_fanout(gates.size(), false);
  for (const auto& g : gates) {
    for (const int fi : g.fanin) {
      if (fi != kPiSlot) {
        has_fanout[static_cast<std::size_t>(fi)] = true;
      }
    }
  }
  std::vector<int> out;
  for (std::size_t g = 0; g < gates.size(); ++g) {
    if (!has_fanout[g]) {
      out.push_back(static_cast<int>(g));
    }
  }
  return out;
}

std::string dag_topology::signature() const {
  std::string out;
  for (const auto& g : gates) {
    out += std::to_string(g.level) + ':' + std::to_string(g.fanin[0]) + ',' +
           std::to_string(g.fanin[1]) + ';';
  }
  return out;
}

namespace {

struct generator {
  const fence& shape;
  const dag_options& options;
  core::run_context* ctx;
  std::vector<dag_topology>& out;
  std::unordered_set<std::string> seen;

  dag_topology current;
  std::vector<unsigned> level_first;  // first gate index of each level
  mutable std::uint64_t ticks = 0;

  bool should_stop() const {
    // A cancel is an atomic load (cheap, polled every call); the deadline
    // needs a clock read, so it is polled at a stride.  Without the stride
    // poll a single large fence can overrun the budget by seconds.
    return ctx != nullptr &&
           (ctx->cancel_requested() ||
            ((++ticks & 0x3FF) == 0 && ctx->deadline_expired()));
  }

  void pruned() const {
    if (ctx != nullptr) {
      ++ctx->counters.dags_pruned;
    }
  }

  void emit() {
    // At most `max_outputs` gates may dangle (each must later carry an
    // output); optionally restrict to trees.  The top gate always
    // dangles, so max_outputs == 1 reproduces the single-root family.
    const unsigned k = current.num_gates();
    std::vector<unsigned> fanout(k, 0);
    for (const auto& g : current.gates) {
      for (const int fi : g.fanin) {
        if (fi >= 0) {
          ++fanout[static_cast<unsigned>(fi)];
        }
      }
    }
    unsigned dangling = 1;  // the last gate, by construction
    for (unsigned g = 0; g + 1 < k; ++g) {
      if (fanout[g] == 0 && ++dangling > options.max_outputs) {
        pruned();
        return;
      }
      if (!options.allow_shared_gates && fanout[g] > 1) {
        pruned();
        return;
      }
    }
    if (seen.insert(current.signature()).second) {
      out.push_back(current);
      if (ctx != nullptr) {
        ++ctx->counters.dags_generated;
      }
    } else {
      pruned();
    }
  }

  /// Enumerate fanins for gate `g`; gates are processed in index order.
  void assign(unsigned g) {
    if (should_stop()) {
      return;
    }
    if (g == current.num_gates()) {
      emit();
      return;
    }
    const unsigned level = current.gates[g].level;
    if (level == 0) {
      current.gates[g].fanin = {kPiSlot, kPiSlot};
      assign(g + 1);
      return;
    }
    const int below_begin = static_cast<int>(level_first[level - 1]);
    const int below_end = static_cast<int>(level_first[level]);
    // First fanin: a gate on the level directly below (fence semantics).
    for (int a = below_begin; a < below_end; ++a) {
      // Second fanin: any strictly lower distinct gate, or a PI slot.
      for (int b = kPiSlot; b < below_end; ++b) {
        if (b == a) {
          continue;
        }
        // Pairs with both fanins on the level below would be enumerated
        // twice with roles swapped; keep only b < a.
        if (b >= below_begin && b > a) {
          continue;
        }
        std::array<int, 2> fanin{std::max(a, b), std::min(a, b)};
        // Canonical order among same-level siblings with symmetric shape.
        if (g > 0 && current.gates[g - 1].level == level &&
            fanin < current.gates[g - 1].fanin) {
          continue;
        }
        current.gates[g].fanin = fanin;
        assign(g + 1);
        if (should_stop()) {
          return;
        }
      }
    }
  }

  void run() {
    const unsigned k = shape.num_nodes();
    current.gates.assign(k, dag_topology::gate{});
    level_first.assign(shape.num_levels() + 1, 0);
    unsigned index = 0;
    for (unsigned l = 0; l < shape.num_levels(); ++l) {
      level_first[l] = index;
      for (unsigned j = 0; j < shape.widths[l]; ++j) {
        current.gates[index].level = l;
        ++index;
      }
    }
    level_first[shape.num_levels()] = index;
    assign(0);
  }
};

}  // namespace

std::vector<dag_topology> generate_dags(const fence& f,
                                        const dag_options& options,
                                        core::run_context* ctx) {
  std::vector<dag_topology> out;
  if (f.num_nodes() == 0) {
    return out;
  }
  generator gen{f, options, ctx, out, {}, {}, {}};
  gen.run();
  return out;
}

std::vector<dag_topology> generate_dags_for_size(unsigned num_gates,
                                                 const dag_options& options) {
  std::vector<dag_topology> out;
  for (const auto& f : pruned_fences(num_gates)) {
    auto dags = generate_dags(f, options);
    out.insert(out.end(), std::make_move_iterator(dags.begin()),
               std::make_move_iterator(dags.end()));
  }
  return out;
}

}  // namespace stpes::fence
