#include "synth/stp_synth.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <condition_variable>
#include <mutex>
#include <optional>
#include <string>

#include "allsat/circuit_allsat.hpp"
#include "fence/dag.hpp"
#include "fence/fence.hpp"
#include "service/thread_pool.hpp"
#include "synth/factor_memo.hpp"
#include "util/flat_set64.hpp"

namespace stpes::synth {

namespace {

using fence::dag_topology;
using fence::kPiSlot;

/// Per-gate search state during the top-down factorization DFS.
struct gate_state {
  bool has_requirement = false;
  requirement req;
  /// Cached hash of (cone, func) — recomputed only when `req` changes.
  std::uint64_t req_hash = 0;
  bool decomposed = false;
  op_family family = op_family::and_like;
  bool complemented = false;
  /// Gate-child inversions folded into this gate's LUT when polarity
  /// normalization rewrites a child requirement to its normal complement.
  std::array<bool, 2> child_negated{false, false};
};

/// Per-PI-slot state: which input variable feeds the slot and with which
/// polarity (negative polarities are later folded into the gate LUT).
struct slot_state {
  int var = -1;
  bool negated = false;
};

/// Identifies the slot index of fanin position `pos` of gate `g` (slots
/// are numbered in gate order, matching dag_topology::pi_slot_capacity).
struct slot_index_map {
  std::vector<std::array<int, 2>> of_gate;

  explicit slot_index_map(const dag_topology& dag) {
    of_gate.assign(dag.gates.size(), {-1, -1});
    int next = 0;
    for (std::size_t g = 0; g < dag.gates.size(); ++g) {
      for (int pos = 0; pos < 2; ++pos) {
        if (dag.gates[g].fanin[static_cast<std::size_t>(pos)] == kPiSlot) {
          of_gate[g][static_cast<std::size_t>(pos)] = next++;
        }
      }
    }
  }
};

/// Cone splits resolved per batched factorization call.  A chunk
/// amortizes the per-batch costs (target complement/offset, distinct-cone
/// smooths, the vectorized screen) over many splits while bounding the
/// work thrown away when a freshly verified solution stops the search
/// mid-gate.  Fixed, so chunk boundaries — and therefore memo contents
/// and counters — are deterministic.
constexpr std::size_t kFactorChunk = 32;

struct search_context {
  const stp_options& options;
  const tt::isf& target;    // root requirement (complete or with DCs)
  std::uint32_t root_cone;  // variables the root may consume
  unsigned num_vars;
  /// Multi-output mode: the (shrunk) target list, in output order;
  /// nullptr = classic single-output search.  In multi mode `target` and
  /// `root_cone` are unused placeholders — every dangling DAG gate is
  /// seeded from one of these functions instead.
  const std::vector<tt::truth_table>* multi;
  core::run_context& rc;  // this task's deadline / cancel flag / counters

  /// Two-level factorization memo: `shared_memo` holds everything learned
  /// before this level started (immutable while tasks run), `local_memo`
  /// collects this task's new entries for the post-join merge.  Same split
  /// for the fruitless-pending-state memo (keys include the structural
  /// suffix of the DAG, so they transfer across DAGs and levels).
  const factor_memo& shared_memo;
  factor_memo& local_memo;
  const util::flat_set64& shared_failed;
  util::flat_set64& local_failed;

  std::vector<chain::boolean_chain> solutions;
  util::flat_set64 solution_hashes;
  /// Per-DAG-position scratch for the splits a gate's partition
  /// enumeration collects before chunked factorization.  Indexed by
  /// position so the chunk loop can recurse into deeper gates without
  /// clobbering, and kept across DAGs so the innermost enumeration never
  /// touches the allocator once the capacities warm up.
  std::vector<std::vector<cone_split>> split_scratch;
  /// Per-DAG-position buffer for the packed lists of misses the memo cap
  /// kept out of the memo; indexed and kept like `split_scratch`.
  std::vector<std::vector<std::uint64_t>> overflow_scratch;
  bool stop = false;  // cancelled, deadline expired, or solution cap hit
  std::uint64_t ticks = 0;
  std::uint64_t candidates = 0;  // complete chains assembled

  void tick() {
    if ((++ticks & 0x3FF) == 0 && rc.should_stop()) {
      stop = true;
    }
  }

  [[nodiscard]] bool state_failed(std::uint64_t key) const {
    return shared_failed.contains(key) || local_failed.contains(key);
  }

  void record_failed(std::uint64_t key) {
    if (options.failed_memo_cap == 0 ||
        shared_failed.size() + local_failed.size() <
            options.failed_memo_cap) {
      local_failed.insert(key);
    }
  }

  /// Resolves the factorization lists of `r` for `count` (<= kFactorChunk)
  /// cone splits starting at `splits`: the memos are probed in split order
  /// first, then the misses are solved in one batched pipeline pass
  /// (`factor_requirement_batch`).  Keys are distinct within one gate's
  /// partition enumeration, so probing everything before solving leaves
  /// the hit/miss totals exactly what the split-at-a-time path counted.
  ///
  /// `resolved[i]` views the packed list for `splits[i]`, stored either in
  /// a memo or, when the memo cap stopped the insert, in the caller's
  /// per-frame `overflow` buffer; both outlive the caller's use of the
  /// chunk.  Everything else is stack-buffered: this runs on the innermost
  /// enumeration path, once per chunk, and must not touch the allocator
  /// when every split hits.
  void factor_batch(const requirement& r, const cone_split* splits,
                    std::size_t count,
                    std::array<branch_list, kFactorChunk>& resolved,
                    std::vector<std::uint64_t>& overflow) {
    assert(count <= kFactorChunk);
    std::array<cone_split, kFactorChunk> miss_splits;
    std::array<std::size_t, kFactorChunk> miss_of;
    std::size_t misses = 0;
    for (std::size_t i = 0; i < count; ++i) {
      auto hit = shared_memo.find(r, splits[i]);
      if (!hit) {
        hit = local_memo.find(r, splits[i]);
      }
      if (hit) {
        ++rc.counters.factor_memo_hits;
        resolved[i] = *hit;
        continue;
      }
      ++rc.counters.factor_memo_misses;
      miss_of[misses] = i;
      miss_splits[misses] = splits[i];
      ++misses;
    }
    if (misses == 0) {
      return;
    }
    const auto solved = factor_requirement_batch(r, miss_splits.data(), misses,
                                                 options.factor, &rc);
    // Offsets into `overflow` of the capped misses; views are taken only
    // once packing is done, since appending may move the buffer.
    constexpr std::size_t kInMemo = ~std::size_t{0};
    std::array<std::size_t, kFactorChunk> overflow_at;
    overflow.clear();
    for (std::size_t j = 0; j < misses; ++j) {
      // The cap is checked against the level-start snapshot plus this
      // task's own delta — both thread-count independent, so capped runs
      // stay deterministic.
      if (options.factor_memo_cap == 0 ||
          shared_memo.size() + local_memo.size() <
              options.factor_memo_cap) {
        resolved[miss_of[j]] = local_memo.insert(r, miss_splits[j], solved[j]);
        overflow_at[j] = kInMemo;
      } else {
        overflow_at[j] = overflow.size();
        pack_branches(solved[j], overflow);
      }
    }
    const std::size_t w = packed_table_words(num_vars);
    for (std::size_t j = 0; j < misses; ++j) {
      if (overflow_at[j] != kInMemo) {
        const std::uint64_t* words = overflow.data() + overflow_at[j];
        resolved[miss_of[j]] = branch_list{words, solved[j].size(), w};
      }
    }
  }
};

/// Search over one DAG topology.
class dag_search {
public:
  dag_search(search_context& ctx, const dag_topology& dag)
      : ctx_(ctx),
        dag_(dag),
        slots_(dag),
        capacity_(dag.pi_slot_capacity()),
        cone_gates_(dag.gates_in_cone()) {
    // Grown up front so enumerate_partitions can hold per-position
    // references across its recursion; capacities persist between DAGs.
    if (ctx_.split_scratch.size() < dag.gates.size()) {
      ctx_.split_scratch.resize(dag.gates.size());
      ctx_.overflow_scratch.resize(dag.gates.size());
    }
    // A cone of g gates depends on at most g + 1 distinct variables.
    for (std::size_t i = 0; i < capacity_.size(); ++i) {
      capacity_[i] = std::min(capacity_[i], cone_gates_[i] + 1);
    }
    // Canonical cone-subtree signatures: used to halve the partition
    // enumeration at gates whose two children have identical shapes.
    subtree_sig_.resize(dag.gates.size());
    for (std::size_t gi = 0; gi < dag.gates.size(); ++gi) {
      std::string a = dag.gates[gi].fanin[0] == kPiSlot
                          ? "*"
                          : subtree_sig_[static_cast<std::size_t>(
                                dag.gates[gi].fanin[0])];
      std::string b = dag.gates[gi].fanin[1] == kPiSlot
                          ? "*"
                          : subtree_sig_[static_cast<std::size_t>(
                                dag.gates[gi].fanin[1])];
      if (b < a) {
        std::swap(a, b);
      }
      subtree_sig_[gi] = "(" + a + b + ")";
    }
    // A gate whose two children are unshared, cone-disjoint gates of
    // identical shape produces every solution twice (mirrored); restrict
    // such gates to canonically ordered cone splits.
    std::vector<unsigned> fanout(dag.gates.size(), 0);
    std::vector<std::uint64_t> gate_reach(dag.gates.size(), 0);
    for (std::size_t gi = 0; gi < dag.gates.size(); ++gi) {
      gate_reach[gi] = std::uint64_t{1} << gi;
      for (const int fi : dag.gates[gi].fanin) {
        if (fi != kPiSlot) {
          ++fanout[static_cast<std::size_t>(fi)];
          gate_reach[gi] |= gate_reach[static_cast<std::size_t>(fi)];
        }
      }
    }
    symmetric_children_.assign(dag.gates.size(), false);
    for (std::size_t gi = 0; gi < dag.gates.size(); ++gi) {
      const int a = dag.gates[gi].fanin[0];
      const int b = dag.gates[gi].fanin[1];
      if (a != kPiSlot && b != kPiSlot &&
          subtree_sig_[static_cast<std::size_t>(a)] ==
              subtree_sig_[static_cast<std::size_t>(b)] &&
          fanout[static_cast<std::size_t>(a)] == 1 &&
          fanout[static_cast<std::size_t>(b)] == 1 &&
          (gate_reach[static_cast<std::size_t>(a)] &
           gate_reach[static_cast<std::size_t>(b)]) == 0) {
        symmetric_children_[gi] = true;
      }
    }
    // Processing order: parents strictly before children (requirements are
    // final when a gate is decomposed) and subtrees contiguous (a failed
    // subtree is re-recognized by the memo regardless of what happened in
    // sibling subtrees).  DFS from the root, releasing a gate once all its
    // parents are placed.
    std::vector<unsigned> parents_left(dag.gates.size(), 0);
    for (const auto& gt : dag.gates) {
      for (const int fi : gt.fanin) {
        if (fi != kPiSlot) {
          ++parents_left[static_cast<std::size_t>(fi)];
        }
      }
    }
    // Multi-output topologies have several fanout-free gates; seed the DFS
    // from all of them (ascending, so the highest — the classic root — is
    // processed first).  Single-output DAGs have roots() == {root()}, so
    // the order is unchanged there.
    std::vector<int> stack = dag.roots();
    order_.reserve(dag.gates.size());
    while (!stack.empty()) {
      const int g = stack.back();
      stack.pop_back();
      order_.push_back(g);
      for (const int fi : dag.gates[static_cast<std::size_t>(g)].fanin) {
        if (fi != kPiSlot &&
            --parents_left[static_cast<std::size_t>(fi)] == 0) {
          stack.push_back(fi);
        }
      }
    }
    // Per-position structural hash of the pending suffix (for the
    // cross-DAG failure memo).
    suffix_hash_.assign(order_.size() + 1, 0xcbf29ce484222325ull);
    for (std::size_t pos = order_.size(); pos-- > 0;) {
      std::uint64_t sh = suffix_hash_[pos + 1];
      auto smix = [&sh](std::uint64_t v) {
        sh ^= v;
        sh *= 0x100000001b3ull;
        sh ^= sh >> 29;
      };
      const int g = order_[pos];
      smix(static_cast<std::uint64_t>(g));
      smix(static_cast<std::uint64_t>(
          dag.gates[static_cast<std::size_t>(g)].fanin[0] + 2));
      smix(static_cast<std::uint64_t>(
          dag.gates[static_cast<std::size_t>(g)].fanin[1] + 2));
      suffix_hash_[pos] = sh;
    }
  }

  void run() {
    if (ctx_.multi != nullptr) {
      run_multi();
      return;
    }
    const auto root = static_cast<std::size_t>(dag_.root());
    if (capacity_[root] <
        static_cast<unsigned>(std::popcount(ctx_.root_cone))) {
      ++ctx_.rc.counters.dags_pruned;
      return;  // cannot reach all cone variables
    }
    gates_.assign(dag_.gates.size(), gate_state());
    slot_states_.assign(dag_.num_pi_slots(), slot_state{});
    gates_[root].has_requirement = true;
    gates_[root].req.cone = ctx_.root_cone;
    gates_[root].req.func = ctx_.target;
    gates_[root].req_hash = gates_[root].req.cone * 0x9E3779B97F4A7C15ull +
                            gates_[root].req.func.hash();
    descend(0);
  }

  /// Multi-output search: every fanout-free gate must carry one output
  /// (a dangling non-output gate contradicts optimality), so enumerate
  /// the injective assignments of fanout-free gates to target functions
  /// and run the factorization DFS once per assignment.  Root signals are
  /// canonically normal — the inversion rides on the output's complement
  /// flag, the same canonicalization the CNF encodings use; complementing
  /// a dangling gate's LUT yields an equivalent chain, so no optimum is
  /// lost.  Outputs not bound to a fanout-free gate are matched against
  /// interior signals when a complete candidate is assembled.
  void run_multi() {
    const auto& fs = *ctx_.multi;
    const auto roots = dag_.roots();
    const std::size_t m = fs.size();
    if (roots.size() > m) {
      ++ctx_.rc.counters.dags_pruned;
      return;  // some dangling gate could carry no output
    }
    std::vector<tt::isf> reqs;
    reqs.reserve(m);
    std::vector<std::uint32_t> cones(m);
    std::vector<bool> inverted(m);
    for (std::size_t h = 0; h < m; ++h) {
      auto fp = fs[h];
      inverted[h] = fp.get_bit(0);
      if (inverted[h]) {
        fp = ~fp;
      }
      cones[h] = fp.support_mask();
      reqs.push_back(tt::isf::from_function(fp));
    }
    std::vector<int> chosen(roots.size(), -1);
    std::vector<bool> used(m, false);
    const auto assign_roots = [&](auto&& self, std::size_t ri) -> void {
      if (ctx_.stop) {
        return;
      }
      if (ri == roots.size()) {
        gates_.assign(dag_.gates.size(), gate_state());
        slot_states_.assign(dag_.num_pi_slots(), slot_state{});
        root_of_output_.assign(m, -1);
        root_output_inverted_.assign(m, false);
        for (std::size_t i = 0; i < roots.size(); ++i) {
          const auto g = static_cast<std::size_t>(roots[i]);
          const auto h = static_cast<std::size_t>(chosen[i]);
          gates_[g].has_requirement = true;
          gates_[g].req.cone = cones[h];
          gates_[g].req.func = reqs[h];
          gates_[g].req_hash =
              gates_[g].req.cone * 0x9E3779B97F4A7C15ull +
              gates_[g].req.func.hash();
          root_of_output_[h] = roots[i];
          root_output_inverted_[h] = inverted[h];
        }
        descend(0);
        return;
      }
      const auto g = static_cast<std::size_t>(roots[ri]);
      for (std::size_t h = 0; h < m; ++h) {
        if (used[h] ||
            capacity_[g] <
                static_cast<unsigned>(std::popcount(cones[h]))) {
          continue;
        }
        used[h] = true;
        chosen[ri] = static_cast<int>(h);
        self(self, ri + 1);
        used[h] = false;
        chosen[ri] = -1;
      }
    };
    assign_roots(assign_roots, 0);
  }

private:
  /// Capacity of a fanin (gate or slot) in distinct variables.
  [[nodiscard]] unsigned fanin_capacity(int fanin) const {
    return fanin == kPiSlot
               ? 1u
               : capacity_[static_cast<std::size_t>(fanin)];
  }

  /// Hash of the pending work at processing position `pos`: the structure
  /// and current requirements of the gates not yet decomposed.  Feasibility
  /// of the rest of the search depends on nothing else, so sub-searches
  /// that produced no chain can be skipped when the same pending state
  /// recurs — under a different upstream branch or even a different DAG
  /// with the same pending structure.
  [[nodiscard]] std::uint64_t pending_state_key(std::size_t pos) const {
    std::uint64_t h = suffix_hash_[pos];
    auto mix = [&h](std::uint64_t v) {
      h ^= v;
      h *= 0x100000001b3ull;
      h ^= h >> 29;
    };
    for (std::size_t i = pos; i < order_.size(); ++i) {
      const auto& st = gates_[static_cast<std::size_t>(order_[i])];
      mix(st.has_requirement ? st.req_hash : 0x51ED270B);
    }
    return h;
  }

  /// Processes gates in the precomputed parents-first order.
  void descend(std::size_t pos) {
    if (ctx_.stop) {
      return;
    }
    ctx_.tick();
    if (pos == order_.size()) {
      emit();
      return;
    }
    const std::uint64_t key = pending_state_key(pos);
    if (ctx_.state_failed(key)) {
      return;
    }
    // Memoize only *structural* failures (no complete candidate assembled):
    // duplicate-solution bookkeeping must not poison the cache.
    const std::uint64_t candidates_before = ctx_.candidates;
    const int g = order_[pos];
    auto& state = gates_[static_cast<std::size_t>(g)];
    assert(state.has_requirement);  // fanout >= 1 guarantees a parent set it
    const auto& topo_gate = dag_.gates[static_cast<std::size_t>(g)];
    enumerate_partitions(pos, g, topo_gate.fanin[0], topo_gate.fanin[1],
                         state.req);
    if (ctx_.candidates == candidates_before && !ctx_.stop) {
      ctx_.record_failed(key);
    }
  }

  /// Enumerates cone splits (A, B) of the gate's cone, honouring cones
  /// already fixed on shared children, then factorizes the collected
  /// splits in chunked batches and recurses per split.
  void enumerate_partitions(std::size_t pos, int g, int child_a, int child_b,
                            const requirement& req) {
    const std::uint32_t cone = req.cone;
    const auto fixed_a = fixed_cone(child_a);
    const auto fixed_b = fixed_cone(child_b);

    std::vector<unsigned> vars;
    for (unsigned v = 0; v < ctx_.num_vars; ++v) {
      if ((cone >> v) & 1) {
        vars.push_back(v);
      }
    }

    // Recursive 3-way assignment (left / right / both) with fixed-cone and
    // capacity pruning.
    const unsigned cap_a = fanin_capacity(child_a);
    const unsigned cap_b = fanin_capacity(child_b);
    const bool both_slots = child_a == kPiSlot && child_b == kPiSlot;

    // Pre-sized to the gate count when the search started: growing it
    // here would invalidate the references outer recursion levels hold.
    auto& splits = ctx_.split_scratch[pos];
    splits.clear();
    auto assign = [&](auto&& self, std::size_t index, std::uint32_t a,
                      std::uint32_t b) -> void {
      if (ctx_.stop) {
        return;
      }
      if (index == vars.size()) {
        if (a == 0 || b == 0) {
          return;
        }
        if (fixed_a && *fixed_a != a) {
          return;
        }
        if (fixed_b && *fixed_b != b) {
          return;
        }
        if (both_slots) {
          // Unordered slot pair: canonical order, no twin variables.
          if (a >= b) {
            return;
          }
        }
        if (symmetric_children_[static_cast<std::size_t>(g)] && a > b) {
          return;  // mirrored split of identical subtrees
        }
        splits.push_back(cone_split{a, b});
        return;
      }
      const std::uint32_t bit = 1u << vars[index];
      const auto in_fixed_a = !fixed_a || (*fixed_a & bit);
      const auto in_fixed_b = !fixed_b || (*fixed_b & bit);
      // left only
      if (in_fixed_a && (!fixed_b || !(*fixed_b & bit)) &&
          std::popcount(a | bit) <= static_cast<int>(cap_a)) {
        self(self, index + 1, a | bit, b);
      }
      // right only
      if (in_fixed_b && (!fixed_a || !(*fixed_a & bit)) &&
          std::popcount(b | bit) <= static_cast<int>(cap_b)) {
        self(self, index + 1, a, b | bit);
      }
      // both (the M_r sharing case)
      if (in_fixed_a && in_fixed_b &&
          std::popcount(a | bit) <= static_cast<int>(cap_a) &&
          std::popcount(b | bit) <= static_cast<int>(cap_b)) {
        self(self, index + 1, a | bit, b | bit);
      }
    };
    assign(assign, 0, 0, 0);
    for (std::size_t base = 0; base < splits.size(); base += kFactorChunk) {
      if (ctx_.stop) {
        return;
      }
      const std::size_t end = std::min(base + kFactorChunk, splits.size());
      std::array<branch_list, kFactorChunk> resolved;
      ctx_.factor_batch(req, splits.data() + base, end - base, resolved,
                        ctx_.overflow_scratch[pos]);
      for (std::size_t i = base; i < end; ++i) {
        // Poll here as well as in descend(): one descend can enumerate
        // tens of thousands of splits on wide cones, and each resolved
        // split costs a full child recursion — per-descend polling alone
        // lets a deadline slip by seconds.
        ctx_.tick();
        if (ctx_.stop) {
          return;
        }
        try_split(pos, g, child_a, child_b, resolved[i - base]);
      }
    }
  }

  [[nodiscard]] std::optional<std::uint32_t> fixed_cone(int child) const {
    if (child == kPiSlot) {
      return std::nullopt;
    }
    const auto& st = gates_[static_cast<std::size_t>(child)];
    if (st.has_requirement) {
      return st.req.cone;
    }
    return std::nullopt;
  }

  /// Recurses into every factorization of one already-resolved split.
  void try_split(std::size_t pos, int g, int child_a, int child_b,
                 const branch_list& list) {
    const auto slot_ids = slots_.of_gate[static_cast<std::size_t>(g)];
    for (std::size_t f = 0; f < list.size(); ++f) {
      if (ctx_.stop) {
        return;
      }
      // Snapshot the state touched by this branch.
      auto& gate = gates_[static_cast<std::size_t>(g)];
      const gate_state saved_gate = gate;
      gate.decomposed = true;
      gate.family = list.family(f);
      gate.complemented = list.output_complemented(f);

      apply_child(g, 0, child_a, slot_ids[0], list, f, [&](bool ok_left) {
        if (!ok_left) {
          return;
        }
        apply_child(g, 1, child_b, slot_ids[1], list, f, [&](bool ok_right) {
          if (ok_right) {
            descend(pos + 1);
          }
        });
      });
      gate = saved_gate;
    }
  }

  /// Applies the child requirement at fanin `pos` of branch `f` of `list`
  /// (branching over slot polarities when the child is a PI slot) and
  /// invokes `k(true)` for every viable variant; state changes are rolled
  /// back before returning.
  template <typename K>
  void apply_child(int g, int pos, int child, int slot_id,
                   const branch_list& list, std::size_t f, K&& k) {
    const std::uint32_t cone = list.cone(f, pos);
    tt::isf incoming = list.func(f, pos, ctx_.num_vars);
    if (child == kPiSlot) {
      // The cone is a single variable; try both literal polarities.
      assert(std::popcount(cone) == 1);
      const unsigned v = static_cast<unsigned>(std::countr_zero(cone));
      const auto positive = tt::truth_table::nth_var(ctx_.num_vars, v);
      auto& slot = slot_states_[static_cast<std::size_t>(slot_id)];
      const slot_state saved = slot;
      bool any = false;
      if (incoming.accepts(positive)) {
        slot = slot_state{static_cast<int>(v), false};
        any = true;
        k(true);
      }
      if (ctx_.stop) {
        slot = saved;
        return;
      }
      if (incoming.accepts(~positive)) {
        slot = slot_state{static_cast<int>(v), true};
        any = true;
        k(true);
      }
      slot = saved;
      if (!any) {
        k(false);
      }
      return;
    }
    auto& st = gates_[static_cast<std::size_t>(child)];
    auto& parent = gates_[static_cast<std::size_t>(g)];
    const gate_state saved = st;
    const bool saved_neg = parent.child_negated[static_cast<std::size_t>(pos)];

    if (ctx_.options.normalize_polarity) {
      // Canonical polarity: the child signal must be normal (0 on the
      // all-zeros row).  If the requirement forces a 1 there, demand the
      // complement instead and fold the inversion into this gate's LUT;
      // if the row is a don't-care, pin it to 0.
      const bool care0 = incoming.careset().get_bit(0);
      const bool on0 = incoming.onset().get_bit(0);
      if (care0 && on0) {
        incoming = incoming.complement();
        parent.child_negated[static_cast<std::size_t>(pos)] = true;
      } else if (!care0) {
        auto care = incoming.careset();
        care.set_bit(0, true);
        incoming = tt::isf{incoming.onset(), care};
      }
    }

    if (st.has_requirement) {
      assert(st.req.cone == cone);
      const auto merged = st.req.func.intersect(incoming);
      if (!merged) {
        parent.child_negated[static_cast<std::size_t>(pos)] = saved_neg;
        k(false);
        return;
      }
      st.req.func = *merged;
    } else {
      st.has_requirement = true;
      st.req = requirement{cone, std::move(incoming)};
    }
    st.req_hash = st.req.cone * 0x9E3779B97F4A7C15ull + st.req.func.hash();
    k(true);
    st = saved;
    parent.child_negated[static_cast<std::size_t>(pos)] = saved_neg;
  }

  /// All gates decomposed: build the concrete chain, verify it with the
  /// circuit AllSAT solver + simulation, and record it.
  void emit() {
    ++ctx_.candidates;
    chain::boolean_chain candidate{ctx_.num_vars};
    std::vector<std::uint32_t> signal_of_gate(dag_.gates.size());
    for (std::size_t g = 0; g < dag_.gates.size(); ++g) {
      const auto& topo_gate = dag_.gates[g];
      const auto slot_ids = slots_.of_gate[g];
      const auto& st = gates_[g];
      std::uint32_t fanin_signal[2];
      bool fanin_negated[2];
      for (int pos = 0; pos < 2; ++pos) {
        const int fi = topo_gate.fanin[static_cast<std::size_t>(pos)];
        if (fi == kPiSlot) {
          const auto& slot = slot_states_[static_cast<std::size_t>(
              slot_ids[static_cast<std::size_t>(pos)])];
          fanin_signal[pos] = static_cast<std::uint32_t>(slot.var);
          fanin_negated[pos] = slot.negated;
        } else {
          fanin_signal[pos] = signal_of_gate[static_cast<std::size_t>(fi)];
          fanin_negated[pos] =
              st.child_negated[static_cast<std::size_t>(pos)];
        }
      }
      unsigned op = 0;
      for (unsigned pattern = 0; pattern < 4; ++pattern) {
        const bool a = ((pattern & 1) != 0) != fanin_negated[0];
        const bool b = ((pattern >> 1) != 0) != fanin_negated[1];
        bool out = st.family == op_family::and_like ? (a && b) : (a != b);
        out = out != st.complemented;
        if (out) {
          op |= 1u << pattern;
        }
      }
      signal_of_gate[g] =
          candidate.add_step(op, fanin_signal[0], fanin_signal[1]);
    }
    if (ctx_.multi != nullptr) {
      emit_multi(candidate, signal_of_gate);
      return;
    }
    candidate.set_output(signal_of_gate.back());

    if (!solution_is_new(candidate)) {
      return;
    }
    // Section III-C judging: AllSAT over the candidate network, simulate
    // the solution set (f_s), and check it against the specification —
    // acceptance by the ISF generalizes the paper's equality test.
    const auto realized = candidate.simulate();
    if (!ctx_.target.accepts(realized)) {
      return;
    }
    const auto allsat_result = allsat::solve_all(candidate, true, &ctx_.rc);
    if (allsat::solutions_to_function(ctx_.num_vars,
                                      allsat_result.solutions) != realized) {
      return;
    }
    ctx_.solutions.push_back(std::move(candidate));
    if (ctx_.options.max_solutions != 0 &&
        ctx_.solutions.size() >= ctx_.options.max_solutions) {
      ctx_.stop = true;
    }
  }

  /// Multi-output candidate: bind the assigned fanout-free gates, match
  /// the remaining targets against interior signals (smallest signal,
  /// exact before complemented — a deterministic canonical choice), then
  /// verify and record.  A candidate whose interior realizes no match for
  /// some output is simply not a solution of the multi-output spec.
  void emit_multi(chain::boolean_chain& candidate,
                  const std::vector<std::uint32_t>& signal_of_gate) {
    const auto& fs = *ctx_.multi;
    const auto sims = candidate.simulate_all();
    std::vector<chain::output_ref> outs(fs.size());
    for (std::size_t h = 0; h < fs.size(); ++h) {
      if (root_of_output_[h] >= 0) {
        const auto sig =
            signal_of_gate[static_cast<std::size_t>(root_of_output_[h])];
        const bool c = root_output_inverted_[h];
        if ((c ? ~sims[sig] : sims[sig]) != fs[h]) {
          return;  // factorization slack (ISF requirements): reject
        }
        outs[h] = chain::output_ref{sig, c};
        continue;
      }
      bool found = false;
      for (std::uint32_t sig = 0; sig < sims.size() && !found; ++sig) {
        if (sims[sig] == fs[h]) {
          outs[h] = chain::output_ref{sig, false};
          found = true;
        } else if (~sims[sig] == fs[h]) {
          outs[h] = chain::output_ref{sig, true};
          found = true;
        }
      }
      if (!found) {
        return;
      }
    }
    candidate.set_outputs(std::move(outs));
    if (!solution_is_new(candidate)) {
      return;
    }
    // Section III-C judging over the multi-output network: Algorithm 1's
    // PO loop drives every output to 1; the merged solution set must
    // simulate to the conjunction of the output functions.
    allsat::lut_network net;
    net.num_inputs = candidate.num_inputs();
    net.steps = candidate.steps();
    auto conjunction = tt::truth_table::constant(ctx_.num_vars, true);
    for (const auto& o : candidate.outputs()) {
      net.outputs.push_back(allsat::lut_network::output{o.signal,
                                                        o.complemented});
      conjunction =
          conjunction & (o.complemented ? ~sims[o.signal] : sims[o.signal]);
    }
    const auto allsat_result = allsat::solve_all(
        net, std::vector<bool>(net.outputs.size(), true), &ctx_.rc);
    if (allsat::solutions_to_function(
            ctx_.num_vars, allsat_result.solutions) != conjunction) {
      return;
    }
    ctx_.solutions.push_back(std::move(candidate));
    if (ctx_.options.max_solutions != 0 &&
        ctx_.solutions.size() >= ctx_.options.max_solutions) {
      ctx_.stop = true;
    }
  }

  bool solution_is_new(const chain::boolean_chain& candidate) {
    return ctx_.solution_hashes.insert(candidate.hash());
  }

  search_context& ctx_;
  const dag_topology& dag_;
  slot_index_map slots_;
  std::vector<unsigned> capacity_;
  std::vector<unsigned> cone_gates_;
  std::vector<int> order_;
  std::vector<std::uint64_t> suffix_hash_;
  std::vector<std::string> subtree_sig_;
  std::vector<bool> symmetric_children_;
  std::vector<gate_state> gates_;
  std::vector<slot_state> slot_states_;
  /// Multi mode, per output: fanout-free gate bound to it (-1 = matched
  /// against interior signals at emit time) and the polarity inversion
  /// folded onto the output flag by root normalization.
  std::vector<int> root_of_output_;
  std::vector<bool> root_output_inverted_;
};

/// DAGs per worker task.  Fixed (thread-count independent) so the chunk
/// boundaries, the memo snapshots each task sees, and the task-order merge
/// are identical no matter how many workers execute the tasks.
constexpr std::size_t kLevelChunk = 64;

/// One worker task's private output, merged in task order after the join.
struct task_output {
  std::vector<chain::boolean_chain> solutions;
  core::stage_counters counters;
  factor_memo memo_delta;
  util::flat_set64 failed_delta;
  // Set when the task observed a cancel or deadline: factorizations abort
  // mid-enumeration under cancellation, so the deltas may record states as
  // "failed" (or memoize factor lists) that were never exhaustively
  // refuted — unsound to carry into later levels.
  bool tainted = false;
};

/// Runs one gate-count level over the materialized candidate DAGs, fanning
/// fixed contiguous chunks across `pool` (or inline when null).
///
/// Determinism contract: every task reads only the level-start snapshot of
/// `memo` / `failed` plus its private delta, chunk boundaries depend only
/// on `dags.size()`, and solutions are committed strictly in task order
/// (deduplicated, capped) — so the returned solution list is bit-identical
/// at any thread count, and with `max_solutions == 0` the merged counters
/// are too.  The in-order commit runs concurrently with later tasks so a
/// solution-cap hit cancels the rest of the level early via `level_rc`.
std::vector<chain::boolean_chain> run_level(
    const stp_options& options, const tt::isf& target, std::uint32_t root_cone,
    unsigned num_vars, const std::vector<tt::truth_table>* multi,
    const std::vector<dag_topology>& dags, core::run_context& rc,
    factor_memo& memo, util::flat_set64& failed, service::thread_pool* pool) {
  const std::size_t num_tasks = (dags.size() + kLevelChunk - 1) / kLevelChunk;
  std::vector<task_output> outputs(num_tasks);
  // Level-local cancel hub: a child of `rc`, so external cancels and the
  // deadline propagate down, while a solution-cap hit cancels only the
  // remainder of this level.
  core::run_context level_rc(&rc);

  std::mutex commit_mutex;
  std::condition_variable tasks_cv;
  std::size_t tasks_finished = 0;
  std::vector<char> task_done(num_tasks, 0);
  std::size_t committed = 0;
  util::flat_set64 merged_hashes;
  std::vector<chain::boolean_chain> merged;
  // Commits the ready in-order prefix of task solutions; caller holds the
  // commit mutex.
  const auto commit_ready = [&] {
    while (committed < num_tasks && task_done[committed] != 0) {
      for (auto& c : outputs[committed].solutions) {
        if (options.max_solutions != 0 &&
            merged.size() >= options.max_solutions) {
          break;
        }
        if (merged_hashes.insert(c.hash())) {
          merged.push_back(std::move(c));
          if (options.max_solutions != 0 &&
              merged.size() >= options.max_solutions) {
            level_rc.request_cancel();
          }
        }
      }
      outputs[committed].solutions.clear();
      ++committed;
    }
  };

  // Marks a task done and commits the ready prefix.  Notify under the
  // lock: the waiter below owns this cv's stack frame and destroys it as
  // soon as the predicate holds, so an unlocked notify could race the
  // destructor.
  const auto finish_task = [&](std::size_t task_idx) {
    const std::lock_guard<std::mutex> lock(commit_mutex);
    task_done[task_idx] = 1;
    commit_ready();
    ++tasks_finished;
    tasks_cv.notify_all();
  };

  const auto run_task = [&](std::size_t task_idx) {
    task_output& out = outputs[task_idx];
    if (level_rc.should_stop()) {
      // Cap hit, external cancel, or deadline: skip the chunk entirely so
      // the level winds down without paying a tick stride per task.  The
      // slot still commits (empty) to keep the in-order merge moving.
      finish_task(task_idx);
      return;
    }
    core::run_context task_rc(&level_rc);
    search_context ctx{options,  target,         root_cone,
                       num_vars, multi,          task_rc,
                       memo,     out.memo_delta, failed,
                       out.failed_delta,         {},
                       {},       {},             {}};
    const std::size_t begin = task_idx * kLevelChunk;
    const std::size_t end = std::min(begin + kLevelChunk, dags.size());
    for (std::size_t i = begin; i < end && !ctx.stop; ++i) {
      dag_search search{ctx, dags[i]};
      search.run();
    }
    out.solutions = std::move(ctx.solutions);
    out.counters = task_rc.counters;
    out.tainted = task_rc.should_stop();
    finish_task(task_idx);
  };

  if (pool == nullptr) {
    for (std::size_t t = 0; t < num_tasks; ++t) {
      if (level_rc.should_stop()) {
        break;  // cap hit, external cancel, or deadline: skip the rest
      }
      run_task(t);
    }
  } else {
    for (std::size_t t = 0; t < num_tasks; ++t) {
      try {
        pool->submit([&run_task, t] { run_task(t); });
      } catch (const std::exception&) {
        run_task(t);  // pool rejected the task (shutdown/failpoint)
      }
    }
    // Wait on the level's own completion latch, not `pool->wait_idle()`:
    // in portfolio mode the pool also carries the concurrent lower-bound
    // probe task, whose lifetime this level must not block on.
    std::unique_lock<std::mutex> lock(commit_mutex);
    tasks_cv.wait(lock, [&] { return tasks_finished == num_tasks; });
  }

  // Fold the private deltas back in task order: counters become
  // thread-count independent, and the memos carry over to the next level.
  for (auto& out : outputs) {
    rc.counters += out.counters;
    if (out.tainted) {
      continue;  // cancelled mid-chunk: deltas may be truncated, drop them
    }
    memo.merge_from(std::move(out.memo_delta), options.factor_memo_cap);
    if (options.failed_memo_cap == 0 ||
        failed.size() + out.failed_delta.size() <= options.failed_memo_cap) {
      out.failed_delta.for_each(
          [&](std::uint64_t key) { failed.insert(key); });
    } else {
      out.failed_delta.for_each([&](std::uint64_t key) {
        if (failed.size() < options.failed_memo_cap) {
          failed.insert(key);
        }
      });
    }
  }
  return merged;
}

/// Materializes the candidate DAGs of one gate count.
std::vector<dag_topology> materialize_level_dags(
    const fence::dag_options& dag_opts,
    const std::vector<fence::fence>& fences, core::run_context& rc) {
  std::vector<dag_topology> level_dags;
  for (const auto& fc : fences) {
    if (rc.should_stop()) {
      break;
    }
    for (auto& dag : fence::generate_dags(fc, dag_opts, &rc)) {
      level_dags.push_back(std::move(dag));
    }
  }
  // Sweep order heuristic: the fence enumerator emits the narrow, deep
  // topologies first and the wide, high-PI-capacity shapes last, and on
  // hard instances the realizable topologies concentrate in the latter.
  // Reversing surfaces first optimum chains orders of magnitude sooner
  // (sub-second instead of 20s+ on the hard NPN4 classes) while leaving
  // the swept set — and therefore the complete solution set of a finished
  // level — unchanged.  The order is still a fixed permutation of the
  // generation order, so chunking and the merged results stay
  // deterministic and thread-count independent.
  std::reverse(level_dags.begin(), level_dags.end());
  return level_dags;
}

/// One portfolio level: the CNF probe races the STP sweep, first proof
/// wins, loser cancelled through its child run_context.
///
/// The probe runs as one pool task under `probe_rc`; the sweep runs on the
/// calling thread (fanning chunks over `sweep_pool` when non-null) under
/// `sweep_rc`.  A probe-infeasible verdict cancels `sweep_rc` — sound and
/// *result-preserving*, because infeasible levels have no solutions to
/// lose; the sweep finishing first just makes the probe's answer moot and
/// the probe is cancelled on the way out (observed within one solver poll
/// stride).  Either way both sides are joined before returning, so the
/// child counters merge race-free into `rc`.
std::vector<chain::boolean_chain> run_portfolio_level(
    const stp_options& options, const lower_bound_prober& prober,
    const tt::isf& target, std::uint32_t root_cone, unsigned num_vars,
    const std::vector<tt::truth_table>* multi, unsigned gates,
    const std::vector<dag_topology>& dags, core::run_context& rc,
    factor_memo& memo, util::flat_set64& failed, service::thread_pool& pool,
    service::thread_pool* sweep_pool,
    std::optional<chain::boolean_chain>& witness) {
  core::run_context probe_rc(&rc);
  core::run_context sweep_rc(&rc);

  std::mutex race_mutex;
  std::condition_variable race_cv;
  bool probe_done = false;
  bool sweep_done = false;
  bool probe_won = false;
  probe_result probe_out;

  bool probe_running = true;
  try {
    pool.submit([&] {
      const auto verdict = multi != nullptr
                               ? prober.probe_multi(*multi, gates, &probe_rc)
                               : prober.probe(target, gates, &probe_rc);
      {
        const std::lock_guard<std::mutex> lock(race_mutex);
        probe_out = verdict;
        probe_done = true;
        if (verdict.verdict == probe_verdict::infeasible && !sweep_done) {
          probe_won = true;
          sweep_rc.request_cancel();
        }
        // Notify under the lock: the waiter owns this cv's stack frame and
        // destroys it as soon as the predicate holds, so an unlocked notify
        // could race the destructor.
        race_cv.notify_all();
      }
    });
  } catch (const std::exception&) {
    probe_running = false;  // pool rejected (shutdown/failpoint): sweep only
  }

  auto solutions = run_level(options, target, root_cone, num_vars, multi,
                             dags, sweep_rc, memo, failed, sweep_pool);
  {
    const std::lock_guard<std::mutex> lock(race_mutex);
    sweep_done = true;
  }
  probe_rc.request_cancel();
  if (probe_running) {
    std::unique_lock<std::mutex> lock(race_mutex);
    race_cv.wait(lock, [&] { return probe_done; });
  }

  rc.counters += probe_rc.counters;
  rc.counters += sweep_rc.counters;
  if (probe_out.verdict == probe_verdict::feasible) {
    ++rc.counters.probe_sat_levels;
    witness = std::move(probe_out.witness);
  }
  if (probe_won) {
    ++rc.counters.probe_unsat_levels;
    ++rc.counters.portfolio_probe_wins;
  } else if (probe_running && !rc.should_stop()) {
    ++rc.counters.portfolio_sweep_wins;
  }
  return solutions;
}

/// The shared ascending-size sweep behind `run` and `run_with_dont_cares`:
/// per gate count, materialize the pruned topologies and decide the level
/// with the configured `stp_level_engine`.  Sets `out`'s outcome, optimum,
/// chains (un-lifted), and completeness flag.
void run_size_sweep(const stp_options& options, const tt::isf& target,
                    std::uint32_t root_cone, unsigned num_vars,
                    const std::vector<tt::truth_table>* multi,
                    unsigned start_gates, unsigned max_gates,
                    core::run_context& rc, service::thread_pool* pool,
                    service::thread_pool* sweep_pool, result& out) {
  const unsigned max_outputs =
      multi != nullptr ? static_cast<unsigned>(multi->size()) : 1;
  fence::dag_options dag_opts;
  dag_opts.allow_shared_gates = options.allow_shared_gates;
  dag_opts.max_outputs = max_outputs;

  // The factorization memo and the failure memo are sound across gate
  // counts (their keys are self-contained), so they persist over the
  // whole size sweep.
  factor_memo memo;
  util::flat_set64 failed_states;
  const lower_bound_prober prober{options.probe};

  for (unsigned gates = start_gates; gates <= max_gates; ++gates) {
    if (rc.should_stop()) {
      out.outcome = status::timeout;
      return;
    }
    std::optional<chain::boolean_chain> witness;
    if (options.engine == stp_level_engine::probe_sweep) {
      // Pre-sweep gate: one CNF call per pruned fence refutes the whole
      // level; `unknown` (budget/size cutoff) falls through to the sweep,
      // so the probe can only skip work, never change the result.
      auto pr = multi != nullptr ? prober.probe_multi(*multi, gates, &rc)
                                 : prober.probe(target, gates, &rc);
      if (pr.verdict == probe_verdict::infeasible) {
        ++rc.counters.probe_unsat_levels;
        continue;  // no DAG of this level is materialized or swept
      }
      if (pr.verdict == probe_verdict::feasible) {
        ++rc.counters.probe_sat_levels;
        witness = std::move(pr.witness);
      }
    }
    const auto fences =
        options.use_fence_pruning
            ? (multi != nullptr
                   ? fence::pruned_fences_multi(gates, max_outputs, &rc)
                   : fence::pruned_fences(gates, &rc))
            : fence::all_fences(gates, &rc);
    const auto level_dags = materialize_level_dags(dag_opts, fences, rc);
    auto solutions =
        options.engine == stp_level_engine::portfolio && pool != nullptr
            ? run_portfolio_level(options, prober, target, root_cone,
                                  num_vars, multi, gates, level_dags, rc,
                                  memo, failed_states, *pool, sweep_pool,
                                  witness)
            : run_level(options, target, root_cone, num_vars, multi,
                        level_dags, rc, memo, failed_states, sweep_pool);

    // Reaching this level at all proves every smaller gate count was
    // exhausted without a solution, so any chain found here is optimum —
    // even when the deadline cut the level's sweep short.  A cut sweep
    // only makes the *set* partial, which `enumeration_complete = false`
    // records; this matches what single-solution CNF engines count as
    // solved.  Only a level interrupted before its first verified chain
    // is a genuine timeout.  (A solution-cap stop cancels only
    // `level_rc`, not `rc`, so capped runs report a complete
    // enumeration under their configured cap.)
    if (!solutions.empty()) {
      out.outcome = status::success;
      out.optimum_gates = gates;
      out.enumeration_complete = !rc.should_stop();
      out.chains = std::move(solutions);
      return;
    }
    if (rc.should_stop()) {
      // The deadline cut this level before the sweep surfaced a chain.
      // If the probe already answered `feasible`, its SAT model is a
      // chain of exactly `gates` steps; re-verified against the
      // requirement it salvages a proven-optimum partial success —
      // every smaller level was exhausted above, this level is realized.
      const auto witness_ok = [&] {
        if (!witness.has_value()) {
          return false;
        }
        if (multi == nullptr) {
          return ((witness->simulate() ^ target.onset()) & target.careset())
              .is_const0();
        }
        if (witness->num_outputs() != multi->size()) {
          return false;
        }
        const auto sims = witness->simulate_outputs();
        for (std::size_t h = 0; h < multi->size(); ++h) {
          if (sims[h] != (*multi)[h]) {
            return false;
          }
        }
        return true;
      };
      if (witness_ok()) {
        out.outcome = status::success;
        out.optimum_gates = gates;
        out.enumeration_complete = false;
        out.chains = {std::move(*witness)};
        return;
      }
      out.outcome = status::timeout;
      return;
    }
  }
  out.outcome = status::failure;
}

/// One prepared solve: what `run` and `run_with_dont_cares` hand the
/// shared driver.
struct solve_input {
  tt::isf root;            // root requirement; a placeholder in multi mode
  std::uint32_t cone = 0;  // variables the root may consume
  const std::vector<tt::truth_table>* multi = nullptr;  // see search_context
  unsigned lower = 1;                                   // first gate count
  /// Original variable of each solve variable, and the original input
  /// count: every chain is lifted back through this map.
  std::vector<unsigned> old_of_new;
  unsigned num_original_inputs = 0;
};

/// Degenerate pre-pass: a root some constant or literal satisfies needs no
/// search.  The chain is built over the original inputs, since a constant
/// shrinks to zero variables and leaves its const-LUT step no fanin.
bool solve_degenerate(const solve_input& in, result& out) {
  const unsigned n = in.root.num_vars();
  for (const bool value : {false, true}) {
    if (in.root.accepts(tt::truth_table::constant(n, value))) {
      return synthesize_degenerate(
          tt::truth_table::constant(in.num_original_inputs, value), out);
    }
  }
  for (unsigned v = 0; v < n; ++v) {
    for (const bool complemented : {false, true}) {
      if (in.root.accepts(tt::truth_table::nth_var(n, v, complemented))) {
        return synthesize_degenerate(
            tt::truth_table::nth_var(in.num_original_inputs,
                                     in.old_of_new[v], complemented),
            out);
      }
    }
  }
  return false;
}

/// The one driver behind every STP solve: times the call, charges the
/// counter delta to `run_ctx` (or a private context), answers degenerate
/// single-output roots, and otherwise runs the size sweep on `threads`
/// workers (0 or 1 = sequential) and lifts its chains.
result solve(const stp_options& options, const solve_input& in,
             unsigned max_gates, unsigned threads,
             core::run_context* run_ctx) {
  util::stopwatch watch;
  result out;
  core::run_context local_rc;
  core::run_context& rc = run_ctx != nullptr ? *run_ctx : local_rc;
  const core::stage_counters at_start = rc.counters;

  if (in.multi != nullptr || !solve_degenerate(in, out)) {
    // Portfolio mode needs a pool even single-threaded (the probe task);
    // the sweep then runs inline so the probe is not queued behind it.
    std::optional<service::thread_pool> pool;
    if (threads > 1 || options.engine == stp_level_engine::portfolio) {
      pool.emplace(threads);
    }
    service::thread_pool* sweep_pool = threads > 1 ? &*pool : nullptr;
    run_size_sweep(options, in.root, in.cone, in.root.num_vars(), in.multi,
                   in.lower, max_gates, rc, pool ? &*pool : nullptr,
                   sweep_pool, out);
    for (auto& c : out.chains) {
      c = lift_chain_to_original(c, in.old_of_new, in.num_original_inputs);
    }
  }
  out.seconds = watch.elapsed_seconds();
  out.counters = rc.counters - at_start;
  return out;
}

}  // namespace

stp_engine::stp_engine(stp_options options) : options_(options) {}

result stp_engine::run(const spec& s) {
  // Shrunk to the union support: the search never sees a variable no
  // target depends on.  Multi-output callers (the core pre-pass) pass
  // non-degenerate, pairwise-distinct targets.
  const auto targets = s.targets();
  solve_input in;
  const auto fs = shrink_for_synthesis(targets, in.old_of_new);
  const unsigned n = fs.front().num_vars();
  in.root = tt::isf::from_function(fs.front());
  in.cone = (1u << n) - 1;
  in.multi = fs.size() >= 2 ? &fs : nullptr;
  in.lower = trivial_lower_bound(fs);
  in.num_original_inputs = targets.front().num_vars();
  return solve(options_, in, s.max_gates, s.num_threads, s.ctx);
}

result stp_engine::run_with_dont_cares(const tt::isf& target,
                                       core::run_context* run_ctx,
                                       unsigned max_gates) {
  const unsigned n = target.num_vars();
  solve_input in;
  // Root cone: the variables some completion needs.  If the requirement
  // projects onto its required support, that is the tightest sound cone;
  // otherwise (pairwise-consistent but jointly inconsistent) fall back to
  // all inputs.
  in.root = target;
  in.cone = (1u << n) - 1;
  const auto required = target.required_support_mask();
  if (required != 0) {
    if (const auto projected = target.project_to_cone(required)) {
      in.root = *projected;
      in.cone = required;
    }
  }
  // Every accepted completion depends on all *required* variables, so
  // |required| - 1 is a sound lower bound even when the cone fell back to
  // the full input set.  The probe receives the same (cone-projected)
  // requirement the sweep decides: infeasibility of the k-gate question
  // over all n inputs subsumes the cone-restricted sweep, so a skipped
  // level is sound.
  in.lower = static_cast<unsigned>(std::max(1, std::popcount(required) - 1));
  for (unsigned v = 0; v < n; ++v) {
    in.old_of_new.push_back(v);
  }
  in.num_original_inputs = n;
  return solve(options_, in, max_gates, 1, run_ctx);
}

result stp_synthesize(const spec& s) {
  stp_engine engine;
  return engine.run(s);
}

}  // namespace stpes::synth
