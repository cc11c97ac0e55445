#include "fence/fence.hpp"

#include <gtest/gtest.h>

#include <set>

#include "fence/dag.hpp"

namespace {

using stpes::fence::all_fences;
using stpes::fence::dag_options;
using stpes::fence::dag_topology;
using stpes::fence::fence;
using stpes::fence::generate_dags;
using stpes::fence::generate_dags_for_size;
using stpes::fence::is_pruned_valid;
using stpes::fence::kPiSlot;
using stpes::fence::pruned_fences;

TEST(Fence, AllFencesAreCompositions) {
  // Compositions of k: 2^(k-1).
  for (unsigned k = 1; k <= 8; ++k) {
    EXPECT_EQ(all_fences(k).size(), std::size_t{1} << (k - 1));
  }
  EXPECT_TRUE(all_fences(0).empty());
}

TEST(Fence, NodeCountsAndToString) {
  const fence f{{2, 1}};
  EXPECT_EQ(f.num_nodes(), 3u);
  EXPECT_EQ(f.num_levels(), 2u);
  EXPECT_EQ(f.to_string(), "(2,1)");
}

TEST(Fence, PrunedF3MatchesFig2) {
  // Fig. 2(b): of the four fences of F_3, only (2,1) and (1,1,1) survive.
  const auto pruned = pruned_fences(3);
  ASSERT_EQ(pruned.size(), 2u);
  EXPECT_EQ(pruned[0].to_string(), "(1,1,1)");
  EXPECT_EQ(pruned[1].to_string(), "(2,1)");
}

TEST(Fence, PruningRules) {
  EXPECT_FALSE(is_pruned_valid(fence{{3}}));       // top level too wide
  EXPECT_FALSE(is_pruned_valid(fence{{1, 2}}));    // top level too wide
  EXPECT_TRUE(is_pruned_valid(fence{{2, 1}}));
  EXPECT_TRUE(is_pruned_valid(fence{{1, 1, 1}}));
  EXPECT_FALSE(is_pruned_valid(fence{{3, 1}}));    // 3 > 2 * 1 above
  EXPECT_TRUE(is_pruned_valid(fence{{2, 2, 1}}));
  EXPECT_TRUE(is_pruned_valid(fence{{4, 2, 1}}));
  // (5,2,1): 5 <= 2 * (2 + 1) fanin slots above — still valid.
  EXPECT_TRUE(is_pruned_valid(fence{{5, 2, 1}}));
  // (7,2,1): 7 > 2 * (2 + 1) — no way to consume seven nodes above.
  EXPECT_FALSE(is_pruned_valid(fence{{7, 2, 1}}));
}

TEST(Fence, PrunedFencesSubsetOfAll) {
  for (unsigned k = 1; k <= 8; ++k) {
    const auto pruned = pruned_fences(k);
    const auto everything = all_fences(k);
    EXPECT_LE(pruned.size(), everything.size());
    for (const auto& f : pruned) {
      EXPECT_TRUE(is_pruned_valid(f));
      EXPECT_EQ(f.num_nodes(), k);
      EXPECT_EQ(f.widths.back(), 1u);
    }
  }
}

TEST(Dag, F3HasThreeTopologies) {
  // (2,1): the balanced tree; (1,1,1): the chain with a PI second fanin
  // and the chain reusing the bottom gate (Fig. 3).
  const auto dags = generate_dags_for_size(3);
  EXPECT_EQ(dags.size(), 3u);
}

TEST(Dag, SingleGate) {
  const auto dags = generate_dags_for_size(1);
  ASSERT_EQ(dags.size(), 1u);
  EXPECT_EQ(dags[0].num_pi_slots(), 2u);
  EXPECT_EQ(dags[0].gates[0].fanin[0], kPiSlot);
}

TEST(Dag, StructuralInvariants) {
  for (unsigned k = 1; k <= 6; ++k) {
    for (const auto& dag : generate_dags_for_size(k)) {
      ASSERT_EQ(dag.num_gates(), k);
      std::vector<unsigned> fanout(k, 0);
      for (std::size_t g = 0; g < dag.gates.size(); ++g) {
        const auto& gate = dag.gates[g];
        // Fanins strictly below, sorted descending, never twins.
        EXPECT_LT(gate.fanin[0], static_cast<int>(g));
        EXPECT_LT(gate.fanin[1], static_cast<int>(g));
        EXPECT_GE(gate.fanin[0], gate.fanin[1]);
        if (gate.fanin[0] != kPiSlot) {
          EXPECT_NE(gate.fanin[0], gate.fanin[1]);
        }
        bool has_direct_lower = gate.level == 0;
        for (const int fi : gate.fanin) {
          if (fi == kPiSlot) {
            continue;
          }
          ++fanout[static_cast<unsigned>(fi)];
          const auto fl = dag.gates[static_cast<std::size_t>(fi)].level;
          EXPECT_LT(fl, gate.level);
          has_direct_lower |= (fl + 1 == gate.level);
        }
        // Fence semantics: one fanin from the level directly below (level-0
        // gates take only PI slots).
        EXPECT_TRUE(has_direct_lower);
        if (gate.level == 0) {
          EXPECT_EQ(gate.fanin[0], kPiSlot);
          EXPECT_EQ(gate.fanin[1], kPiSlot);
        }
      }
      // Every non-root gate is used.
      for (unsigned g = 0; g + 1 < k; ++g) {
        EXPECT_GE(fanout[g], 1u);
      }
    }
  }
}

TEST(Dag, TreeModeForbidsSharing) {
  dag_options options;
  options.allow_shared_gates = false;
  for (unsigned k = 1; k <= 6; ++k) {
    for (const auto& dag : generate_dags_for_size(k, options)) {
      std::vector<unsigned> fanout(k, 0);
      for (const auto& gate : dag.gates) {
        for (const int fi : gate.fanin) {
          if (fi != kPiSlot) {
            ++fanout[static_cast<unsigned>(fi)];
          }
        }
      }
      for (unsigned g = 0; g + 1 < k; ++g) {
        EXPECT_EQ(fanout[g], 1u);
      }
    }
  }
}

TEST(Dag, TreeCountsAreFewerThanShared) {
  dag_options tree;
  tree.allow_shared_gates = false;
  // k = 2 admits a single topology either way; sharing kicks in at k = 3.
  EXPECT_EQ(generate_dags_for_size(2, tree).size(),
            generate_dags_for_size(2).size());
  for (unsigned k = 3; k <= 6; ++k) {
    EXPECT_LT(generate_dags_for_size(k, tree).size(),
              generate_dags_for_size(k).size());
  }
}

TEST(Dag, SignaturesAreUnique) {
  for (unsigned k = 1; k <= 6; ++k) {
    std::set<std::string> seen;
    for (const auto& dag : generate_dags_for_size(k)) {
      EXPECT_TRUE(seen.insert(dag.signature()).second);
    }
  }
}

TEST(Dag, PiSlotCapacity) {
  // The balanced F3 tree: root capacity 4, leaves capacity 2.
  for (const auto& dag : generate_dags_for_size(3)) {
    const auto capacity = dag.pi_slot_capacity();
    EXPECT_EQ(capacity.back(), dag.num_pi_slots());
  }
}

TEST(Dag, GatesInConeBound) {
  for (unsigned k = 2; k <= 6; ++k) {
    for (const auto& dag : generate_dags_for_size(k)) {
      const auto gates = dag.gates_in_cone();
      EXPECT_EQ(gates.back(), k);  // the root reaches every gate
      const auto capacity = dag.pi_slot_capacity();
      for (std::size_t g = 0; g < gates.size(); ++g) {
        // Any cone's variable reach is bounded by gates + 1.
        EXPECT_LE(capacity[g], 2 * gates[g]);
      }
    }
  }
}

}  // namespace
