/// \file factor_memo_test.cpp
/// \brief The packed factorization memo returns exactly what
///        `factor_requirement` produced, and its views never move.
///
/// The DFS holds `branch_list` views of outer frames while inner frames
/// insert, and the parallel sweep merges task deltas into the run memo, so
/// a view must survive both.  Under the address sanitizer a view into
/// freed or moved storage fails these tests.

#include "synth/factor_memo.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "tt/truth_table.hpp"
#include "util/rng.hpp"

namespace {

using stpes::synth::branch_list;
using stpes::synth::cone_split;
using stpes::synth::factor_memo;
using stpes::synth::factor_requirement;
using stpes::synth::factorization;
using stpes::synth::op_family;
using stpes::synth::pack_branches;
using stpes::synth::packed_table_words;
using stpes::synth::requirement;
using stpes::tt::isf;
using stpes::tt::truth_table;
using stpes::util::rng;

truth_table random_table(unsigned n, rng& gen) {
  std::vector<std::uint64_t> words(packed_table_words(n));
  for (auto& w : words) {
    w = gen.next_u64();
  }
  return truth_table::from_words(n, words.data(), words.size());
}

/// A random requirement over all `n` inputs whose care set keeps about
/// one minterm in `1 << sparsity`, so most splits factor with many
/// branches.
requirement random_requirement(unsigned n, rng& gen, unsigned sparsity) {
  auto care = truth_table::constant(n, true);
  for (unsigned s = 0; s < sparsity; ++s) {
    care &= random_table(n, gen);
  }
  return requirement{(1u << n) - 1, isf{random_table(n, gen), care}};
}

/// A random covering split of `cone`: each variable goes left, right, or
/// to both children.
cone_split random_split(unsigned n, rng& gen) {
  cone_split s;
  while (s.a == 0 || s.b == 0) {
    s = cone_split{};
    for (unsigned v = 0; v < n; ++v) {
      const auto side = gen.next_below(3);
      s.a |= side != 1 ? 1u << v : 0u;
      s.b |= side != 0 ? 1u << v : 0u;
    }
  }
  return s;
}

void expect_same(const factorization& want, const factorization& got) {
  EXPECT_EQ(want.family, got.family);
  EXPECT_EQ(want.output_complemented, got.output_complemented);
  EXPECT_EQ(want.left.cone, got.left.cone);
  EXPECT_EQ(want.right.cone, got.right.cone);
  EXPECT_TRUE(want.left.func == got.left.func);
  EXPECT_TRUE(want.right.func == got.right.func);
}

void expect_decodes_to(const std::vector<factorization>& want,
                       const branch_list& got, unsigned n) {
  ASSERT_EQ(want.size(), got.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    expect_same(want[i], got.decode(i, n));
  }
}

/// A synthetic entry over 4 inputs whose key is fixed by `id` (< 2^16)
/// and whose `branches` children carry random tables.
struct synthetic_entry {
  requirement r;
  cone_split split;
  std::vector<factorization> branches;
};

requirement random_child(std::uint32_t cone, rng& gen) {
  return requirement{cone, isf{random_table(4, gen), random_table(4, gen)}};
}

synthetic_entry make_entry(std::uint64_t id, std::size_t branches, rng& gen) {
  synthetic_entry e;
  e.r = requirement{0xF, isf::from_function(truth_table(4, id))};
  e.split = cone_split{0x3, 0xC};
  for (std::size_t b = 0; b < branches; ++b) {
    factorization f;
    f.family = b % 2 == 0 ? op_family::and_like : op_family::xor_like;
    f.output_complemented = b % 3 == 0;
    f.left = random_child(0x3, gen);
    f.right = random_child(0xC, gen);
    e.branches.push_back(std::move(f));
  }
  return e;
}

TEST(FactorMemo, PackedListsDecodeToFactorRequirementOutput) {
  for (const unsigned n : {4u, 6u, 8u}) {
    const std::size_t w = packed_table_words(n);
    EXPECT_EQ(w, n == 8 ? 4u : 1u);
    rng gen{0xFAC7 + n};
    factor_memo memo;
    std::vector<std::uint64_t> buffer;
    std::size_t branches = 0;
    std::size_t distinct = 0;
    for (int k = 0; k < 60; ++k) {
      const auto r = random_requirement(n, gen, k % 4 + 1);
      const auto split = random_split(n, gen);
      const auto want = factor_requirement(r, split.a, split.b);
      branches += want.size();
      // Sparse 4-input requirements can repeat; a repeat finds its entry.
      distinct += memo.find(r, split).has_value() ? 0 : 1;

      expect_decodes_to(want, memo.insert(r, split, want), n);
      const auto found = memo.find(r, split);
      ASSERT_TRUE(found.has_value()) << "n=" << n << " k=" << k;
      expect_decodes_to(want, *found, n);

      buffer.clear();
      pack_branches(want, buffer);
      const branch_list packed{buffer.data(), want.size(), w};
      expect_decodes_to(want, packed, n);
      for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_TRUE(found->func(i, 0, n) == want[i].left.func);
        EXPECT_EQ(found->cone(i, 1), want[i].right.cone);
      }
    }
    EXPECT_GT(branches, 100u) << "n=" << n;
    EXPECT_EQ(memo.size(), distinct) << "n=" << n;
  }
}

TEST(FactorMemo, CachedUnsatVerdictIsNotAMiss) {
  // maj(x0, x1, x2) is not op(u(x0), v(x1, x2)) for any AND/XOR operator.
  const auto x0 = truth_table::nth_var(3, 0);
  const auto x1 = truth_table::nth_var(3, 1);
  const auto x2 = truth_table::nth_var(3, 2);
  const auto maj = (x0 & x1) | (x0 & x2) | (x1 & x2);
  const requirement r{0x7, isf::from_function(maj)};
  const cone_split split{0x1, 0x6};
  const auto verdict = factor_requirement(r, split.a, split.b);
  ASSERT_TRUE(verdict.empty());

  factor_memo memo;
  EXPECT_FALSE(memo.find(r, split).has_value());
  EXPECT_TRUE(memo.insert(r, split, verdict).empty());
  const auto found = memo.find(r, split);
  ASSERT_TRUE(found.has_value());
  EXPECT_TRUE(found->empty());
  // Same requirement, other splits: still misses.
  EXPECT_FALSE(memo.find(r, cone_split{0x6, 0x1}).has_value());
  EXPECT_FALSE(memo.find(r, cone_split{0x3, 0x6}).has_value());
  EXPECT_EQ(memo.size(), 1u);
}

TEST(FactorMemo, ViewsSurviveLaterInsertsAndMerges) {
  rng gen{42};
  factor_memo memo;
  const auto first = make_entry(1, 7, gen);
  const branch_list first_view =
      memo.insert(first.r, first.split, first.branches);

  factor_memo delta;
  const auto moved = make_entry(2, 5, gen);
  const branch_list moved_view =
      delta.insert(moved.r, moved.split, moved.branches);

  // 10k inserts grow the index through many rehashes and fill several
  // blocks after the first one.
  for (std::uint64_t id = 100; id < 10100; ++id) {
    const auto e = make_entry(id, id % 6, gen);
    memo.insert(e.r, e.split, e.branches);
  }
  expect_decodes_to(first.branches, first_view, 4);

  for (std::uint64_t id = 20000; id < 22000; ++id) {
    const auto e = make_entry(id, id % 4, gen);
    delta.insert(e.r, e.split, e.branches);
  }
  memo.merge_from(std::move(delta));
  EXPECT_EQ(delta.size(), 0u);
  EXPECT_EQ(memo.size(), 1u + 10000u + 1u + 2000u);
  expect_decodes_to(first.branches, first_view, 4);
  expect_decodes_to(moved.branches, moved_view, 4);
  const auto found = memo.find(moved.r, moved.split);
  ASSERT_TRUE(found.has_value());
  expect_decodes_to(moved.branches, *found, 4);
}

TEST(FactorMemo, CappedMergeAdoptsFirstDeltaEntriesInInsertionOrder) {
  rng gen{7};
  std::vector<synthetic_entry> entries;
  for (std::uint64_t id = 0; id < 20; ++id) {
    entries.push_back(make_entry(id, id % 3 + 1, gen));
  }
  factor_memo memo;
  for (std::size_t i = 0; i < 3; ++i) {
    memo.insert(entries[i].r, entries[i].split, entries[i].branches);
  }
  factor_memo delta;
  // A key the memo already holds, stored with another list: the existing
  // entry wins and the duplicate does not count against the cap.
  const auto dup = make_entry(1, 9, gen);
  delta.insert(dup.r, dup.split, dup.branches);
  for (std::size_t i = 10; i < 20; ++i) {
    delta.insert(entries[i].r, entries[i].split, entries[i].branches);
  }
  memo.merge_from(std::move(delta), 8);
  EXPECT_EQ(memo.size(), 8u);
  for (std::size_t i = 0; i < 20; ++i) {
    const bool present = i < 3 || (i >= 10 && i < 15);
    const auto found = memo.find(entries[i].r, entries[i].split);
    ASSERT_EQ(found.has_value(), present) << "entry " << i;
    if (present) {
      expect_decodes_to(entries[i].branches, *found, 4);
    }
  }

  // Entries a capped merge left out stay out of later merges too.
  factor_memo outer;
  const auto other = make_entry(500, 2, gen);
  outer.insert(other.r, other.split, other.branches);
  outer.merge_from(std::move(memo));
  EXPECT_EQ(outer.size(), 9u);
  EXPECT_FALSE(outer.find(entries[15].r, entries[15].split).has_value());
  ASSERT_TRUE(outer.find(entries[12].r, entries[12].split).has_value());

  // A cap below the delta's size on an empty memo takes its first entries.
  factor_memo head;
  factor_memo source;
  for (std::size_t i = 0; i < 20; ++i) {
    source.insert(entries[i].r, entries[i].split, entries[i].branches);
  }
  head.merge_from(std::move(source), 4);
  EXPECT_EQ(head.size(), 4u);
  EXPECT_TRUE(head.find(entries[3].r, entries[3].split).has_value());
  EXPECT_FALSE(head.find(entries[4].r, entries[4].split).has_value());
}

TEST(FactorMemo, FourInputEntryCostsKeyPlusFortyBytesPerBranch) {
  // 32 bytes of key and count plus 40 per branch, plus at most four
  // 16-byte index slots and the unused tail of a block per entry.
  rng gen{3};
  factor_memo memo;
  constexpr std::size_t kBranches = 5;
  for (std::uint64_t id = 0; id < 20000; ++id) {
    const auto e = make_entry(id, kBranches, gen);
    memo.insert(e.r, e.split, e.branches);
  }
  const auto bytes = static_cast<double>(memo.storage_bytes());
  const double per_entry = bytes / static_cast<double>(memo.size());
  EXPECT_GE(per_entry, 32.0 + 40.0 * kBranches);
  EXPECT_LE(per_entry, 32.0 + 40.0 * kBranches + 64.0 + 4.0);
}

}  // namespace
