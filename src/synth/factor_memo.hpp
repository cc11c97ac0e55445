/// \file factor_memo.hpp
/// \brief Per-run memo of requirement factorizations, packed into flat words.
///
/// The DAG search re-derives the same child requirements across thousands
/// of candidate topologies that share sub-structure; the memo caches the
/// complete answer of `factor_requirement` for every query it has seen —
/// including the empty list, which is a real UNSAT verdict for the split,
/// not a cache miss.  Keys are full (no lossy hashing): a collision could
/// silently drop solutions.
///
/// Storage.  Entries are appended to fixed-size blocks of `std::uint64_t`
/// words and found through an open-addressing index (power-of-two
/// capacity, linear probing, slots of {hash, entry pointer}).  With
/// `W = max(1, 2^n / 64)` words per truth table, one entry is
///
///     key    1 word   cone | cone_a << 16 | cone_b << 32
///            W words  requirement onset
///            W words  requirement careset
///     count  1 word   number of branches
///     branch 1 word   left cone | right cone << 16 | family << 32
///                     | output complement << 33
///            4W words left onset, left careset, right onset, right careset
///
/// repeated `count` times — 32 bytes of key and count plus 40 bytes per
/// branch at n <= 6.  Bit 63 of the key word marks an entry that a merge
/// did not adopt (see `merge_from`).  Blocks are never reallocated or
/// freed while the memo lives, so a `branch_list` view stays valid across
/// later inserts and across `merge_from`, which moves whole blocks.  One
/// memo serves one input count (the engine keeps one per run).
///
/// Concurrency model: during one gate-count level of the parallel sweep
/// the memo accumulated from previous levels is immutable and read by all
/// worker tasks; each task records its new entries in a private delta
/// memo, and the deltas are folded back in task order once the workers
/// have joined.  That keeps every lookup lock-free and the hit/miss
/// counters bit-identical at any thread count.

#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "synth/factorize.hpp"

namespace stpes::synth {

/// Words of one packed truth table over `num_vars` inputs.
[[nodiscard]] constexpr std::size_t packed_table_words(unsigned num_vars) {
  return num_vars <= 6 ? 1 : std::size_t{1} << (num_vars - 6);
}

/// Read-only view of a packed branch list (the layout above, from the
/// first branch word on).  Branch `i`'s children are `side` 0 (left) and
/// 1 (right).
class branch_list {
public:
  branch_list() = default;
  branch_list(const std::uint64_t* words, std::size_t count,
              std::size_t table_words)
      : words_(words),
        count_(static_cast<std::uint32_t>(count)),
        table_words_(static_cast<std::uint32_t>(table_words)) {}

  [[nodiscard]] std::size_t size() const { return count_; }
  [[nodiscard]] bool empty() const { return count_ == 0; }

  [[nodiscard]] op_family family(std::size_t i) const {
    return ((branch(i)[0] >> 32) & 1) != 0 ? op_family::xor_like
                                           : op_family::and_like;
  }
  [[nodiscard]] bool output_complemented(std::size_t i) const {
    return ((branch(i)[0] >> 33) & 1) != 0;
  }
  [[nodiscard]] std::uint32_t cone(std::size_t i, int side) const {
    return static_cast<std::uint32_t>(branch(i)[0] >> (16 * side)) & 0xFFFF;
  }
  /// The child requirement's function, decoded into tables of `num_vars`
  /// inputs (the input count the list was packed with).
  [[nodiscard]] tt::isf func(std::size_t i, int side, unsigned num_vars) const;
  /// Branch `i` as the `factorization` it was packed from.
  [[nodiscard]] factorization decode(std::size_t i, unsigned num_vars) const;

private:
  [[nodiscard]] const std::uint64_t* branch(std::size_t i) const {
    return words_ + i * (1 + 4 * std::size_t{table_words_});
  }

  const std::uint64_t* words_ = nullptr;
  std::uint32_t count_ = 0;
  std::uint32_t table_words_ = 0;
};

/// Appends the packed form of `branches` (the branch words of the layout
/// above) to `out`; `branch_list{out.data() + start, branches.size(), W}`
/// reads it back.
void pack_branches(const std::vector<factorization>& branches,
                   std::vector<std::uint64_t>& out);

/// Maps factorization queries — a requirement and a fixed child cone split
/// — to their complete (possibly empty) branch lists.  A query is
/// deliberately NOT canonicalized under (cone_a, cone_b) exchange: the
/// per-family branch caps truncate the enumeration order-dependently, so
/// a mirrored query can legitimately yield a different surviving branch
/// set.
class factor_memo {
public:
  factor_memo() = default;
  factor_memo(factor_memo&&) noexcept = default;
  factor_memo& operator=(factor_memo&&) noexcept = default;
  factor_memo(const factor_memo&) = delete;
  factor_memo& operator=(const factor_memo&) = delete;

  /// Looks up the query; nullopt when it was never solved.  An empty list
  /// is a cached UNSAT verdict.
  [[nodiscard]] std::optional<branch_list> find(const requirement& r,
                                                cone_split split) const;

  /// Records the answer for the query and returns the stored list; an
  /// existing entry is kept and returned (identical by construction —
  /// `factor_requirement` is a pure function of the query).
  branch_list insert(const requirement& r, cone_split split,
                     const std::vector<factorization>& branches);

  /// Adopts the entries of `delta` not already present, in `delta`'s
  /// insertion order, stopping once this memo holds `cap` entries
  /// (0 = unlimited).  The delta's blocks move here whole, so views into
  /// either memo stay valid; entries that were not adopted keep their
  /// storage but are skipped by later merges.  Called once per worker
  /// task, in task order, after a parallel level has joined; the cap
  /// keeps the merged memo within the same bound the tasks honoured
  /// locally.
  void merge_from(factor_memo&& delta, std::size_t cap = 0);

  /// Number of entries `find` can return.
  [[nodiscard]] std::size_t size() const { return size_; }

  /// Bytes held by the blocks and the index.
  [[nodiscard]] std::size_t storage_bytes() const;

private:
  struct slot {
    std::uint64_t hash = 0;
    const std::uint64_t* entry = nullptr;  ///< nullptr = empty slot
  };
  struct block {
    std::unique_ptr<std::uint64_t[]> words;
    std::size_t used = 0;
    std::size_t capacity = 0;
  };

  [[nodiscard]] std::size_t entry_words(const std::uint64_t* entry) const;
  [[nodiscard]] branch_list branches_of(const std::uint64_t* entry) const;
  [[nodiscard]] const std::uint64_t* lookup(std::uint64_t key,
                                            const std::uint64_t* onset,
                                            const std::uint64_t* careset,
                                            std::uint64_t hash) const;
  /// Adds `entry` to the index, doubling it past a load factor of 1/2.
  void index(const std::uint64_t* entry, std::uint64_t hash);
  /// Writes `s` into the first free slot of its probe sequence.
  void place(const slot& s);
  std::uint64_t* allocate(std::size_t words);

  std::vector<block> blocks_;
  std::vector<slot> slots_;
  std::size_t size_ = 0;
  std::size_t table_words_ = 0;  ///< W; 0 until the first entry
};

}  // namespace stpes::synth
