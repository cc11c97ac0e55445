#include "synth/factor_memo.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <iterator>
#include <utility>

namespace stpes::synth {

namespace {

/// Words per block.  Large enough that the block list stays short, small
/// enough that the unused tail of each merged task delta costs little.
/// An entry larger than a block gets a block of its own size.
constexpr std::size_t kBlockWords = 4096;
constexpr std::size_t kMinSlots = 16;
constexpr std::uint64_t kNotAdopted = std::uint64_t{1} << 63;

std::uint64_t key_word(std::uint32_t cone, cone_split split) {
  assert(cone <= 0xFFFF && split.a <= 0xFFFF && split.b <= 0xFFFF);
  return cone | (std::uint64_t{split.a} << 16) |
         (std::uint64_t{split.b} << 32);
}

std::uint64_t hash_key(std::uint64_t key, const std::uint64_t* onset,
                       const std::uint64_t* careset, std::size_t w) {
  auto mix = [](std::uint64_t h, std::uint64_t v) {
    h ^= v;
    h *= 0x9E3779B97F4A7C15ull;
    return h ^ (h >> 32);
  };
  std::uint64_t h = mix(0x2545F4914F6CDD1Dull, key);
  for (std::size_t i = 0; i < w; ++i) {
    h = mix(h, onset[i]);
    h = mix(h, careset[i]);
  }
  // splitmix64 finalizer: the index uses the low bits.
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ull;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebull;
  return h ^ (h >> 31);
}

std::size_t branch_words(std::size_t w) { return 1 + 4 * w; }

void put_table(std::uint64_t*& out, const tt::truth_table& t, std::size_t w) {
  assert(t.words().size() == w);
  std::memcpy(out, t.words().data(), w * sizeof(std::uint64_t));
  out += w;
}

/// Writes one branch at `out` (branch_words(w) words).
void pack_branch(const factorization& f, std::uint64_t* out, std::size_t w) {
  assert(f.left.cone <= 0xFFFF && f.right.cone <= 0xFFFF);
  *out++ = f.left.cone | (std::uint64_t{f.right.cone} << 16) |
           (std::uint64_t{f.family == op_family::xor_like} << 32) |
           (std::uint64_t{f.output_complemented} << 33);
  put_table(out, f.left.func.onset(), w);
  put_table(out, f.left.func.careset(), w);
  put_table(out, f.right.func.onset(), w);
  put_table(out, f.right.func.careset(), w);
}

}  // namespace

tt::isf branch_list::func(std::size_t i, int side, unsigned num_vars) const {
  assert(packed_table_words(num_vars) == table_words_);
  const std::uint64_t* onset = branch(i) + 1 + 2 * side * table_words_;
  const std::uint64_t* careset = onset + table_words_;
  return tt::isf{tt::truth_table::from_words(num_vars, onset, table_words_),
                 tt::truth_table::from_words(num_vars, careset, table_words_)};
}

factorization branch_list::decode(std::size_t i, unsigned num_vars) const {
  return factorization{family(i), output_complemented(i),
                       requirement{cone(i, 0), func(i, 0, num_vars)},
                       requirement{cone(i, 1), func(i, 1, num_vars)}};
}

void pack_branches(const std::vector<factorization>& branches,
                   std::vector<std::uint64_t>& out) {
  if (branches.empty()) {
    return;
  }
  const std::size_t w = branches.front().left.func.onset().words().size();
  std::size_t at = out.size();
  out.resize(at + branches.size() * branch_words(w));
  for (const auto& f : branches) {
    pack_branch(f, out.data() + at, w);
    at += branch_words(w);
  }
}

std::size_t factor_memo::entry_words(const std::uint64_t* entry) const {
  return 2 + 2 * table_words_ +
         entry[1 + 2 * table_words_] * branch_words(table_words_);
}

branch_list factor_memo::branches_of(const std::uint64_t* entry) const {
  const std::uint64_t* count = entry + 1 + 2 * table_words_;
  return branch_list{count + 1, *count, table_words_};
}

const std::uint64_t* factor_memo::lookup(std::uint64_t key,
                                         const std::uint64_t* onset,
                                         const std::uint64_t* careset,
                                         std::uint64_t hash) const {
  if (slots_.empty()) {
    return nullptr;
  }
  const std::size_t mask = slots_.size() - 1;
  const std::size_t bytes = table_words_ * sizeof(std::uint64_t);
  for (std::size_t i = hash & mask; slots_[i].entry != nullptr;
       i = (i + 1) & mask) {
    const std::uint64_t* e = slots_[i].entry;
    if (slots_[i].hash == hash && e[0] == key &&
        std::memcmp(e + 1, onset, bytes) == 0 &&
        std::memcmp(e + 1 + table_words_, careset, bytes) == 0) {
      return e;
    }
  }
  return nullptr;
}

std::optional<branch_list> factor_memo::find(const requirement& r,
                                             cone_split split) const {
  if (size_ == 0) {
    return std::nullopt;
  }
  assert(r.func.onset().words().size() == table_words_);
  const std::uint64_t key = key_word(r.cone, split);
  const std::uint64_t* onset = r.func.onset().words().data();
  const std::uint64_t* careset = r.func.careset().words().data();
  const std::uint64_t hash = hash_key(key, onset, careset, table_words_);
  const std::uint64_t* e = lookup(key, onset, careset, hash);
  if (e == nullptr) {
    return std::nullopt;
  }
  return branches_of(e);
}

branch_list factor_memo::insert(const requirement& r, cone_split split,
                                const std::vector<factorization>& branches) {
  const std::size_t w = r.func.onset().words().size();
  if (table_words_ == 0) {
    table_words_ = w;
  }
  assert(w == table_words_);
  const std::uint64_t key = key_word(r.cone, split);
  const std::uint64_t* onset = r.func.onset().words().data();
  const std::uint64_t* careset = r.func.careset().words().data();
  const std::uint64_t hash = hash_key(key, onset, careset, w);
  if (const std::uint64_t* e = lookup(key, onset, careset, hash)) {
    return branches_of(e);
  }
  std::uint64_t* e = allocate(2 + 2 * w + branches.size() * branch_words(w));
  std::uint64_t* out = e;
  *out++ = key;
  put_table(out, r.func.onset(), w);
  put_table(out, r.func.careset(), w);
  *out++ = branches.size();
  for (const auto& f : branches) {
    pack_branch(f, out, w);
    out += branch_words(w);
  }
  index(e, hash);
  return branches_of(e);
}

void factor_memo::merge_from(factor_memo&& delta, std::size_t cap) {
  if (delta.blocks_.empty()) {
    return;
  }
  if (blocks_.empty() && (cap == 0 || delta.size_ <= cap)) {
    *this = std::move(delta);
    delta = factor_memo{};
    return;
  }
  if (table_words_ == 0) {
    table_words_ = delta.table_words_;
  }
  assert(table_words_ == delta.table_words_);
  const std::size_t w = table_words_;
  for (auto& b : delta.blocks_) {
    for (std::size_t at = 0; at < b.used; at += entry_words(&b.words[at])) {
      std::uint64_t* e = &b.words[at];
      if ((e[0] & kNotAdopted) != 0) {
        continue;
      }
      const std::uint64_t hash = hash_key(e[0], e + 1, e + 1 + w, w);
      if ((cap != 0 && size_ >= cap) ||
          lookup(e[0], e + 1, e + 1 + w, hash) != nullptr) {
        e[0] |= kNotAdopted;
        continue;
      }
      index(e, hash);
    }
  }
  // Whole blocks move, so nothing a view points at is copied or freed.
  blocks_.insert(blocks_.end(), std::make_move_iterator(delta.blocks_.begin()),
                 std::make_move_iterator(delta.blocks_.end()));
  delta = factor_memo{};
}

std::size_t factor_memo::storage_bytes() const {
  std::size_t words = 0;
  for (const auto& b : blocks_) {
    words += b.capacity;
  }
  return words * sizeof(std::uint64_t) + slots_.size() * sizeof(slot);
}

void factor_memo::index(const std::uint64_t* entry, std::uint64_t hash) {
  if (slots_.size() < 2 * (size_ + 1)) {
    std::vector<slot> old = std::move(slots_);
    slots_.assign(std::max(kMinSlots, 2 * old.size()), slot{});
    for (const slot& s : old) {
      if (s.entry != nullptr) {
        place(s);
      }
    }
  }
  place(slot{hash, entry});
  ++size_;
}

void factor_memo::place(const slot& s) {
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = s.hash & mask;
  while (slots_[i].entry != nullptr) {
    i = (i + 1) & mask;
  }
  slots_[i] = s;
}

std::uint64_t* factor_memo::allocate(std::size_t words) {
  if (blocks_.empty() ||
      blocks_.back().capacity - blocks_.back().used < words) {
    const std::size_t capacity = std::max(kBlockWords, words);
    // Default-initialized: the words are written before they are read.
    std::unique_ptr<std::uint64_t[]> storage(new std::uint64_t[capacity]);
    blocks_.push_back(block{std::move(storage), 0, capacity});
  }
  block& b = blocks_.back();
  std::uint64_t* out = &b.words[b.used];
  b.used += words;
  return out;
}

}  // namespace stpes::synth
