#include "tt/dsd.hpp"

#include <array>
#include <cassert>
#include <optional>
#include <utility>
#include <vector>

namespace stpes::tt {

namespace {

/// A successful pair contraction: the contracted function (shrunk to its
/// support, the fresh variable in place of i and j dropped) and the
/// block's LUT over (x_i, x_j).
struct contraction {
  truth_table function;
  unsigned op = 0;
};

/// Attempts to contract support variables i < j of `f` (which must be
/// shrunk to its support) into a single fresh variable.
std::optional<contraction> try_contract_pair(const truth_table& f, unsigned i,
                                             unsigned j) {
  const std::array<truth_table, 4> cof = {
      f.cofactor0(j).cofactor0(i), f.cofactor0(j).cofactor1(i),
      f.cofactor1(j).cofactor0(i), f.cofactor1(j).cofactor1(i)};
  // Collect distinct cofactors; more than two means (i, j) is not a block
  // (the "two unique quartering parts" test).  The block's LUT is 1 on the
  // cofactors of the second value, so it is normal.
  int index_b = -1;
  unsigned op = 0;
  for (int c = 1; c < 4; ++c) {
    if (cof[c] == cof[0]) {
      continue;
    }
    if (index_b < 0) {
      index_b = c;
    } else if (cof[c] != cof[index_b]) {
      return std::nullopt;
    }
    op |= 1u << c;
  }
  if (index_b < 0) {
    // All four equal: f does not depend on i or j, impossible when f is
    // shrunk to its support.
    return std::nullopt;
  }

  // Substitute: z = 0 selects cofactor A, z = 1 selects cofactor B.  Build
  // g over the same variable space with x_i := z and x_j irrelevant, then
  // shrink.  g(t) = cof[B](t) if t_i else cof[A](t).
  truth_table g{f.num_vars()};
  for (std::uint64_t t = 0; t < f.num_bits(); ++t) {
    const bool z = (t >> i) & 1;
    g.set_bit(t, z ? cof[static_cast<unsigned>(index_b)].get_bit(t)
                   : cof[0].get_bit(t));
  }
  // g still depends on z and on every variable but x_j (f did), so the
  // shrink drops exactly position j.
  contraction out{g.shrink_to_support(), op};
  assert(out.function.num_vars() + 1 == f.num_vars());
  return out;
}

/// Attempts to peel a single literal off the top of `f` (shrunk to
/// support): f = op(x_v, g) with op a 2-input operator.  This covers DSD
/// nodes whose second input is a larger block, which pair contraction
/// cannot see.  Returns the residual g, shrunk to its support.
std::optional<truth_table> try_peel_literal(const truth_table& f,
                                            unsigned v) {
  const truth_table f0 = f.cofactor0(v);
  const truth_table f1 = f.cofactor1(v);
  // f = x&g, x|g, !x&g, !x|g: one cofactor is constant.
  if (f0.is_const0() || f0.is_const1()) {
    return f1.shrink_to_support();
  }
  if (f1.is_const0() || f1.is_const1()) {
    return f0.shrink_to_support();
  }
  // f = x ^ g (or xnor): cofactors are complementary.
  if (f0 == ~f1) {
    return f0.shrink_to_support();
  }
  return std::nullopt;
}

}  // namespace

dsd_analysis analyze_dsd(const truth_table& function) {
  dsd_analysis result;
  // signal[v]: the chain signal current variable v stands for — one of
  // the function's inputs, or function.num_vars() + k for block k.
  std::vector<unsigned> signal;
  truth_table f = function.shrink_to_support(&signal);
  result.original_support = f.num_vars();

  if (result.original_support == 0) {
    result.kind = dsd_kind::constant;
    result.residue = f;
    return result;
  }
  if (result.original_support == 1) {
    result.kind = dsd_kind::literal;
    result.residue = f;
    result.residue_support = 1;
    return result;
  }

  bool progressed = true;
  while (progressed && f.num_vars() > 1) {
    progressed = false;
    for (unsigned j = 1; j < f.num_vars() && !progressed; ++j) {
      for (unsigned i = 0; i < j && !progressed; ++i) {
        auto contracted = try_contract_pair(f, i, j);
        if (!contracted) {
          continue;
        }
        dsd_block block{contracted->op, {signal[i], signal[j]}};
        if (block.fanin[0] > block.fanin[1]) {
          // Swap the LUT's operands: exchange its (a=1,b=0) and (a=0,b=1)
          // rows.
          std::swap(block.fanin[0], block.fanin[1]);
          block.op = (block.op & 0x9u) | ((block.op & 0x2u) << 1) |
                     ((block.op & 0x4u) >> 1);
        }
        result.blocks.push_back(block);
        signal[i] = function.num_vars() +
                    static_cast<unsigned>(result.blocks.size()) - 1;
        signal.erase(signal.begin() + j);
        f = std::move(contracted->function);
        ++result.contractions;
        progressed = true;
      }
    }
    for (unsigned v = 0; v < f.num_vars() && !progressed; ++v) {
      if (auto peeled = try_peel_literal(f, v)) {
        // The residual g keeps every variable but v (f = op(x_v, g) with
        // f depending on all of them).
        signal.erase(signal.begin() + v);
        f = std::move(*peeled);
        ++result.contractions;
        progressed = true;
      }
    }
  }

  result.residue = f;
  result.residue_support = f.num_vars();
  // Every 2-variable function is a block, so the loop only stops early on
  // a residue of at least 3 variables.  A peel only happens when no pair is
  // contractible, which a read-once function always has, so `full` never
  // involves one.
  if (f.num_vars() == 1) {
    result.kind = dsd_kind::full;
  } else if (result.contractions > 0) {
    result.kind = dsd_kind::partial;
  } else {
    result.kind = dsd_kind::none;
  }
  return result;
}

bool is_fully_dsd(const truth_table& function) {
  const auto analysis = analyze_dsd(function);
  return analysis.kind == dsd_kind::full ||
         analysis.kind == dsd_kind::literal ||
         analysis.kind == dsd_kind::constant;
}

bool is_prime(const truth_table& function) {
  return analyze_dsd(function).kind == dsd_kind::none;
}

const char* to_string(dsd_kind kind) {
  switch (kind) {
    case dsd_kind::constant:
      return "constant";
    case dsd_kind::literal:
      return "literal";
    case dsd_kind::full:
      return "full";
    case dsd_kind::partial:
      return "partial";
    case dsd_kind::none:
      return "none";
  }
  return "?";
}

}  // namespace stpes::tt
