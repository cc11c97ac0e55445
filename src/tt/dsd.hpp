/// \file dsd.hpp
/// \brief Disjoint-support decomposition (DSD) structure analysis.
///
/// The Table-I workloads are defined by their DSD structure: FDSD functions
/// are *fully* disjoint-support decomposable into 2-input blocks, PDSD
/// functions contain at least one prime (non-decomposable) block.  This
/// module classifies a function by greedily contracting 2-input disjoint
/// blocks:
///
///   * a pair of support variables (i, j) can be contracted into a fresh
///     variable z iff the four cofactors of f w.r.t. (i, j) take at most two
///     distinct values — exactly the paper's "two unique quartering parts"
///     condition read on a decomposition chart;
///   * contraction repeats until the support collapses to one variable
///     (fully DSD) or no pair is contractible (the residue is a prime
///     block).
///
/// For functions whose DSD tree uses only 2-input operators (which is what
/// exact synthesis over 2-LUTs cares about, and what our generators emit),
/// greedy contraction is a decision procedure: any contractible pair is part
/// of *some* DSD tree, so greedy choices never block later contractions.
///
/// The analysis records every pair contraction as a 2-input block over the
/// function's own variables.  For a fully DSD function of support s these
/// s − 1 blocks, read bottom-up, are a read-once Boolean chain, and since a
/// chain of s − 1 gates reading s inputs must read every signal once, the
/// function has an (s − 1)-gate chain exactly when it is fully DSD.  The
/// synthesis engine's lower-bound probe (synth/lower_bound) decides that
/// level from this analysis instead of a SAT call.

#pragma once

#include <array>
#include <vector>

#include "tt/truth_table.hpp"

namespace stpes::tt {

/// Classification outcome of `analyze_dsd`.
enum class dsd_kind {
  constant,  ///< no support
  literal,   ///< support of exactly one variable
  full,      ///< fully decomposable into 2-input disjoint blocks
  partial,   ///< some 2-input blocks exist, but a prime residue remains
  none       ///< no 2-input disjoint block at all (prime function)
};

/// One contracted 2-input block, in `boolean_chain` step form: `op` is a
/// 4-bit LUT over (fanin[0], fanin[1]) with the bit-(b<<1|a) convention of
/// `apply_binary_op`, and always normal (bit 0 clear).  Signals 0..n-1 are
/// the analysed function's variables, n + k is block k; fanin[0] <
/// fanin[1].
struct dsd_block {
  unsigned op = 0;
  std::array<unsigned, 2> fanin{0, 0};
};

/// Detailed result of the greedy DSD contraction.
struct dsd_analysis {
  dsd_kind kind = dsd_kind::constant;
  unsigned original_support = 0;  ///< support size of the input function
  unsigned residue_support = 0;   ///< support size of the prime residue
  /// Blocks contracted, counting literals peeled off a prime residue's
  /// wrapper (those have no entry in `blocks`).
  unsigned contractions = 0;
  /// The residue shrunk to its support: a prime block, or for `full` and
  /// `literal` the one remaining literal (complemented iff bit 0 is set).
  truth_table residue;
  /// Pair contractions in order.  For `full` they form the read-once
  /// chain: the last block computes the residue's variable.
  std::vector<dsd_block> blocks;
};

/// Runs the greedy contraction described above.
dsd_analysis analyze_dsd(const truth_table& function);

/// Convenience wrappers over `analyze_dsd`.
bool is_fully_dsd(const truth_table& function);
/// True iff support >= 3 and no 2-input disjoint block exists.
bool is_prime(const truth_table& function);

/// Human-readable name of a `dsd_kind` value.
const char* to_string(dsd_kind kind);

}  // namespace stpes::tt
