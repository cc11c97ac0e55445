/// \file reference.hpp
/// \brief Committed reference data of the benchmark pools and the output
///        checker built on it.
///
/// A reference file holds one line per pool entry:
///
///     <num_vars> <hex> <optimum_gates> <num_optimum_chains> <effort>
///
/// `effort` is a deterministic work count of one complete solve
/// (factorization attempts + don't-care expansions + SAT conflicts); it
/// only orders the pool into cost bands and is never checked.  Lines
/// starting with '#' are comments.  `regen_reference.py` rewrites the
/// files anew.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "chain/boolean_chain.hpp"
#include "tt/truth_table.hpp"

namespace perfbench {

struct ref_entry {
  stpes::tt::truth_table function;
  unsigned gates = 0;
  std::size_t chains = 0;
  std::uint64_t effort = 0;
};

/// Reads a reference file; throws std::runtime_error on a missing file or
/// a malformed line.
std::vector<ref_entry> load_reference(const std::string& path);

/// Writes a reference file with a comment header.
void save_reference(const std::string& path, const std::string& header,
                    const std::vector<ref_entry>& entries);

/// Checks one answer for `function` against its reference entry: the
/// optimum gate count, the number of optimum chains, that the chains are
/// pairwise distinct, and that every chain has `gates` steps and
/// simulates to `function`.  Order is never compared.  Returns "" when
/// the answer is correct, else what is wrong.
std::string check_chains(const stpes::tt::truth_table& function,
                         unsigned gates,
                         const std::vector<stpes::chain::boolean_chain>& chains,
                         const ref_entry& ref);

}  // namespace perfbench
