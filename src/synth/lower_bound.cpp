#include "synth/lower_bound.hpp"

#include <optional>
#include <utility>
#include <vector>

#include "fence/fence.hpp"
#include "sat/solver.hpp"
#include "synth/ssv_encoding.hpp"
#include "tt/dsd.hpp"

namespace stpes::synth {

namespace {

using sat::neg;
using sat::pos;

/// Colexicographic order on fanin pairs (j < k per pair): compare by the
/// larger fanin first.  Matches percy's pair ordering.
bool colex_less(const std::pair<unsigned, unsigned>& a,
                const std::pair<unsigned, unsigned>& b) {
  return a.second < b.second ||
         (a.second == b.second && a.first < b.first);
}

bool pair_contains(const std::pair<unsigned, unsigned>& p, unsigned signal) {
  return p.first == signal || p.second == signal;
}

/// colex: for consecutive steps on the same fence level, forbid the later
/// step from selecting a colexicographically smaller pair.  Same-level
/// steps have identical allowed-pair lists (fanins come from strictly
/// lower levels only), and swapping them — renaming their output signals
/// in every later step, which is closed under the same-level pair lists —
/// maps chains to chains, so one order suffices.
void add_colex(sat::solver& solver, const ssv_encoding& enc,
               const std::vector<unsigned>& level_of_step) {
  for (unsigned i = 0; i + 1 < enc.num_steps(); ++i) {
    if (level_of_step[i] != level_of_step[i + 1]) {
      continue;
    }
    const auto& pi = enc.fanin_pairs(i);
    const auto& pn = enc.fanin_pairs(i + 1);
    for (std::size_t p = 0; p < pi.size(); ++p) {
      for (std::size_t q = 0; q < pn.size(); ++q) {
        if (colex_less(pn[q], pi[p])) {
          solver.add_clause(
              {neg(enc.select_var(i, p)), neg(enc.select_var(i + 1, q))});
        }
      }
    }
  }
}

/// noreapply: forbid step i' from pairing step i's output with one of
/// step i's own fanins.  Such a step computes a two-variable function of
/// i's fanins and can be rewired to consume them directly; the rewrite
/// strictly decreases the fanin-index sum, so iterating it terminates in
/// a chain at this or an already-refuted smaller gate count.
void add_noreapply(sat::solver& solver, const ssv_encoding& enc,
                   unsigned num_inputs) {
  for (unsigned i = 0; i < enc.num_steps(); ++i) {
    const unsigned out_signal = num_inputs + i;
    const auto& pi = enc.fanin_pairs(i);
    for (unsigned i2 = i + 1; i2 < enc.num_steps(); ++i2) {
      const auto& p2 = enc.fanin_pairs(i2);
      for (std::size_t q = 0; q < p2.size(); ++q) {
        if (!pair_contains(p2[q], out_signal)) {
          continue;
        }
        const unsigned other =
            p2[q].first == out_signal ? p2[q].second : p2[q].first;
        for (std::size_t p = 0; p < pi.size(); ++p) {
          if (pair_contains(pi[p], other)) {
            solver.add_clause(
                {neg(enc.select_var(i, p)), neg(enc.select_var(i2, q))});
          }
        }
      }
    }
  }
}

/// symvar: for every input pair p < q the ISF is symmetric in (on-set and
/// care-set both invariant under the swap), a step may use q only if an
/// earlier step uses p — otherwise relabelling p <-> q (inputs all sit
/// below level 0, so fence pair lists are closed under it) yields an
/// equivalent chain that the constraint admits.
void add_symvar(sat::solver& solver, const ssv_encoding& enc,
                const tt::isf& target) {
  const unsigned n = target.num_vars();
  for (unsigned p = 0; p < n; ++p) {
    for (unsigned q = p + 1; q < n; ++q) {
      if (target.onset().swap_variables(p, q) != target.onset() ||
          target.careset().swap_variables(p, q) != target.careset()) {
        continue;
      }
      for (unsigned i = 0; i < enc.num_steps(); ++i) {
        const auto& pairs = enc.fanin_pairs(i);
        for (std::size_t idx = 0; idx < pairs.size(); ++idx) {
          if (!pair_contains(pairs[idx], q) ||
              pair_contains(pairs[idx], p)) {
            continue;
          }
          sat::clause_lits clause{neg(enc.select_var(i, idx))};
          for (unsigned i2 = 0; i2 < i; ++i2) {
            const auto& earlier = enc.fanin_pairs(i2);
            for (std::size_t e = 0; e < earlier.size(); ++e) {
              if (pair_contains(earlier[e], p)) {
                clause.push_back(pos(enc.select_var(i2, e)));
              }
            }
          }
          solver.add_clause(clause);
        }
      }
    }
  }
}

/// symvar for multi-output targets: the relabelling argument needs the
/// *whole* specification to be invariant under the swap, so the break
/// applies to a pair (p, q) only when every output function is symmetric
/// in it.  (Complementing an output preserves symmetry, so checking the
/// raw functions also covers the encoder's normalized forms.)
void add_symvar_multi(sat::solver& solver, const ssv_encoding& enc,
                      const std::vector<tt::truth_table>& functions) {
  const unsigned n = functions.front().num_vars();
  for (unsigned p = 0; p < n; ++p) {
    for (unsigned q = p + 1; q < n; ++q) {
      bool symmetric = true;
      for (const auto& f : functions) {
        if (f.swap_variables(p, q) != f) {
          symmetric = false;
          break;
        }
      }
      if (!symmetric) {
        continue;
      }
      for (unsigned i = 0; i < enc.num_steps(); ++i) {
        const auto& pairs = enc.fanin_pairs(i);
        for (std::size_t idx = 0; idx < pairs.size(); ++idx) {
          if (!pair_contains(pairs[idx], q) ||
              pair_contains(pairs[idx], p)) {
            continue;
          }
          sat::clause_lits clause{neg(enc.select_var(i, idx))};
          for (unsigned i2 = 0; i2 < i; ++i2) {
            const auto& earlier = enc.fanin_pairs(i2);
            for (std::size_t e = 0; e < earlier.size(); ++e) {
              if (pair_contains(earlier[e], p)) {
                clause.push_back(pos(enc.select_var(i2, e)));
              }
            }
          }
          solver.add_clause(clause);
        }
      }
    }
  }
}

/// The read-once decision for a completely specified target `f` of
/// support s at `num_gates` <= s − 1: fewer than s − 1 gates cannot read s
/// inputs, and s − 1 gates reading s inputs read every signal exactly
/// once, so they exist iff `f` is fully DSD.  The witness is the DSD's
/// contraction chain, checked for size and function before it is handed
/// out.  Returns no result above s − 1 gates (or, defensively, on a
/// witness that fails its check): the CNF path decides those.
std::optional<probe_result> decide_read_once(const tt::truth_table& f,
                                             unsigned num_gates) {
  const unsigned support = f.support_size();
  if (num_gates + 1 > support) {
    return std::nullopt;
  }
  probe_result out;
  out.verdict = probe_verdict::infeasible;
  if (num_gates + 1 < support) {
    return out;
  }
  const auto dsd = tt::analyze_dsd(f);
  if (dsd.kind != tt::dsd_kind::full) {
    return out;
  }
  chain::boolean_chain witness{f.num_vars()};
  for (const auto& block : dsd.blocks) {
    witness.add_step(block.op, block.fanin[0], block.fanin[1]);
  }
  witness.set_output(f.num_vars() + witness.num_steps() - 1,
                     dsd.residue.get_bit(0));
  if (witness.num_steps() != num_gates || witness.simulate() != f) {
    return std::nullopt;
  }
  out.verdict = probe_verdict::feasible;
  out.witness = std::move(witness);
  return out;
}

}  // namespace

probe_result lower_bound_prober::probe(const tt::isf& target,
                                       unsigned num_gates,
                                       core::run_context* ctx) const {
  probe_result out;
  if (num_gates == 0) {
    return out;  // unknown
  }
  if (target.careset().is_const1()) {
    if (auto decided = decide_read_once(target.onset(), num_gates)) {
      return std::move(*decided);
    }
  }
  if (target.num_vars() > options_.max_vars) {
    return out;  // unknown
  }

  // The SSV encoding requires a normal target (row 0 = 0).  A care row 0
  // forced to 1 is existence-equivalent to the complemented ISF (same
  // chains, output inverted); a don't-care row 0 already satisfies the
  // invariant (the on-set is masked by the care set).
  tt::isf t = target;
  const bool complemented = t.careset().get_bit(0) && t.onset().get_bit(0);
  if (complemented) {
    t = t.complement();
  }
  const unsigned n = t.num_vars();
  const bool restricted_care = !t.careset().is_const1();

  ssv_options enc_options;
  enc_options.use_all_steps = options_.alonce_clauses;

  bool any_unknown = false;
  for (const auto& fc : fence::pruned_fences(num_gates)) {
    if (ctx != nullptr && ctx->should_stop()) {
      out.verdict = probe_verdict::unknown;
      return out;
    }
    sat::solver solver;
    if (ctx != nullptr) {
      solver.set_run_context(ctx);
    }
    if (options_.conflict_budget != 0) {
      solver.set_conflict_budget(options_.conflict_budget);
    }
    ssv_encoding enc{solver, t.onset(), num_gates, fence_fanin_pairs(fc, n),
                     enc_options};
    if (restricted_care) {
      enc.set_output_care(t.careset());
    }
    enc.encode_structure();
    const auto level_of_step = fence_level_of_step(fc);
    if (options_.colex_clauses) {
      add_colex(solver, enc, level_of_step);
    }
    if (options_.noreapply_clauses) {
      add_noreapply(solver, enc, n);
    }
    if (options_.symvar_clauses) {
      add_symvar(solver, enc, t);
    }
    // Row encoding dominates the build at larger n (2^n rows of clauses
    // per fence), so poll cancellation between rows: an in-flight probe
    // must honour the cancel flag within the documented latency bound even
    // before the solver starts.
    bool build_cancelled = false;
    for (std::uint64_t row = 1; row < t.onset().num_bits(); ++row) {
      if ((row & 0xF) == 0 && ctx != nullptr && ctx->should_stop()) {
        build_cancelled = true;
        break;
      }
      enc.encode_row(row);
    }
    if (build_cancelled) {
      out.verdict = probe_verdict::unknown;
      return out;
    }
    ++out.solver_calls;
    if (ctx != nullptr) {
      ++ctx->counters.probe_calls;
    }
    switch (solver.solve()) {
      case sat::solve_result::sat:
        out.verdict = probe_verdict::feasible;
        out.witness = enc.extract_chain(complemented);
        return out;
      case sat::solve_result::unknown:
        any_unknown = true;
        break;
      case sat::solve_result::unsat:
        break;
    }
  }
  out.verdict =
      any_unknown ? probe_verdict::unknown : probe_verdict::infeasible;
  return out;
}

probe_result lower_bound_prober::probe_multi(
    const std::vector<tt::truth_table>& functions, unsigned num_gates,
    core::run_context* ctx) const {
  probe_result out;
  if (functions.empty() || num_gates == 0 ||
      functions.front().num_vars() > options_.max_vars) {
    return out;  // unknown
  }
  const unsigned n = functions.front().num_vars();
  const auto max_outputs = static_cast<unsigned>(functions.size());

  ssv_options enc_options;
  enc_options.use_all_steps = options_.alonce_clauses;

  // The multi-output encoding normalizes each function's polarity
  // internally, so no pre-complementation is needed here.
  bool any_unknown = false;
  for (const auto& fc : fence::pruned_fences_multi(num_gates, max_outputs)) {
    if (ctx != nullptr && ctx->should_stop()) {
      out.verdict = probe_verdict::unknown;
      return out;
    }
    sat::solver solver;
    if (ctx != nullptr) {
      solver.set_run_context(ctx);
    }
    if (options_.conflict_budget != 0) {
      solver.set_conflict_budget(options_.conflict_budget);
    }
    ssv_encoding enc{solver, functions, num_gates,
                     fence_fanin_pairs(fc, n), enc_options};
    enc.encode_structure();
    const auto level_of_step = fence_level_of_step(fc);
    if (options_.colex_clauses) {
      add_colex(solver, enc, level_of_step);
    }
    if (options_.noreapply_clauses) {
      add_noreapply(solver, enc, n);
    }
    if (options_.symvar_clauses) {
      add_symvar_multi(solver, enc, functions);
    }
    bool build_cancelled = false;
    for (std::uint64_t row = 1; row < functions.front().num_bits(); ++row) {
      if ((row & 0xF) == 0 && ctx != nullptr && ctx->should_stop()) {
        build_cancelled = true;
        break;
      }
      enc.encode_row(row);
    }
    if (build_cancelled) {
      out.verdict = probe_verdict::unknown;
      return out;
    }
    ++out.solver_calls;
    if (ctx != nullptr) {
      ++ctx->counters.probe_calls;
    }
    switch (solver.solve()) {
      case sat::solve_result::sat:
        out.verdict = probe_verdict::feasible;
        out.witness = enc.extract_chain(false);
        return out;
      case sat::solve_result::unknown:
        any_unknown = true;
        break;
      case sat::solve_result::unsat:
        break;
    }
  }
  out.verdict =
      any_unknown ? probe_verdict::unknown : probe_verdict::infeasible;
  return out;
}

}  // namespace stpes::synth
