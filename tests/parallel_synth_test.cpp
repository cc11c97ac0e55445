/// \file parallel_synth_test.cpp
/// \brief The parallel DAG sweep must be invisible in the results.
///
/// The STP engine fans candidate DAGs out over a thread pool in fixed
/// contiguous chunks with an in-order commit protocol, so the complete
/// optimum-chain set — order included — and, with `max_solutions == 0`,
/// every effort counter must be bit-identical at any thread count.  These
/// tests pin that contract for 1 vs 2 vs 8 threads across a spread of
/// NPN4 classes and a 5-input function whose search spans several chunks,
/// and for 1 vs 4 threads with both memo caps binding.  They are also the
/// tests the CI TSan job runs to prove the sweep is data-race-free.
///
/// The hardest NPN4 classes burn minutes even on the improved engine, so
/// each class first runs sequentially under a short budget and is skipped
/// on timeout: determinism is a property of completed sweeps, and the
/// comparison only makes sense when the baseline finished.  A floor on
/// the number of compared classes keeps the skip path honest.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "synth/spec.hpp"
#include "synth/stp_synth.hpp"
#include "tt/truth_table.hpp"
#include "util/run_context.hpp"
#include "workload/collections.hpp"

namespace {

using stpes::core::run_context;
using stpes::synth::result;
using stpes::synth::spec;
using stpes::synth::status;
using stpes::synth::stp_engine;
using stpes::synth::stp_options;
using stpes::tt::truth_table;

/// Renders every chain of a result, in order — the comparison key for
/// "bit-identical solution set".
std::vector<std::string> chain_strings(const result& r) {
  std::vector<std::string> out;
  out.reserve(r.chains.size());
  for (const auto& c : r.chains) {
    out.push_back(c.to_string());
  }
  return out;
}

result run_with_threads(const truth_table& f, unsigned num_threads,
                        double budget_seconds) {
  stp_options options;
  options.max_solutions = 0;  // enumerate all => counters comparable too
  stp_engine engine{options};
  run_context ctx{budget_seconds};
  spec s;
  s.function = f;
  s.ctx = &ctx;
  s.num_threads = num_threads;
  return engine.run(s);
}

/// Full-strength comparison: solution set, order, and every effort
/// counter the parallel sweep touches.
void expect_identical(const result& base, const result& other,
                      unsigned threads, const std::string& label) {
  ASSERT_EQ(base.outcome, other.outcome) << label << " @" << threads;
  ASSERT_EQ(base.enumeration_complete, other.enumeration_complete)
      << label << " @" << threads;
  EXPECT_EQ(base.optimum_gates, other.optimum_gates)
      << label << " @" << threads;
  EXPECT_EQ(chain_strings(base), chain_strings(other))
      << label << " @" << threads;
  EXPECT_EQ(base.counters.dags_generated, other.counters.dags_generated)
      << label << " @" << threads;
  EXPECT_EQ(base.counters.dags_pruned, other.counters.dags_pruned)
      << label << " @" << threads;
  EXPECT_EQ(base.counters.factorization_attempts,
            other.counters.factorization_attempts)
      << label << " @" << threads;
  EXPECT_EQ(base.counters.factorization_prunes,
            other.counters.factorization_prunes)
      << label << " @" << threads;
  EXPECT_EQ(base.counters.factor_memo_hits, other.counters.factor_memo_hits)
      << label << " @" << threads;
  EXPECT_EQ(base.counters.factor_memo_misses,
            other.counters.factor_memo_misses)
      << label << " @" << threads;
  EXPECT_EQ(base.counters.allsat_propagations,
            other.counters.allsat_propagations)
      << label << " @" << threads;
}

TEST(ParallelSynth, Npn4ChainsAndCountersBitIdenticalAcrossThreadCounts) {
  constexpr double kBudget = 3.0;
  const auto functions = stpes::workload::npn4_classes();
  ASSERT_FALSE(functions.empty());
  std::size_t compared = 0;
  // Every 8th class crosses trivial, medium and hard representatives;
  // classes whose sequential sweep blows the short budget — a timeout, or
  // a deadline-cut partial success — are skipped: a cut sweep's chain set
  // and counters depend on where the wall clock landed, so only complete
  // enumerations carry the bit-identical guarantee.
  for (std::size_t i = 0; i < functions.size(); i += 8) {
    const auto& f = functions[i];
    const result base = run_with_threads(f, 1, kBudget);
    if (base.outcome != status::success || !base.enumeration_complete) {
      continue;
    }
    for (const unsigned threads : {2u, 8u}) {
      const result r = run_with_threads(f, threads, kBudget * 4);
      expect_identical(base, r, threads, "npn4[" + std::to_string(i) + "]");
    }
    ++compared;
  }
  // If almost everything timed out the test silently proved nothing —
  // fail loudly instead.  Well over half the classes solve in well under
  // a second each on the word-parallel kernels.
  EXPECT_GE(compared, 10u);
}

TEST(ParallelSynth, SixInputFunctionMatchesAcrossThreadCounts) {
  // 6-input fully-DSD functions: their winning level carries 66 candidate
  // DAGs, one more than a chunk, so the sweep provably crosses a chunk
  // boundary and the factorization memo is actually shared between tasks
  // — while (unlike the prime-block PDSD pool) still finishing in
  // milliseconds on a slow single-core host.
  const auto functions = stpes::workload::fdsd_functions(6, 3, 1);
  ASSERT_FALSE(functions.empty());
  for (std::size_t i = 0; i < functions.size(); ++i) {
    const auto& f = functions[i];
    const result base = run_with_threads(f, 1, 60.0);
    ASSERT_EQ(base.outcome, status::success) << "fdsd6[" << i << "]";
    ASSERT_TRUE(base.enumeration_complete) << "fdsd6[" << i << "]";
    ASSERT_FALSE(base.chains.empty());
    EXPECT_GT(base.counters.dags_generated, 64u)
        << "fdsd6[" << i << "]: sweep no longer spans multiple chunks";

    for (const unsigned threads : {2u, 8u}) {
      const result r = run_with_threads(f, threads, 240.0);
      expect_identical(base, r, threads, "fdsd6[" + std::to_string(i) + "]");
    }
  }
}

TEST(ParallelSynth, CappedMemosKeepChainsAndStayThreadCountIndependent) {
  // 0x0180 is the costliest class of the perfbench NPN4 pool; its
  // factorization memo grows to about 65 k entries, so both caps bind,
  // misses past the cap are served from the per-frame overflow buffer,
  // and the second task's delta meets a full memo at the merge.
  const auto f = truth_table::from_hex(4, "0x0180");
  const auto solve = [&](unsigned threads, bool capped) {
    stp_options options;
    if (capped) {
      options.factor_memo_cap = 256;
      options.failed_memo_cap = 1024;
    }
    stp_engine engine{options};
    run_context ctx{600.0};
    spec s;
    s.function = f;
    s.ctx = &ctx;
    s.num_threads = threads;
    return engine.run(s);
  };
  const result reference = solve(1, false);
  ASSERT_EQ(reference.outcome, status::success);
  ASSERT_TRUE(reference.enumeration_complete);
  ASSERT_FALSE(reference.chains.empty());

  const result capped = solve(1, true);
  ASSERT_EQ(capped.outcome, status::success);
  ASSERT_TRUE(capped.enumeration_complete);
  EXPECT_EQ(chain_strings(reference), chain_strings(capped));
  EXPECT_GT(capped.counters.factor_memo_misses,
            reference.counters.factor_memo_misses);

  const result capped4 = solve(4, true);
  ASSERT_EQ(capped4.outcome, status::success);
  EXPECT_EQ(chain_strings(capped), chain_strings(capped4));
  for (const auto& field : stpes::core::stage_counter_fields) {
    EXPECT_EQ(capped.counters.*field.member, capped4.counters.*field.member)
        << field.name;
  }
}

}  // namespace
