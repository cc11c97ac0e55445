#include <gtest/gtest.h>

#include <string>

#include "synth/stp_synth.hpp"
#include "util/rng.hpp"
#include "util/run_context.hpp"
#include "workload/collections.hpp"

namespace {

using stpes::core::run_context;
using stpes::synth::spec;
using stpes::synth::status;
using stpes::synth::stp_engine;
using stpes::tt::isf;
using stpes::tt::truth_table;

TEST(DontCareSynthesis, FullySpecifiedMatchesExactSynthesis) {
  const auto f = truth_table::from_hex(4, "0x8ff8");
  stp_engine engine;
  const auto dc = engine.run_with_dont_cares(isf::from_function(f));
  ASSERT_TRUE(dc.ok());
  EXPECT_EQ(dc.optimum_gates, 3u);
  for (const auto& c : dc.chains) {
    EXPECT_EQ(c.simulate(), f);
  }

  // Both entry points share one driver: on a full-support function the
  // don't-care path must be the very same search — same chains in the
  // same order and the same effort on every stage counter.  Classes whose
  // complete-function solve does not finish in the short budget are
  // skipped; a cut sweep depends on where the clock landed.
  constexpr double kBudget = 3.0;
  const auto classes = stpes::workload::npn4_classes();
  std::size_t compared = 0;
  for (std::size_t i = 0; i < classes.size(); i += 7) {
    const auto& g = classes[i];
    if (g.support_size() != g.num_vars()) {
      continue;  // shrinking and cone projection take different routes
    }
    const std::string label = g.to_hex();
    run_context complete_ctx{kBudget};
    spec s;
    s.function = g;
    s.ctx = &complete_ctx;
    const auto complete = engine.run(s);
    if (complete.outcome != status::success ||
        !complete.enumeration_complete) {
      continue;
    }
    run_context dc_ctx{kBudget * 4};
    const auto relaxed = engine.run_with_dont_cares(isf::from_function(g),
                                                    &dc_ctx);
    ASSERT_EQ(relaxed.outcome, status::success) << label;
    ASSERT_TRUE(relaxed.enumeration_complete) << label;
    EXPECT_EQ(relaxed.optimum_gates, complete.optimum_gates) << label;
    ASSERT_EQ(relaxed.chains.size(), complete.chains.size()) << label;
    for (std::size_t c = 0; c < complete.chains.size(); ++c) {
      EXPECT_TRUE(relaxed.chains[c] == complete.chains[c])
          << label << " chain " << c;
    }
    for (const auto& field : stpes::core::stage_counter_fields) {
      EXPECT_EQ(relaxed.counters.*field.member,
                complete.counters.*field.member)
          << label << ": " << field.name;
    }
    ++compared;
  }
  // A floor keeps the skip path honest.
  EXPECT_GE(compared, 12u);
}

TEST(DontCareSynthesis, DontCaresNeverHurt) {
  // Relaxing minterms can only keep or shrink the optimum size.
  stpes::util::rng rng{2718};
  for (int iteration = 0; iteration < 8; ++iteration) {
    truth_table f{3, rng.next_u64() & 0xFF};
    stp_engine engine;
    const auto exact = engine.run_with_dont_cares(isf::from_function(f));
    ASSERT_TRUE(exact.ok());
    truth_table care = truth_table::constant(3, true);
    care.set_bit(rng.next_below(8), false);
    care.set_bit(rng.next_below(8), false);
    stp_engine relaxed_engine;
    const auto relaxed =
        relaxed_engine.run_with_dont_cares(isf{f & care, care});
    ASSERT_TRUE(relaxed.ok());
    EXPECT_LE(relaxed.optimum_gates, exact.optimum_gates);
    const isf spec{f & care, care};
    for (const auto& c : relaxed.chains) {
      EXPECT_TRUE(spec.accepts(c.simulate()));
    }
  }
}

TEST(DontCareSynthesis, BigDontCareSetCollapsesToLiteral) {
  // Only two care minterms, both consistent with x0: zero gates.
  truth_table on{3};
  on.set_bit(0b001, true);
  truth_table care{3};
  care.set_bit(0b001, true);
  care.set_bit(0b110, true);  // x0 = 0 there, and requirement is 0
  stp_engine engine;
  const auto r = engine.run_with_dont_cares(isf{on, care});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.optimum_gates, 0u);
  EXPECT_TRUE(isf(on, care).accepts(r.best().simulate()));
}

TEST(DontCareSynthesis, ConstantAcceptance) {
  // Care set only where f would be 1: constant-1 is accepted.
  truth_table on{2};
  on.set_bit(1, true);
  on.set_bit(2, true);
  stp_engine engine;
  const auto r = engine.run_with_dont_cares(isf{on, on});
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.best().simulate().is_const1());
}

TEST(DontCareSynthesis, MajWithOneDontCareDropsToTwoGates) {
  // MAJ3 needs 4 gates exactly; freeing the right minterms must reach a
  // strictly smaller network (e.g. freeing 0b101 and 0b010 admits
  // (x0 & x1) | x2-style functions).
  const auto maj = truth_table::from_hex(3, "0xe8");
  truth_table care = truth_table::constant(3, true);
  care.set_bit(0b101, false);
  care.set_bit(0b010, false);
  stp_engine engine;
  const auto r = engine.run_with_dont_cares(isf{maj & care, care});
  ASSERT_TRUE(r.ok());
  EXPECT_LT(r.optimum_gates, 4u);
  const isf spec{maj & care, care};
  for (const auto& c : r.chains) {
    EXPECT_TRUE(spec.accepts(c.simulate()));
  }
}

TEST(DontCareSynthesis, TimeoutPropagates) {
  const auto f = truth_table::from_hex(4, "0xcafe");
  stp_engine engine;
  stpes::core::run_context ctx{1e-9};
  const auto r = engine.run_with_dont_cares(isf::from_function(f), &ctx);
  EXPECT_EQ(r.outcome, status::timeout);
}

}  // namespace
