/// \file read_once_probe_test.cpp
/// \brief The probe's read-once decision at support − 1 gates, against
///        independent oracles.
///
/// A completely specified target of support s has an (s − 1)-gate chain
/// exactly when it is read-once (fully DSD into 2-input blocks).  The probe
/// decides that level from the DSD analysis without a solver; these tests
/// hold its verdict to BMS (plain SSV SAT with no topology), its witness to
/// simulation, and the engine's chain sets to the probe-free sweep.

#include <gtest/gtest.h>

#include <vector>

#include "synth/bms.hpp"
#include "synth/lower_bound.hpp"
#include "synth/stp_synth.hpp"
#include "tt/isf.hpp"
#include "util/rng.hpp"
#include "workload/collections.hpp"

namespace {

using stpes::core::run_context;
using stpes::synth::lower_bound_prober;
using stpes::synth::probe_result;
using stpes::synth::probe_verdict;
using stpes::tt::isf;
using stpes::tt::truth_table;

/// The probe at s − 1 gates, with the CNF calls it made.
struct decision {
  probe_result result;
  std::uint64_t probe_calls = 0;
};

decision probe_at_support_minus_one(const truth_table& f) {
  run_context ctx;
  decision d;
  d.result =
      lower_bound_prober{}.probe(isf::from_function(f), f.support_size() - 1,
                                 &ctx);
  d.probe_calls = ctx.counters.probe_calls;
  return d;
}

/// Checks the verdict at s − 1 gates against BMS limited to s − 1 gates,
/// and a feasible verdict's witness against the target.
void expect_agrees_with_bms(const truth_table& f) {
  const unsigned s = f.support_size();
  ASSERT_GE(s, 2u) << f.to_hex();
  const auto d = probe_at_support_minus_one(f);
  EXPECT_EQ(d.probe_calls, 0u) << f.to_hex();
  EXPECT_EQ(d.result.solver_calls, 0u) << f.to_hex();

  stpes::synth::spec bms_spec;
  bms_spec.function = f;
  bms_spec.max_gates = s - 1;
  const auto bms = stpes::synth::bms_synthesize(bms_spec);
  ASSERT_NE(bms.outcome, stpes::synth::status::timeout) << f.to_hex();
  EXPECT_EQ(d.result.verdict, bms.ok() ? probe_verdict::feasible
                                       : probe_verdict::infeasible)
      << f.to_hex();
  if (d.result.verdict == probe_verdict::feasible) {
    ASSERT_TRUE(d.result.witness.has_value()) << f.to_hex();
    EXPECT_EQ(d.result.witness->size(), s - 1) << f.to_hex();
    EXPECT_EQ(d.result.witness->simulate(), f) << f.to_hex();
  }
}

TEST(ReadOnceProbe, AgreesWithBmsOnAllNpn4Classes) {
  unsigned feasible = 0;
  unsigned checked = 0;
  for (const auto& f : stpes::workload::npn4_classes()) {
    if (f.support_size() < 2) {
      continue;  // constants and literals never reach the probe
    }
    expect_agrees_with_bms(f);
    ++checked;
    feasible += probe_at_support_minus_one(f).result.verdict ==
                probe_verdict::feasible;
  }
  EXPECT_EQ(checked, 220u);
  // Both verdicts occur: the comparison is not vacuous.
  EXPECT_GT(feasible, 0u);
  EXPECT_LT(feasible, checked);
}

TEST(ReadOnceProbe, AgreesWithBmsOnFiveAndSixInputSamples) {
  // Per family, four 5-input and two 6-input functions: BMS refuting five
  // gates on six inputs takes about half a second per function.
  for (const unsigned n : {5u, 6u}) {
    const std::size_t per_family = n == 5 ? 4 : 2;
    std::vector<truth_table> sample =
        stpes::workload::fdsd_functions(n, per_family, 7);
    for (const auto& f : stpes::workload::pdsd_functions(n, per_family, 7)) {
      sample.push_back(f);
    }
    stpes::util::rng rng{11 + n};
    for (std::size_t i = 0; i < per_family; ++i) {
      sample.push_back(stpes::workload::random_read_once_tree(n, rng));
      sample.push_back(stpes::workload::random_prime_function(n, rng));
    }
    for (const auto& f : sample) {
      expect_agrees_with_bms(f);
    }
  }
}

TEST(ReadOnceProbe, BelowSupportMinusOneIsInfeasibleWithoutASolver) {
  const auto f = truth_table::from_hex(4, "0x8ff8");  // (x0 & x1) | (x2 ^ x3)
  for (unsigned k = 1; k < 3; ++k) {
    run_context ctx;
    const auto pr = lower_bound_prober{}.probe(isf::from_function(f), k, &ctx);
    EXPECT_EQ(pr.verdict, probe_verdict::infeasible) << k;
    EXPECT_FALSE(pr.witness.has_value()) << k;
    EXPECT_EQ(ctx.counters.probe_calls, 0u) << k;
  }
}

TEST(ReadOnceProbe, WitnessesCoverComplementedOutputsAndUnusedInputs) {
  const unsigned n = 5;
  const auto x = [&](unsigned v) { return truth_table::nth_var(n, v); };
  // NAND-rooted, so row 0 is 1 and the witness output is complemented.
  const auto nand_rooted = ~((x(0) ^ x(1)) & (x(2) | x(3)) & x(4));
  // Support {0, 2, 4} of 5 inputs: the witness reads the original indices.
  const auto sparse = (x(0) & ~x(2)) ^ x(4);
  for (const auto& f : {nand_rooted, sparse}) {
    const auto d = probe_at_support_minus_one(f);
    ASSERT_EQ(d.result.verdict, probe_verdict::feasible) << f.to_hex();
    ASSERT_TRUE(d.result.witness.has_value());
    EXPECT_EQ(d.result.witness->num_inputs(), n);
    EXPECT_EQ(d.result.witness->size(), f.support_size() - 1);
    EXPECT_EQ(d.result.witness->simulate(), f) << f.to_hex();
    EXPECT_EQ(d.probe_calls, 0u);
  }
  EXPECT_TRUE(probe_at_support_minus_one(nand_rooted)
                  .result.witness->output_complemented());
}

TEST(ReadOnceProbe, DecidesTargetsAboveTheCnfSizeCap) {
  // 7 and 8 inputs are above the default `max_vars`, where the CNF path
  // answers `unknown`; the read-once decision still applies.
  stpes::util::rng rng{5};
  for (const unsigned n : {7u, 8u}) {
    ASSERT_GT(n, stpes::synth::lower_bound_options{}.max_vars);
    const auto tree = stpes::workload::random_read_once_tree(n, rng);
    const auto d = probe_at_support_minus_one(tree);
    ASSERT_EQ(d.result.verdict, probe_verdict::feasible) << tree.to_hex();
    ASSERT_TRUE(d.result.witness.has_value());
    EXPECT_EQ(d.result.witness->size(), n - 1);
    EXPECT_EQ(d.result.witness->simulate(), tree);

    const auto pdsd = stpes::workload::pdsd_functions(n, 1, 3).front();
    EXPECT_EQ(probe_at_support_minus_one(pdsd).result.verdict,
              probe_verdict::infeasible)
        << pdsd.to_hex();
  }
}

TEST(ReadOnceProbe, RestrictedCareSetStillUsesTheCnfPath) {
  // AND3 with one don't-care row: the read-once decision needs a
  // completely specified target, so the probe asks the solver.
  const auto and3 = truth_table::from_hex(3, "0x80");
  auto care = truth_table::constant(3, true);
  care.set_bit(3, false);
  run_context ctx;
  const auto pr =
      lower_bound_prober{}.probe(isf{and3, care}, 2, &ctx);
  EXPECT_EQ(pr.verdict, probe_verdict::feasible);
  EXPECT_GT(ctx.counters.probe_calls, 0u);
}

TEST(ReadOnceProbe, DefaultEngineMatchesTheProbeFreeSweepOnFdsd6) {
  // The probe only decides whether a level is swept; the level is still
  // enumerated, so the chain sets match the sweep's exactly, in order.
  stpes::synth::stp_options sweep_options;
  sweep_options.engine = stpes::synth::stp_level_engine::sweep;
  for (const auto& f : stpes::workload::fdsd_functions(6, 20, 1)) {
    stpes::synth::spec s;
    s.function = f;
    stpes::synth::stp_engine probe_engine;
    stpes::synth::stp_engine sweep_engine{sweep_options};
    const auto probed = probe_engine.run(s);
    const auto swept = sweep_engine.run(s);
    ASSERT_TRUE(probed.ok()) << f.to_hex();
    ASSERT_TRUE(swept.ok()) << f.to_hex();
    EXPECT_EQ(probed.optimum_gates, swept.optimum_gates) << f.to_hex();
    EXPECT_EQ(probed.counters.probe_calls, 0u) << f.to_hex();
    EXPECT_EQ(probed.counters.probe_sat_levels, 1u) << f.to_hex();
    ASSERT_EQ(probed.chains.size(), swept.chains.size()) << f.to_hex();
    for (std::size_t i = 0; i < swept.chains.size(); ++i) {
      EXPECT_TRUE(probed.chains[i] == swept.chains[i])
          << f.to_hex() << " chain " << i;
    }
  }
}

}  // namespace
