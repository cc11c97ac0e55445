#include <gtest/gtest.h>

#include <utility>

#include "allsat/circuit_allsat.hpp"
#include "core/exact_synthesis.hpp"
#include "synth/bms.hpp"
#include "synth/cegar.hpp"
#include "synth/fen.hpp"
#include "synth/stp_synth.hpp"
#include "tt/npn.hpp"
#include "util/rng.hpp"
#include "workload/collections.hpp"

namespace {

using stpes::core::engine;
using stpes::core::exact_synthesis;
using stpes::synth::result;
using stpes::synth::spec;
using stpes::synth::status;
using stpes::tt::truth_table;

constexpr engine kAllEngines[] = {engine::stp, engine::bms, engine::fen,
                                  engine::cegar, engine::portfolio};

void expect_all_engines_agree(const truth_table& f, double timeout = 60.0) {
  result reference;
  bool have_reference = false;
  for (const auto e : kAllEngines) {
    const auto r = exact_synthesis(f, e, timeout);
    ASSERT_EQ(r.outcome, status::success)
        << stpes::core::to_string(e) << " on " << f.to_hex();
    for (const auto& c : r.chains) {
      EXPECT_EQ(c.simulate(), f)
          << stpes::core::to_string(e) << " chain:\n" << c.to_string();
      EXPECT_EQ(c.size(), r.optimum_gates);
    }
    if (have_reference) {
      EXPECT_EQ(r.optimum_gates, reference.optimum_gates)
          << stpes::core::to_string(e) << " on " << f.to_hex();
    } else {
      reference = r;
      have_reference = true;
    }
  }
}

TEST(Synthesis, PaperRunningExample) {
  // 0x8ff8 needs exactly three 2-LUT steps (Example 7).
  const auto f = truth_table::from_hex(4, "0x8ff8");
  const auto r = exact_synthesis(f, engine::stp);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.optimum_gates, 3u);
  // The paper reports two solution sets for the Fig. 3(a) DAG; they are
  // polarity variants of one another, so under polarity normalization the
  // engine returns exactly the normal representative — Example 7's first
  // solution: OR on top of AND(a,b) and XOR(c,d).
  ASSERT_EQ(r.chains.size(), 1u);
  const auto& c = r.chains.front();
  unsigned and_steps = 0;
  unsigned xor_steps = 0;
  unsigned or_steps = 0;
  for (const auto& st : c.steps()) {
    and_steps += st.op == 0x8;
    xor_steps += st.op == 0x6;
    or_steps += st.op == 0xE;
  }
  EXPECT_EQ(and_steps, 1u);
  EXPECT_EQ(xor_steps, 1u);
  EXPECT_EQ(or_steps, 1u);
}

TEST(Synthesis, KnownOptima) {
  // AND2: 1 gate; XOR2: 1 gate; MAJ3: 4 gates with 2-input operators;
  // 3-input XOR: 2 gates; AND4: 3 gates.
  const auto and2 = truth_table(2, 0x8);
  EXPECT_EQ(exact_synthesis(and2, engine::stp).optimum_gates, 1u);
  const auto xor2 = truth_table(2, 0x6);
  EXPECT_EQ(exact_synthesis(xor2, engine::stp).optimum_gates, 1u);
  const auto maj3 = truth_table::from_hex(3, "0xe8");
  EXPECT_EQ(exact_synthesis(maj3, engine::stp).optimum_gates, 4u);
  auto xor3 = truth_table::nth_var(3, 0) ^ truth_table::nth_var(3, 1) ^
              truth_table::nth_var(3, 2);
  EXPECT_EQ(exact_synthesis(xor3, engine::stp).optimum_gates, 2u);
  auto and4 = truth_table::constant(4, true);
  for (unsigned v = 0; v < 4; ++v) {
    and4 &= truth_table::nth_var(4, v);
  }
  EXPECT_EQ(exact_synthesis(and4, engine::stp).optimum_gates, 3u);
}

TEST(Synthesis, DegenerateTargets) {
  for (const auto e : kAllEngines) {
    const auto literal = exact_synthesis(~truth_table::nth_var(3, 1), e);
    ASSERT_TRUE(literal.ok());
    EXPECT_EQ(literal.optimum_gates, 0u);
    EXPECT_EQ(literal.best().simulate(), ~truth_table::nth_var(3, 1));

    const auto constant = exact_synthesis(truth_table::constant(2, false), e);
    ASSERT_TRUE(constant.ok());
    EXPECT_TRUE(constant.best().simulate().is_const0());
  }
}

TEST(Synthesis, RawStpEngineAnswersDegenerateTargets) {
  // The engine's own pre-pass, not just the exact_synthesis facade, must
  // answer constants and literals: a constant shrinks to zero variables and
  // a literal has no 1-gate chain to find.
  const std::pair<const char*, unsigned> cases[] = {
      {"0x0000", 1}, {"0xffff", 1}, {"0xaaaa", 0}, {"0x5555", 0}};
  for (const auto& [hex, optimum] : cases) {
    const auto f = truth_table::from_hex(4, hex);
    const auto facade = exact_synthesis(f, engine::stp);
    ASSERT_TRUE(facade.ok()) << hex;
    EXPECT_EQ(facade.optimum_gates, optimum) << hex;

    stpes::core::run_context ctx{5.0};
    spec s;
    s.function = f;
    s.ctx = &ctx;
    const auto r = stpes::synth::stp_engine{}.run(s);
    ASSERT_EQ(r.outcome, status::success) << hex;
    EXPECT_EQ(r.optimum_gates, facade.optimum_gates) << hex;
    ASSERT_EQ(r.chains.size(), 1u) << hex;
    EXPECT_EQ(r.best().num_inputs(), 4u) << hex;
    EXPECT_EQ(r.best().simulate(), f) << hex;
  }
}

TEST(Synthesis, FunctionsWithPartialSupportAreLifted) {
  // A function of {x1, x3} inside a 4-input space.
  const auto f = truth_table::nth_var(4, 1) ^ truth_table::nth_var(4, 3);
  for (const auto e : kAllEngines) {
    const auto r = exact_synthesis(f, e);
    ASSERT_TRUE(r.ok()) << stpes::core::to_string(e);
    EXPECT_EQ(r.optimum_gates, 1u);
    EXPECT_EQ(r.best().simulate(), f);
    EXPECT_EQ(r.best().num_inputs(), 4u);
  }
}

TEST(Synthesis, AllNpn3ClassesAgreeAcrossEngines) {
  for (const auto& f : stpes::tt::enumerate_npn_classes(3)) {
    expect_all_engines_agree(f);
  }
}

TEST(Synthesis, RandomFourInputFunctionsAgreeAcrossEngines) {
  stpes::util::rng rng{4242};
  int tested = 0;
  while (tested < 6) {
    truth_table f{4, rng.next_u64() & 0xFFFF};
    // Keep the cross-check quick: skip the very hardest functions.
    const auto probe = exact_synthesis(f, engine::cegar, 20.0);
    if (!probe.ok() || probe.optimum_gates > 5) {
      continue;
    }
    expect_all_engines_agree(f);
    ++tested;
  }
}

TEST(Synthesis, StpReturnsAllNormalChainsVerified) {
  const auto f = truth_table::from_hex(4, "0xe8e8");  // MAJ3 on 4 inputs
  stpes::synth::stp_engine eng;
  spec s;
  s.function = f;
  const auto r = eng.run(s);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r.chains.size(), 1u);
  for (const auto& c : r.chains) {
    EXPECT_EQ(c.simulate(), f);
    EXPECT_TRUE(stpes::allsat::verify_chain(c, f));
    EXPECT_EQ(c.size(), r.optimum_gates);
  }
  // Solutions are pairwise distinct.
  for (std::size_t i = 0; i < r.chains.size(); ++i) {
    for (std::size_t j = i + 1; j < r.chains.size(); ++j) {
      EXPECT_FALSE(r.chains[i] == r.chains[j]);
    }
  }
}

TEST(Synthesis, MaxSolutionsCap) {
  stpes::synth::stp_options options;
  options.max_solutions = 3;
  stpes::synth::stp_engine eng{options};
  spec s;
  s.function = truth_table::from_hex(4, "0xe8e8");
  const auto r = eng.run(s);
  ASSERT_TRUE(r.ok());
  EXPECT_LE(r.chains.size(), 3u);
}

TEST(Synthesis, TimeoutIsReported) {
  spec s;
  s.function = truth_table::from_hex(4, "0x1ee1") ^
               truth_table::nth_var(4, 0);  // arbitrary non-trivial target
  for (const auto e : kAllEngines) {
    stpes::core::run_context ctx{1e-9};
    s.ctx = &ctx;
    const auto r = exact_synthesis(s, e);
    EXPECT_EQ(r.outcome, status::timeout) << stpes::core::to_string(e);
  }
}

TEST(Synthesis, DeadlineCutLevelReportsPartialSuccess) {
  // The hard NPN4 classes find their first optimum chains in well under a
  // second (the reverse DAG sweep surfaces them early) but need minutes to
  // exhaust the winning level.  Under a budget between those two times the
  // engine must report success with `enumeration_complete == false`: the
  // optimum size is proven (all smaller levels were exhausted) while the
  // chain set is possibly partial.  Every reported chain must still be a
  // verified realization at the claimed optimum size.
  const auto functions = stpes::workload::npn4_classes();
  for (std::size_t i = 0; i < functions.size(); i += 8) {
    stpes::core::run_context ctx{2.5};
    spec s;
    s.function = functions[i];
    s.ctx = &ctx;
    const auto r = exact_synthesis(s, engine::stp);
    if (r.outcome != status::success || r.enumeration_complete) {
      continue;
    }
    ASSERT_FALSE(r.chains.empty());
    for (const auto& c : r.chains) {
      EXPECT_EQ(c.simulate(), s.function);
      EXPECT_EQ(c.size(), r.optimum_gates);
    }
    return;
  }
  FAIL() << "no class produced a deadline-cut partial success";
}

TEST(Synthesis, CompleteRunsReportCompleteEnumeration) {
  // Without a deadline the sweep always finishes, so the flag must stay
  // true — including under a solution cap, which truncates deliberately
  // rather than by wall clock.
  spec s;
  s.function = truth_table::from_hex(4, "0xe8e8");
  const auto full = exact_synthesis(s, engine::stp);
  ASSERT_TRUE(full.ok());
  EXPECT_TRUE(full.enumeration_complete);

  stpes::synth::stp_options options;
  options.max_solutions = 1;
  stpes::synth::stp_engine eng{options};
  const auto capped = eng.run(s);
  ASSERT_TRUE(capped.ok());
  EXPECT_TRUE(capped.enumeration_complete);
}

TEST(Synthesis, TreeOnlyAblationStillFindsTreeOptima) {
  stpes::synth::stp_options options;
  options.allow_shared_gates = false;
  stpes::synth::stp_engine eng{options};
  spec s;
  s.function = truth_table::from_hex(4, "0x8ff8");
  const auto r = eng.run(s);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.optimum_gates, 3u);
}

TEST(Synthesis, UnprunedFencesAblationAgrees) {
  stpes::synth::stp_options options;
  options.use_fence_pruning = false;
  stpes::synth::stp_engine eng{options};
  spec s;
  s.function = truth_table::from_hex(3, "0x96");  // XOR3
  const auto r = eng.run(s);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.optimum_gates, 2u);
}

TEST(Synthesis, EngineNamesRoundTrip) {
  using stpes::core::engine_from_string;
  EXPECT_EQ(engine_from_string("stp"), engine::stp);
  EXPECT_EQ(engine_from_string("BMS"), engine::bms);
  EXPECT_EQ(engine_from_string("fen"), engine::fen);
  EXPECT_EQ(engine_from_string("abc"), engine::cegar);
  EXPECT_EQ(engine_from_string("portfolio"), engine::portfolio);
  EXPECT_THROW(engine_from_string("nope"), std::invalid_argument);
  for (const auto e : kAllEngines) {
    EXPECT_EQ(engine_from_string(stpes::core::to_string(e)), e);
  }
}

}  // namespace
