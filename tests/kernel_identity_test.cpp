// End-to-end kernel-tier bit-identity: whole synthesis runs replayed
// under the forced scalar tier and under every dispatched tier available
// on this machine must produce the same chains, the same optimum, and the
// same deterministic effort counters.  This is the contract that lets the
// dispatcher pick any tier at startup without changing results.
//
// Workloads: the NPN4 bench subset (first 40 class representatives, the
// set BENCH_table1_npn4.json tracks) and the MADD multi-output
// collection.  Runs are sequential (threads=1) and capped at 256 chains
// (16 for MADD, whose add2 level is enumeration-heavy):
// most classes complete their enumeration below the cap (the strongest
// possible comparison — full solution set, full screen totals), the few
// heavy ones stop at a deterministic search-dependent point instead of a
// wall-clock one.  Thread-count determinism is parallel_synth_test's job.

#include <gtest/gtest.h>

#include <vector>

#include "synth/spec.hpp"
#include "synth/stp_synth.hpp"
#include "tt/kernels/kernels.hpp"
#include "tt/truth_table.hpp"
#include "workload/collections.hpp"

namespace {

using stpes::core::stage_counter_fields;
using stpes::core::stage_counters;
using stpes::synth::result;
using stpes::synth::spec;
using stpes::synth::status;
using stpes::synth::stp_engine;
using stpes::synth::stp_options;
using stpes::tt::truth_table;
using stpes::tt::kernels::force_tier;
using stpes::tt::kernels::kernel_tier;
using stpes::tt::kernels::tier_available;
using stpes::tt::kernels::tier_name;

std::vector<kernel_tier> dispatched_tiers() {
  std::vector<kernel_tier> tiers;
  if (tier_available(kernel_tier::avx2)) {
    tiers.push_back(kernel_tier::avx2);
  }
  if (tier_available(kernel_tier::avx512)) {
    tiers.push_back(kernel_tier::avx512);
  }
  return tiers;
}

/// Restores the previously active tier on scope exit.
class tier_guard {
public:
  explicit tier_guard(kernel_tier t) : previous_(force_tier(t)) {}
  ~tier_guard() { force_tier(previous_); }
  tier_guard(const tier_guard&) = delete;
  tier_guard& operator=(const tier_guard&) = delete;

private:
  kernel_tier previous_;
};

result run_under_tier(const spec& s, kernel_tier tier,
                      unsigned max_solutions) {
  const tier_guard guard{tier};
  stp_options options;
  options.max_solutions = max_solutions;
  options.num_threads = 1;
  stp_engine engine{options};
  return engine.run(s);
}

void expect_same_counters(const stage_counters& a, const stage_counters& b,
                          const char* tier) {
  for (const auto& f : stage_counter_fields) {
    EXPECT_EQ(a.*f.member, b.*f.member) << tier << " vs scalar: " << f.name;
  }
}

void expect_bit_identical(const spec& s, const std::string& label,
                          unsigned max_solutions = 256) {
  const result reference = run_under_tier(s, kernel_tier::scalar, max_solutions);
  ASSERT_EQ(reference.outcome, status::success) << label;
  for (const kernel_tier tier : dispatched_tiers()) {
    const result r = run_under_tier(s, tier, max_solutions);
    ASSERT_EQ(r.outcome, status::success)
        << label << " under " << tier_name(tier);
    EXPECT_EQ(r.optimum_gates, reference.optimum_gates)
        << label << " under " << tier_name(tier);
    EXPECT_EQ(r.enumeration_complete, reference.enumeration_complete)
        << label << " under " << tier_name(tier);
    ASSERT_EQ(r.chains.size(), reference.chains.size())
        << label << " under " << tier_name(tier);
    for (std::size_t i = 0; i < r.chains.size(); ++i) {
      EXPECT_TRUE(r.chains[i] == reference.chains[i])
          << label << " chain " << i << " differs under " << tier_name(tier);
    }
    expect_same_counters(reference.counters, r.counters, tier_name(tier));
  }
}

class Npn4BitIdentity : public ::testing::TestWithParam<int> {};

TEST_P(Npn4BitIdentity, ScalarAndDispatchedTiersAgree) {
  static const std::vector<truth_table> classes =
      stpes::workload::npn4_classes();
  const auto& f = classes.at(static_cast<std::size_t>(GetParam()));
  if (f.support_size() < 2) {
    // Constants and literals never reach the engine in production — the
    // exact_synthesis facade's degenerate pre-pass answers them without
    // a search — and the raw engine has no chain to find for them.
    GTEST_SKIP() << f.to_hex() << " is degenerate";
  }
  spec s;
  s.function = f;
  // 0x016a's optimum level holds only 32 chains, so no cap above that
  // avoids exhausting it — and the exhaustion proof alone takes around a
  // minute per tier.  A cap below 32 stops at a deterministic
  // sweep-order point after ~0.3 s instead.
  const unsigned cap = f.to_hex() == "0x016a" ? 16u : 256u;
  expect_bit_identical(s, "npn4 " + f.to_hex(), cap);
}

// The first 40 NPN4 class representatives: the BENCH_table1_npn4 subset.
INSTANTIATE_TEST_SUITE_P(Npn4BenchSubset, Npn4BitIdentity,
                         ::testing::Range(0, 40));

TEST(MaddBitIdentity, ScalarAndDispatchedTiersAgree) {
  for (const auto& instance : stpes::workload::madd_collection()) {
    if (instance.name == "cmp2") {
      // cmp2's optimum level needs minutes of sweeping before the first
      // chain appears — the bench row only finishes it through the
      // wall-clock deadline plus the probe-witness fallback, and a
      // deadline cut is exactly what a bit-identity replay cannot
      // tolerate (the cut point is time- not search-dependent).  The
      // remaining four instances cover the multi-output path.
      continue;
    }
    spec s;
    s.functions = instance.functions;
    // Cap 16 instead of 256: add2's optimum level yields chains slowly
    // enough that enumerating 256 of them takes minutes, while the cap-16
    // cut lands after ~1 s at a point determined purely by the sweep
    // order — exactly as deterministic, much cheaper.
    expect_bit_identical(s, instance.name, /*max_solutions=*/16);
  }
}

}  // namespace
