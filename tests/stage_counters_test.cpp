// Schema test for the stage-counter table (util/stage_counters.def): every
// operation that handles the counters as a set must cover every field,
// and the JSON renderings must keep their key set and order.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "service/metrics.hpp"
#include "table1_common.hpp"
#include "util/run_context.hpp"

namespace {

using stpes::core::stage_counter_fields;
using stpes::core::stage_counters;

/// Field i (in table order) holds 1000 + i.
stage_counters distinct_values() {
  stage_counters c;
  std::uint64_t v = 1000;
  for (const auto& f : stage_counter_fields) {
    c.*f.member = v++;
  }
  return c;
}

// The renderings of `distinct_values()`, byte for byte as the hand-written
// writers emitted them before the table existed.
const std::string kCountersJson =
    R"({"fences_enumerated":1000,"dags_generated":1001,"dags_pruned":1002,)"
    R"("factorization_attempts":1003,"factorization_prunes":1004,)"
    R"("dont_care_expansions":1005,"factor_memo_hits":1006,)"
    R"("factor_memo_misses":1007,"allsat_propagations":1008,)"
    R"("allsat_merges":1009,"sat_decisions":1010,"sat_conflicts":1011,)"
    R"("sat_restarts":1012,"sweep_sim_rounds":1013,"sweep_candidates":1014,)"
    R"("sweep_proofs":1015,"sweep_refutations":1016,)"
    R"("sweep_merged_nodes":1017,"probe_calls":1018,)"
    R"("probe_unsat_levels":1019,"probe_sat_levels":1020,)"
    R"("portfolio_probe_wins":1021,"portfolio_sweep_wins":1022,)"
    R"("kernel_batch_queries":1023,"kernel_batch_screened":1024,)"
    R"("kernel_batch_survivors":1025})";

TEST(StageCounters, TableListsEveryFieldOnce) {
  EXPECT_EQ(stage_counter_fields.size(), 26u);
  EXPECT_EQ(sizeof(stage_counters),
            stage_counter_fields.size() * sizeof(std::uint64_t));
  for (std::size_t i = 0; i < stage_counter_fields.size(); ++i) {
    for (std::size_t j = i + 1; j < stage_counter_fields.size(); ++j) {
      EXPECT_NE(stage_counter_fields[i].member, stage_counter_fields[j].member)
          << stage_counter_fields[i].name << " / "
          << stage_counter_fields[j].name;
    }
  }
}

TEST(StageCounters, ArithmeticCoversEveryField) {
  const stage_counters v = distinct_values();
  stage_counters sum = v;
  sum += v;
  for (const auto& f : stage_counter_fields) {
    EXPECT_EQ(sum.*f.member, 2 * (v.*f.member)) << "+= " << f.name;
  }
  sum -= v;
  for (const auto& f : stage_counter_fields) {
    EXPECT_EQ(sum.*f.member, v.*f.member) << "-= " << f.name;
  }
  // 1000 + 1001 + ... + 1025.
  EXPECT_EQ(v.total(), 26u * 1000u + 25u * 26u / 2u);
  const stage_counters zero = v - v;
  EXPECT_EQ(zero.total(), 0u);
}

TEST(StageCounters, AtomicMirrorRoundTripsEveryField) {
  const stage_counters v = distinct_values();
  stpes::service::atomic_stage_counters mirror;
  mirror.add(v);
  mirror.add(v);
  const stage_counters back = mirror.load();
  for (const auto& f : stage_counter_fields) {
    EXPECT_EQ(back.*f.member, 2 * (v.*f.member)) << f.name;
  }
}

TEST(StageCounters, BenchJsonKeepsKeysAndOrder) {
  EXPECT_EQ(stpes::bench::counters_json(distinct_values()), kCountersJson);
}

TEST(StageCounters, StatsJsonKeepsKeysAndOrder) {
  stpes::service::metrics_snapshot s;
  s.stage = distinct_values();
  EXPECT_EQ(s.to_json(),
            R"({"requests":0,"cache_hits":0,"cache_misses":0,)"
            R"("inflight_waits":0,"bypassed":0,"synth_runs":0,)"
            R"("synth_failures":0,"cancelled":0,"stage_counters":)" +
                kCountersJson +
                R"(,"synth_latency_count":0,"synth_latency_total_s":0,)"
                R"("synth_latency_buckets":[]})");
}

TEST(StageCounters, StatsTextHasOneLinePerCounter) {
  stpes::service::metrics_snapshot s;
  s.stage = distinct_values();
  const std::string text = s.to_text();
  EXPECT_NE(text.find("\nfences_enumerated 1000\n"), std::string::npos)
      << text;
  EXPECT_NE(text.find("\nsat_restarts      1012\n"), std::string::npos)
      << text;
  EXPECT_NE(text.find("\nkernel_batch_survivors 1025\n"), std::string::npos)
      << text;
}

}  // namespace
