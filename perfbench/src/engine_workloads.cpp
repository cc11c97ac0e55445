/// \file engine_workloads.cpp
/// \brief npn4_enum and fdsd6_enum: one cold all-optima solve per op.

#include <cstdio>
#include <numeric>
#include <set>
#include <stdexcept>

#include "allsat/circuit_allsat.hpp"
#include "core/exact_synthesis.hpp"
#include "engine_layers.hpp"
#include "fence/dag.hpp"
#include "reference.hpp"
#include "synth/lower_bound.hpp"
#include "tt/isf.hpp"
#include "workload/collections.hpp"
#include "workloads.hpp"

namespace perfbench {

using stpes::core::run_context;
using stpes::synth::result;
using stpes::tt::truth_table;

result solve_all_optima(const truth_table& f) {
  run_context rc{kOpDeadlineSeconds};
  stpes::synth::spec s;
  s.function = f;
  s.ctx = &rc;
  return stpes::core::exact_synthesis(s, stpes::core::engine::stp);
}

void record(const truth_table& f, const result& r, const ref_entry& ref,
            report& out) {
  ++out.attempted;
  if (!r.ok() || !r.enumeration_complete) {
    out.fail(f.to_hex() + ": " + (r.ok() ? "incomplete enumeration"
                                         : stpes::synth::to_string(r.outcome)));
  } else if (const auto err =
                 check_chains(f, r.optimum_gates, r.chains, ref);
             !err.empty()) {
    out.incorrect(err);
  }
}

result traced_solve(const truth_table& f, tracer& trace, std::uint64_t op,
                    engine_layers& layers) {
  scoped_span op_span{trace, "op", op};
  const std::uint32_t parent = op_span.id();
  result r;
  double solve_s = 0.0;
  {
    scoped_span s{trace, "solve", op, parent};
    r = solve_all_optima(f);
    solve_s = s.close();
  }
  double replay_s = 0.0;
  if (r.ok() && r.optimum_gates > 0) {
    // Replay the engine's level loop from outside: the probe at every
    // visited gate count, and DAG generation wherever the probe did not
    // refute the level (the engine sweeps exactly those levels).
    const auto plan = stpes::synth::analyze_outputs({f});
    if (plan.distinct.size() == 1) {
      std::vector<unsigned> old_of_new;
      const auto g =
          stpes::synth::shrink_for_synthesis(plan.distinct.front(), old_of_new);
      const auto target = stpes::tt::isf::from_function(g);
      const stpes::synth::lower_bound_prober prober;
      const unsigned first = std::max(1u, g.num_vars() - 1);
      const unsigned last = r.optimum_gates - (plan.needs_constant ? 1 : 0);
      for (unsigned k = first; k <= last; ++k) {
        run_context rc{kOpDeadlineSeconds};
        bool refuted = false;
        {
          scoped_span s{trace, "probe", op, parent};
          refuted = prober.probe(target, k, &rc).verdict ==
                    stpes::synth::probe_verdict::infeasible;
          const double t = s.close();
          layers.probe_s += t;
          replay_s += t;
        }
        if (!refuted) {
          scoped_span s{trace, "dag_gen", op, parent};
          layers.dags_replayed += stpes::fence::generate_dags_for_size(k).size();
          const double t = s.close();
          layers.dag_s += t;
          replay_s += t;
        }
      }
    }
    for (const auto& c : r.chains) {
      scoped_span s{trace, "verify", op, parent};
      if (!stpes::allsat::verify_chain(c, f)) {
        layers.verify_rejects += 1;
      }
      const double t = s.close();
      layers.verify_s += t;
      replay_s += t;
    }
  }
  layers.solve_s += solve_s;
  layers.sweep_self_s += solve_s - replay_s;
  layers.counters += r.counters;
  ++layers.ops;
  return r;
}

void add_engine_layer_metrics(const engine_layers& l, report& out) {
  const double ops = static_cast<double>(std::max<std::size_t>(1, l.ops));
  const auto& c = l.counters;
  const auto ratio = [](std::uint64_t a, std::uint64_t b) {
    return b == 0 ? 0.0 : static_cast<double>(a) / static_cast<double>(b);
  };
  out.add("synth.sweep_self_s", l.sweep_self_s / ops, "s");
  out.add("synth.factorization_attempts",
          static_cast<double>(c.factorization_attempts), "count");
  out.add("synth.dont_care_expansions",
          static_cast<double>(c.dont_care_expansions), "count");
  out.add("synth.memo_hit_ratio",
          ratio(c.factor_memo_hits, c.factor_memo_hits + c.factor_memo_misses),
          "ratio");
  out.add("synth.screen_reject_ratio",
          ratio(c.kernel_batch_screened, c.kernel_batch_queries), "ratio");
  out.add("synth.probe_s", l.probe_s / ops, "s");
  out.add("synth.probe_calls", static_cast<double>(c.probe_calls), "count");
  out.add("synth.probe_unsat_levels",
          static_cast<double>(c.probe_unsat_levels), "count");
  out.add("sat.conflicts", static_cast<double>(c.sat_conflicts), "count");
  out.add("sat.decisions", static_cast<double>(c.sat_decisions), "count");
  out.add("allsat.verify_s", l.verify_s / ops, "s");
  out.add("allsat.propagations", static_cast<double>(c.allsat_propagations),
          "count");
  out.add("fence.dag_gen_s", l.dag_s / ops, "s");
  out.add("fence.dags", static_cast<double>(c.dags_generated), "count");
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "engine layers over %zu traced solves: solve %.4f s, probe "
                "%.4f s, dag %.4f s, verify %.4f s, %llu DAGs replayed",
                l.ops, l.solve_s, l.probe_s, l.dag_s, l.verify_s,
                static_cast<unsigned long long>(l.dags_replayed));
  out.notes.emplace_back(buf);
  if (l.verify_rejects != 0) {
    out.incorrect(std::to_string(l.verify_rejects) +
                  " returned chains failed circuit-AllSAT verification");
  }
}

namespace {

struct engine_pool {
  std::vector<ref_entry> entries;
  std::vector<std::vector<std::size_t>> rounds;
};

/// Builds the pool from the generator and checks it against the
/// reference: the generator fixes *which* functions are asked, the
/// reference only supplies answers and cost keys.
std::vector<ref_entry> load_engine_pool(const run_options& opts) {
  auto entries =
      load_reference(opts.ref_dir + "/" + opts.workload + ".ref");
  if (opts.workload == "npn4_enum") {
    std::set<truth_table> classes;
    for (const auto& f : stpes::workload::npn4_classes()) {
      classes.insert(f);
    }
    for (const auto& e : entries) {
      if (e.function.num_vars() != 4 || classes.count(e.function) == 0 ||
          e.gates < 2 || e.gates > 5) {
        throw std::runtime_error{"npn4_enum reference entry " +
                                 e.function.to_hex() +
                                 " is not an NPN4 class with a 2-5 gate "
                                 "optimum"};
      }
    }
    if (entries.size() != 133) {
      throw std::runtime_error{"npn4_enum reference must hold 133 classes"};
    }
  } else {
    const auto pool = stpes::workload::fdsd_functions(6, 200, 1);
    if (entries.size() != pool.size()) {
      throw std::runtime_error{"fdsd6_enum reference must hold 200 entries"};
    }
    for (std::size_t i = 0; i < pool.size(); ++i) {
      if (entries[i].function != pool[i]) {
        throw std::runtime_error{"fdsd6_enum reference entry " +
                                 std::to_string(i) +
                                 " differs from the generated pool"};
      }
    }
  }
  return entries;
}

/// Cost bands per workload: about seven entries per band, so one round
/// takes a seventh of a pass.
std::size_t strata_for(std::size_t pool_size) {
  return std::max<std::size_t>(1, pool_size / 7);
}

/// Whole rounds a run of `--seconds` asks, taken cyclically from the
/// pool's rounds: its op list is fixed by (seed, --seconds), never by how
/// fast the machine happened to be, so the work mix and the rank of every
/// quantile repeat exactly.  Sized by the mean op time on the development
/// host (4 vCPUs) and the mean round size; `cost_factor` is the cost of
/// one op relative to a plain solve.
std::size_t rounds_for(const run_options& opts, const engine_pool& pool,
                       double cost_factor) {
  const double op_s = opts.workload == "npn4_enum" ? 0.26 : 0.07;
  const double round_ops = static_cast<double>(pool.entries.size()) /
                           static_cast<double>(pool.rounds.size());
  return std::max<long>(
      1, std::lround(opts.seconds / (op_s * round_ops * cost_factor)));
}

engine_pool set_up(const run_options& opts, report& out) {
  engine_pool p;
  p.entries = load_engine_pool(opts);
  std::vector<double> cost;
  cost.reserve(p.entries.size());
  for (const auto& e : p.entries) {
    cost.push_back(static_cast<double>(e.effort));
  }
  p.rounds = stratified_rounds(cost, strata_for(p.entries.size()), opts.seed);
  // Warm-up: the entries at fixed cost quantiles, the same in every run
  // whatever the seed.
  std::vector<std::size_t> by_cost(p.entries.size());
  std::iota(by_cost.begin(), by_cost.end(), 0);
  std::stable_sort(by_cost.begin(), by_cost.end(),
                   [&](std::size_t a, std::size_t b) { return cost[a] < cost[b]; });
  const std::size_t warm = opts.workload == "npn4_enum" ? 1 : 3;
  for (std::size_t q = 1; q <= warm; ++q) {
    const auto& e = p.entries[by_cost[by_cost.size() * q / (warm + 1)]];
    record(e.function, solve_all_optima(e.function), e, out);
  }
  return p;
}

}  // namespace

report run_engine_workload(const run_options& opts, tracer& trace) {
  report out;
  engine_pool pool;
  const auto timed_set_up = [&] {
    const double t0 = now_s();
    pool = set_up(opts, out);
    return now_s() - t0;
  };
  std::vector<double> setup_times{timed_set_up()};
  const auto round_of = [&](std::size_t r) -> const std::vector<std::size_t>& {
    return pool.rounds[r % pool.rounds.size()];
  };

  if (!opts.trace) {
    const std::size_t rounds = rounds_for(opts, pool, 1.0);
    std::vector<double> latency;
    const double t0 = now_s();
    std::size_t r = 0;
    for (; r < rounds; ++r) {
      // On a much slower machine, stop at a round boundary rather than
      // overrun the run's time budget.
      if (now_s() - t0 > 1.5 * opts.seconds) {
        break;
      }
      for (const std::size_t i : round_of(r)) {
        const auto& e = pool.entries[i];
        const double s = now_s();
        const auto res = solve_all_optima(e.function);
        latency.push_back(now_s() - s);
        record(e.function, res, e, out);
      }
    }
    const double elapsed = now_s() - t0;
    // Peak memory of one set-up plus the timed phase; the remaining
    // set-ups only add samples to the set-up median.
    const double rss = peak_rss_mb();
    for (int rep = 1; rep < kSetupRepeats; ++rep) {
      setup_times.push_back(timed_set_up());
    }
    out.add("setup_s", median(setup_times), "s");
    out.add("throughput_ops_s", static_cast<double>(latency.size()) / elapsed,
            "1/s");
    out.add("latency_s.p50", quantile(latency, 0.50), "s");
    out.add("latency_s.p90", quantile(latency, 0.90), "s");
    out.add("latency_s.p99", quantile(latency, 0.99), "s");
    out.add("peak_rss_mb", rss, "MB");
    out.notes.push_back("latency samples: " + std::to_string(latency.size()) +
                        " ops in " + std::to_string(r) + " rounds over " +
                        std::to_string(elapsed) + " s");
    return out;
  }

  // Traced run: each op is solved once untraced and once traced with the
  // layer replays (about 2.5 plain solves), so it asks fewer rounds.
  const std::size_t rounds = rounds_for(opts, pool, 2.5);
  engine_layers layers;
  double untraced_s = 0.0;
  double traced_s = 0.0;
  std::size_t ops = 0;
  for (std::size_t r = 0; r < rounds; ++r) {
    for (const std::size_t i : round_of(r)) {
      const auto& e = pool.entries[i];
      double s = now_s();
      (void)solve_all_optima(e.function);
      untraced_s += now_s() - s;
      s = now_s();
      const auto res = traced_solve(e.function, trace, ops++, layers);
      traced_s += now_s() - s;
      record(e.function, res, e, out);
    }
  }
  add_engine_layer_metrics(layers, out);
  measure_serving_layers(opts, 400, trace, out);
  out.add("trace.overhead_ratio", untraced_s / traced_s, "ratio");
  out.notes.push_back("traced ops: " + std::to_string(ops));
  return out;
}

}  // namespace perfbench
