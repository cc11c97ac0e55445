/// \file regen.cpp
/// \brief Regenerates the reference files: every optimum and chain count
///        from the STP engine, every optimum cross-checked against BMS.

#include <atomic>
#include <cstdio>
#include <mutex>
#include <thread>

#include "core/exact_synthesis.hpp"
#include "engine_layers.hpp"
#include "tt/npn.hpp"
#include "workload/collections.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using stpes::tt::truth_table;

constexpr double kRegenDeadlineSeconds = 300.0;
constexpr unsigned kRegenThreads = 3;

struct regen_row {
  truth_table function;
  bool in_range = false;  ///< optimum within the probed gate cap
  ref_entry ref;
  double stp_s = 0.0;
  double bms_s = 0.0;
  std::string error;
};

stpes::synth::result run_engine(const truth_table& f,
                                stpes::core::engine engine,
                                unsigned max_gates) {
  stpes::core::run_context rc{kRegenDeadlineSeconds};
  stpes::synth::spec s;
  s.function = f;
  s.ctx = &rc;
  s.max_gates = max_gates;
  return stpes::core::exact_synthesis(s, engine);
}

/// Solves `functions` on `kRegenThreads` workers.  Functions whose
/// optimum exceeds `max_gates` come back with in_range == false.
std::vector<regen_row> solve_rows(const std::vector<truth_table>& functions,
                                  unsigned max_gates, const char* label) {
  std::vector<regen_row> rows(functions.size());
  std::atomic<std::size_t> next{0};
  std::mutex log_mutex;
  const auto worker = [&] {
    for (std::size_t i = next++; i < rows.size(); i = next++) {
      auto& row = rows[i];
      row.function = functions[i];
      const auto capped =
          run_engine(row.function, stpes::core::engine::stp, max_gates);
      if (capped.outcome == stpes::synth::status::failure) {
        continue;  // no chain within the cap
      }
      row.in_range = true;
      // The answer recorded is the benchmark's own op, uncapped.
      double t = now_s();
      const auto r = solve_all_optima(row.function);
      row.stp_s = now_s() - t;
      if (!r.ok() || !r.enumeration_complete) {
        row.error = "STP did not enumerate completely";
        continue;
      }
      row.ref = {row.function, r.optimum_gates, r.chains.size(),
                 r.counters.factorization_attempts +
                     r.counters.dont_care_expansions +
                     r.counters.sat_conflicts};
      t = now_s();
      const auto bms =
          run_engine(row.function, stpes::core::engine::bms, 24);
      row.bms_s = now_s() - t;
      if (!bms.ok() || bms.optimum_gates != r.optimum_gates) {
        row.error = "BMS optimum " + std::to_string(bms.optimum_gates) +
                    " (" + stpes::synth::to_string(bms.outcome) +
                    ") disagrees with STP " + std::to_string(r.optimum_gates);
      }
      std::lock_guard<std::mutex> lock{log_mutex};
      std::fprintf(stderr, "%s %s gates %u chains %zu effort %llu stp %.3f s bms %.3f s%s%s\n",
                   label, row.function.to_hex().c_str(), row.ref.gates,
                   row.ref.chains,
                   static_cast<unsigned long long>(row.ref.effort), row.stp_s,
                   row.bms_s, row.error.empty() ? "" : " ERROR ",
                   row.error.c_str());
    }
  };
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kRegenThreads; ++t) {
    threads.emplace_back(worker);
  }
  for (auto& t : threads) {
    t.join();
  }
  return rows;
}

}  // namespace

bool regenerate_reference(const std::string& ref_dir) {
  const std::string columns =
      "# columns: num_vars hex optimum_gates num_optimum_chains effort\n"
      "# optimum and chains: core::exact_synthesis, STP engine, default\n"
      "# options; every optimum cross-checked against the BMS engine.\n"
      "# effort: factorization_attempts + dont_care_expansions +\n"
      "# sat_conflicts of that solve (orders the pool into cost bands).\n"
      "# Regenerate with: python3 perfbench/regen_reference.py\n";
  bool ok = true;
  const auto check = [&](const std::vector<regen_row>& rows) {
    for (const auto& r : rows) {
      if (!r.error.empty()) {
        std::fprintf(stderr, "reference mismatch %s: %s\n",
                     r.function.to_hex().c_str(), r.error.c_str());
        ok = false;
      }
    }
  };

  // NPN4: classify every class with a 5-gate cap; the 6-7 gate classes
  // stay out of both pools.
  const auto npn4 = solve_rows(stpes::workload::npn4_classes(), 5, "npn4");
  check(npn4);
  std::vector<ref_entry> enum_pool, cut_pool;
  for (const auto& r : npn4) {
    if (!r.in_range) {
      continue;
    }
    if (r.ref.gates >= 2 && r.ref.gates <= 5) {
      enum_pool.push_back(r.ref);
    }
    if (r.ref.gates <= 4) {
      if (stpes::tt::exact_npn_canonize(r.function).canonical != r.function) {
        std::fprintf(stderr, "class %s is not exact-canonical\n",
                     r.function.to_hex().c_str());
        ok = false;
      }
      cut_pool.push_back(r.ref);
    }
  }
  const auto fdsd = solve_rows(stpes::workload::fdsd_functions(6, 200, 1),
                               24, "fdsd6");
  check(fdsd);
  std::vector<ref_entry> fdsd_pool;
  for (const auto& r : fdsd) {
    fdsd_pool.push_back(r.ref);
  }
  std::fprintf(stderr, "pools: npn4_enum %zu, cuts_serve %zu, fdsd6_enum %zu\n",
               enum_pool.size(), cut_pool.size(), fdsd_pool.size());
  if (!ok) {
    return false;
  }
  save_reference(ref_dir + "/npn4_enum.ref",
                 "# npn4_enum: the NPN4 classes with a 2-5 gate optimum "
                 "(workload::npn4_classes order).\n" + columns,
                 enum_pool);
  save_reference(ref_dir + "/cuts_serve.ref",
                 "# cuts_serve: the NPN4 classes with a 0-4 gate optimum; "
                 "line order is the Zipf rank order.\n" + columns,
                 cut_pool);
  save_reference(ref_dir + "/fdsd6_enum.ref",
                 "# fdsd6_enum: workload::fdsd_functions(6, 200, 1), in "
                 "order.\n" + columns,
                 fdsd_pool);
  return true;
}

}  // namespace perfbench
