#include "table1_common.hpp"

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>

#include "core/exact_synthesis.hpp"
#include "util/stopwatch.hpp"
#include "util/table_printer.hpp"

namespace stpes::bench {

namespace {

std::optional<std::string> flag_value(const std::string& arg,
                                      const std::string& name) {
  const std::string prefix = "--" + name + "=";
  if (arg.rfind(prefix, 0) == 0) {
    return arg.substr(prefix.size());
  }
  return std::nullopt;
}

}  // namespace

table1_options parse_options(int argc, char** argv,
                             std::size_t default_count,
                             double default_timeout) {
  table1_options options;
  options.count = default_count;
  options.timeout = default_timeout;
  if (const char* env = std::getenv("STP_BENCH_FULL");
      env != nullptr && std::string{env} == "1") {
    options.full = true;
  }
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--full") {
      options.full = true;
    } else if (auto v = flag_value(arg, "count")) {
      options.count = std::stoul(*v);
    } else if (auto v = flag_value(arg, "timeout")) {
      options.timeout = std::stod(*v);
    } else if (auto v = flag_value(arg, "seed")) {
      options.seed = std::stoull(*v);
    } else if (auto v = flag_value(arg, "threads")) {
      options.threads = static_cast<unsigned>(std::stoul(*v));
    } else if (arg == "--json" && i + 1 < argc) {
      options.json_path = argv[++i];
    } else if (auto v = flag_value(arg, "json")) {
      options.json_path = *v;
    } else if (auto v = flag_value(arg, "engines")) {
      options.engines.clear();
      std::size_t start = 0;
      while (start <= v->size()) {
        const auto comma = v->find(',', start);
        options.engines.push_back(
            v->substr(start, comma == std::string::npos ? std::string::npos
                                                        : comma - start));
        if (comma == std::string::npos) {
          break;
        }
        start = comma + 1;
      }
    } else {
      std::cerr << "usage: " << argv[0]
                << " [--full] [--count=N] [--timeout=S] [--seed=S]"
                   " [--threads=N] [--engines=stp,bms,fen,cegar]"
                   " [--json PATH]\n";
      std::exit(2);
    }
  }
  if (options.full) {
    options.count = 0;
    options.timeout = 180.0;
  }
  return options;
}

int run_table1(const std::string& collection_name,
               const std::vector<tt::truth_table>& functions,
               const table1_options& options) {
  std::vector<std::vector<tt::truth_table>> instances;
  instances.reserve(functions.size());
  for (const auto& f : functions) {
    instances.push_back({f});
  }
  return run_table1(collection_name, instances, options);
}

int run_table1(const std::string& collection_name,
               const std::vector<std::vector<tt::truth_table>>& instances,
               const table1_options& options) {
  std::vector<std::vector<tt::truth_table>> selected;
  if (options.count == 0 || options.count >= instances.size()) {
    selected = instances;
  } else {
    // Deterministic spread across the collection (covers easy and hard).
    const double stride =
        static_cast<double>(instances.size()) /
        static_cast<double>(options.count);
    for (std::size_t i = 0; i < options.count; ++i) {
      selected.push_back(
          instances[static_cast<std::size_t>(i * stride)]);
    }
  }

  std::cout << "== Table I / " << collection_name << " ==  instances="
            << selected.size() << " timeout=" << options.timeout
            << "s seed=" << options.seed << " threads="
            << (options.threads == 0 ? 1u : options.threads) << "\n";

  util::table_printer table;
  table.set_header({"engine", "mean(s)", "#t/o", "#ok", "#part",
                    "mean/sol(s)", "avg#sol"});

  // optimum sizes per instance for cross-checking.
  std::vector<std::vector<unsigned>> optima(selected.size());
  int disagreements = 0;

  struct engine_stats {
    std::string name;
    std::size_t solved = 0;
    /// Solved with a budget-truncated chain enumeration
    /// (`result::enumeration_complete == false`): the optimum size is
    /// proven but the run spent the whole budget, so its seconds and
    /// effort counters are deadline-shaped noise.
    std::size_t solved_partial = 0;
    std::size_t timeouts = 0;
    double wall_seconds = 0.0;  ///< wall clock over the whole sweep
    /// Engine-reported time over *completely enumerated* solves only;
    /// a partial solve's time is identically the budget.
    double total_seconds = 0.0;
    std::size_t total_gates = 0;
    double total_solutions = 0.0;
    /// Per-stage effort summed over *completely enumerated* solved
    /// instances only: such a run's search is deterministic in the
    /// function, so these aggregates are machine-independent and
    /// regression-gateable (a timed-out or deadline-cut run's counters
    /// depend on where the wall clock cut it off).
    core::stage_counters counters;
  };
  std::vector<engine_stats> all_stats;

  for (const auto& engine_name : options.engines) {
    const auto which = core::engine_from_string(engine_name);
    util::stopwatch engine_timer;
    double total_seconds = 0.0;
    std::size_t solved = 0;
    std::size_t solved_partial = 0;
    std::size_t timeouts = 0;
    std::size_t total_gates = 0;
    double total_solutions = 0.0;
    double total_per_solution = 0.0;
    core::stage_counters counters;
    for (std::size_t i = 0; i < selected.size(); ++i) {
      core::run_context run_ctx{options.timeout};
      synth::spec spec;
      // A 1-element instance takes the historical single-output spec
      // path, keeping those rows bit-identical to the scalar overload.
      if (selected[i].size() == 1) {
        spec.function = selected[i].front();
      } else {
        spec.functions = selected[i];
      }
      spec.ctx = &run_ctx;
      spec.num_threads = options.threads;
      const auto r = core::exact_synthesis(spec, which);
      if (r.ok()) {
        ++solved;
        total_gates += r.optimum_gates;
        optima[i].push_back(r.optimum_gates);
        if (r.enumeration_complete) {
          total_seconds += r.seconds;
          total_solutions += static_cast<double>(r.chains.size());
          total_per_solution +=
              r.seconds / static_cast<double>(r.chains.size());
          counters += r.counters;
        } else {
          ++solved_partial;
        }
      } else {
        ++timeouts;
      }
    }
    const std::size_t complete = solved - solved_partial;
    all_stats.push_back(engine_stats{engine_name, solved, solved_partial,
                                     timeouts,
                                     engine_timer.elapsed_seconds(),
                                     total_seconds, total_gates,
                                     total_solutions, counters});
    const double mean =
        complete > 0 ? total_seconds / static_cast<double>(complete) : 0.0;
    std::vector<std::string> row{
        core::to_string(which), util::table_printer::fmt(mean),
        std::to_string(timeouts), std::to_string(solved),
        std::to_string(solved_partial)};
    if (which == core::engine::stp) {
      row.push_back(util::table_printer::fmt(
          complete > 0 ? total_per_solution / static_cast<double>(complete)
                       : 0.0));
      row.push_back(util::table_printer::fmt(
          complete > 0 ? total_solutions / static_cast<double>(complete)
                       : 0.0,
          1));
    } else {
      row.push_back("-");
      row.push_back("-");
    }
    table.add_row(std::move(row));
  }
  table.print(std::cout);

  for (const auto& sizes : optima) {
    for (std::size_t j = 1; j < sizes.size(); ++j) {
      if (sizes[j] != sizes[0]) {
        ++disagreements;
      }
    }
  }
  if (disagreements > 0) {
    std::cout << "WARNING: " << disagreements
              << " optimum-size disagreements between engines!\n";
  }
  std::cout << "\n";

  if (!options.json_path.empty()) {
    std::ofstream json{options.json_path};
    if (!json) {
      std::cerr << "cannot write " << options.json_path << "\n";
      return disagreements + 1;
    }
    json << "{\"collection\":\"" << collection_name << "\""
         << ",\"instances\":" << selected.size()
         << ",\"timeout_s\":" << options.timeout
         << ",\"seed\":" << options.seed
         << ",\"threads\":" << (options.threads == 0 ? 1u : options.threads)
         << ",\"disagreements\":" << disagreements << ",\"engines\":[";
    for (std::size_t i = 0; i < all_stats.size(); ++i) {
      const auto& s = all_stats[i];
      const auto solved = static_cast<double>(s.solved);
      const auto complete =
          static_cast<double>(s.solved - s.solved_partial);
      if (i > 0) {
        json << ",";
      }
      // `mean_seconds` and `avg_solutions` average over the *completely
      // enumerated* solves only: a partial solve's time is identically
      // the budget and its solution count is deadline-shaped.
      json << "{\"engine\":\"" << s.name << "\""
           << ",\"solved\":" << s.solved
           << ",\"solved_partial\":" << s.solved_partial
           << ",\"timeouts\":" << s.timeouts
           << ",\"wall_seconds\":" << s.wall_seconds
           << ",\"mean_seconds\":"
           << (complete > 0 ? s.total_seconds / complete : 0.0)
           << ",\"total_gates\":" << s.total_gates
           << ",\"mean_gates\":"
           << (s.solved > 0 ? static_cast<double>(s.total_gates) / solved
                            : 0.0)
           << ",\"avg_solutions\":"
           << (complete > 0 ? s.total_solutions / complete : 0.0)
           << ",\"counters\":" << counters_json(s.counters) << "}";
    }
    json << "]}\n";
  }
  return disagreements;
}

}  // namespace stpes::bench
