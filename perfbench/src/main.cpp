/// \file main.cpp
/// \brief Benchmark program entry point.
///
///   stpes_perfbench --workload <name> --seed <n> --seconds <s> --trace 0|1
///                   [--ref DIR] [--run-root DIR] [--trace-out FILE]
///   stpes_perfbench --regen [--ref DIR]
///
/// Prints notes, a provenance line, and as its last line one JSON object
/// with `correct`, `attempted`, `failed` and `metrics`.  Exits non-zero
/// without a result line when the run cannot be set up.

#include <sched.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <string>
#include <system_error>

#include "tt/kernels/kernels.hpp"
#include "workloads.hpp"

namespace fs = std::filesystem;

namespace {

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
  return out + "\"";
}

int usage(const char* why) {
  std::cerr << "stpes_perfbench: " << why
            << "\nusage: stpes_perfbench --workload npn4_enum|fdsd6_enum|"
               "cuts_serve --seed N --seconds S --trace 0|1 [--ref DIR] "
               "[--run-root DIR] [--trace-out FILE]\n"
               "       stpes_perfbench --regen [--ref DIR]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::run_options opts;
  opts.ref_dir = "perfbench/reference";
  std::string run_root = ".bench_build/runs";
  std::string trace_out;
  bool regen = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--regen") {
      regen = true;
      continue;
    }
    if (i + 1 >= argc) {
      return usage(("missing value for " + arg).c_str());
    }
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        opts.workload = value;
      } else if (arg == "--seed") {
        opts.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        opts.seconds = std::stod(value);
      } else if (arg == "--trace") {
        opts.trace = value == "1";
      } else if (arg == "--ref") {
        opts.ref_dir = value;
      } else if (arg == "--run-root") {
        run_root = value;
      } else if (arg == "--trace-out") {
        trace_out = value;
      } else {
        return usage(("unknown option " + arg).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + arg).c_str());
    }
  }

  // Figures are only comparable on the dispatched kernel tier.
  for (const char* var : {"STPES_FORCE_SCALAR", "STPES_KERNEL_TIER"}) {
    if (std::getenv(var) != nullptr) {
      std::cerr << "stpes_perfbench: " << var
                << " is set; unset it to benchmark the dispatched tier\n";
      return 2;
    }
  }

  if (regen) {
    try {
      return perfbench::regenerate_reference(opts.ref_dir) ? 0 : 1;
    } catch (const std::exception& e) {
      std::cerr << "stpes_perfbench: " << e.what() << "\n";
      return 1;
    }
  }
  if (opts.workload != "npn4_enum" && opts.workload != "fdsd6_enum" &&
      opts.workload != "cuts_serve") {
    return usage("unknown workload");
  }
  if (!(opts.seconds > 0.0)) {
    return usage("--seconds must be positive");
  }

  // One CPU for the whole process (threads inherit the mask): on a shared
  // host every cross-CPU wakeup waits on the host scheduler, which swung
  // the serving round trips' tails several-fold between runs.  On one CPU
  // a handoff is a local context switch.
  const int cpu = ::sched_getcpu();
  if (cpu >= 0) {
    cpu_set_t mask;
    CPU_ZERO(&mask);
    CPU_SET(cpu, &mask);
    (void)::sched_setaffinity(0, sizeof mask, &mask);
  }

  std::ostringstream prov;
  prov << "{\"workload\":" << json_string(opts.workload)
       << ",\"seed\":" << opts.seed
       << ",\"seconds\":" << json_number(opts.seconds)
       << ",\"trace\":" << (opts.trace ? 1 : 0) << ",\"kernel_tier\":"
       << json_string(stpes::tt::kernels::tier_name(
              stpes::tt::kernels::active_tier()))
       << ",\"nproc\":" << ::sysconf(_SC_NPROCESSORS_ONLN)
       << ",\"pinned_cpu\":" << cpu
       << ",\"build_type\":" << json_string(STPES_BENCH_BUILD_TYPE)
       << ",\"kernel_env_overrides\":\"unset\"}";

  // A private directory per run for sockets, so concurrent runs never
  // collide.  Long checkout paths would overflow sun_path, so the run
  // works inside it with relative socket names.
  fs::path run_dir;
  perfbench::report result;
  perfbench::tracer trace;
  int status = 0;
  try {
    opts.ref_dir = fs::absolute(opts.ref_dir).string();
    if (!trace_out.empty()) {
      trace_out = fs::absolute(trace_out).string();
    }
    fs::create_directories(run_root);
    std::string tmpl = (fs::absolute(run_root) / "run-XXXXXX").string();
    if (::mkdtemp(tmpl.data()) == nullptr) {
      throw std::runtime_error{"cannot create a run directory under " +
                               run_root};
    }
    run_dir = tmpl;
    fs::current_path(run_dir);
    result = opts.workload == "cuts_serve"
                 ? perfbench::run_serve_workload(opts, trace)
                 : perfbench::run_engine_workload(opts, trace);
    if (opts.trace && !trace_out.empty()) {
      fs::create_directories(fs::path{trace_out}.parent_path());
      trace.write_json(trace_out, prov.str(), result.metrics);
      result.notes.push_back("trace: " + std::to_string(trace.size()) +
                             " spans written to " + trace_out);
    }
  } catch (const std::exception& e) {
    std::cerr << "stpes_perfbench: " << e.what() << "\n";
    status = 1;
  }
  if (!run_dir.empty()) {
    std::error_code ec;
    fs::current_path(run_dir.parent_path(), ec);
    fs::remove_all(run_dir, ec);
  }
  if (status != 0) {
    return status;
  }
  for (const auto& n : result.notes) {
    std::cout << "# " << n << "\n";
  }
  std::cout << "provenance " << prov.str() << "\n";
  std::cout << "{\"correct\": " << (result.correct ? "true" : "false")
            << ", \"attempted\": " << result.attempted
            << ", \"failed\": " << result.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const auto& m = result.metrics[i];
    std::cout << (i == 0 ? "" : ", ") << json_string(m.name)
              << ": {\"value\": " << json_number(m.value)
              << ", \"unit\": " << json_string(m.unit) << "}";
  }
  std::cout << "}}" << std::endl;
  return 0;
}
