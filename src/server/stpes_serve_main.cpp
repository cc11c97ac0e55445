/// \file stpes_serve_main.cpp
/// \brief The `stpes-serve` daemon binary.
///
/// Long-lived front-end over `service::batch_synthesizer`: external tools
/// (rewriting flows, mapper loops, SAT sweepers) connect over a Unix
/// socket or TCP, speak the line protocol, and share one warm NPN cache
/// without linking the library.
///
///     stpes-serve --socket=/tmp/stpes.sock [--engine=stp] [--threads=N]
///                 [--timeout=S] [--max-timeout=S] [--max-vars=N]
///                 [--drain-grace=S] [--idle-timeout=S] [--warm=FILE]
///                 [--persist=FILE] [--max-pending=N] [--quota=N]
///                 [--retry-ms=MS]
///     stpes-serve --listen=HOST:PORT ...   # TCP ("*:PORT" = any iface;
///                                          # port 0 = ephemeral, printed)
///     stpes-serve --pipe ...    # one session over stdin/stdout (CI)
///
/// Overload protection: `--max-pending` bounds the admission queue (excess
/// requests get `BUSY retry-after <--retry-ms>`), `--quota` caps synthesis
/// requests per client session, and `--idle-timeout` sheds sessions whose
/// peer goes silent (`ERR idle-timeout`) — including half-open TCP
/// connections that never send a byte.  In chaos builds the
/// `STPES_FAILPOINTS` environment variable arms fault-injection points at
/// startup (grammar in `util/failpoint.hpp`).
///
/// SIGTERM/SIGINT drain gracefully: in-flight syntheses get
/// `--drain-grace` seconds to finish, anything still running is then
/// cooperatively cancelled, sessions close, the cache is persisted when
/// `--persist` is set, and the process exits 0.  A client `SHUTDOWN` does
/// the same.  All logging goes to stderr; in pipe mode stdout belongs to
/// the protocol.

#include <cstdlib>
#include <iostream>
#include <string>

#include "server/daemon.hpp"
#include "server/server.hpp"

namespace {

struct cli_options {
  stpes::server::daemon_transport transport;
  std::string engine = "stp";
  unsigned threads = 0;
  double timeout = 5.0;
  double max_timeout = 0.0;
  double drain_grace = 5.0;
  double idle_timeout = 0.0;
  unsigned max_vars = 8;
  std::size_t max_pending = 0;
  std::uint64_t quota = 0;
  unsigned retry_ms = 100;
  std::string warm_path;
  std::string persist_path;
};

[[noreturn]] void usage(const char* argv0, const std::string& reason = "") {
  if (!reason.empty()) {
    std::cerr << argv0 << ": " << reason << "\n";
  }
  std::cerr << "usage: " << argv0
            << " (--socket=PATH | --listen=HOST:PORT | --pipe)"
               " [--engine=stp|bms|fen|cegar]"
               " [--threads=N] [--timeout=S] [--max-timeout=S]"
               " [--max-vars=N] [--drain-grace=S] [--idle-timeout=S]"
               " [--warm=FILE] [--persist=FILE] [--max-pending=N]"
               " [--quota=N] [--retry-ms=MS]\n";
  std::exit(2);
}

cli_options parse_cli(int argc, char** argv) {
  using namespace stpes::server;
  cli_options opts;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (opts.transport.consume(arg)) {
        continue;
      }
      if (auto v = flag_value(arg, "engine"); !v.empty()) {
        opts.engine = v;
      } else if (auto v = flag_value(arg, "threads"); !v.empty()) {
        opts.threads = parse_unsigned("threads", v);
      } else if (auto v = flag_value(arg, "timeout"); !v.empty()) {
        opts.timeout = parse_seconds("timeout", v);
      } else if (auto v = flag_value(arg, "max-timeout"); !v.empty()) {
        opts.max_timeout = parse_seconds("max-timeout", v);
      } else if (auto v = flag_value(arg, "drain-grace"); !v.empty()) {
        opts.drain_grace = parse_seconds("drain-grace", v);
      } else if (auto v = flag_value(arg, "idle-timeout"); !v.empty()) {
        opts.idle_timeout = parse_seconds("idle-timeout", v);
      } else if (auto v = flag_value(arg, "max-vars"); !v.empty()) {
        opts.max_vars = parse_unsigned("max-vars", v);
      } else if (auto v = flag_value(arg, "max-pending"); !v.empty()) {
        opts.max_pending = parse_u64("max-pending", v);
      } else if (auto v = flag_value(arg, "quota"); !v.empty()) {
        opts.quota = parse_u64("quota", v);
      } else if (auto v = flag_value(arg, "retry-ms"); !v.empty()) {
        opts.retry_ms = parse_unsigned("retry-ms", v);
      } else if (auto v = flag_value(arg, "warm"); !v.empty()) {
        opts.warm_path = v;
      } else if (auto v = flag_value(arg, "persist"); !v.empty()) {
        opts.persist_path = v;
      } else {
        throw usage_error{"unknown argument '" + arg + "'"};
      }
    }
    opts.transport.check();
  } catch (const usage_error& e) {
    usage(argv[0], e.what());
  }
  return opts;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace stpes;

  const auto cli = parse_cli(argc, argv);

  server::server_options opts;
  try {
    opts.default_engine = core::engine_from_string(cli.engine);
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return 2;
  }
  opts.default_timeout_seconds = cli.timeout;
  opts.max_timeout_seconds = cli.max_timeout;
  opts.num_threads = cli.threads;
  opts.drain_grace_seconds = cli.drain_grace;
  opts.idle_timeout_seconds = cli.idle_timeout;
  opts.limits.max_vars = cli.max_vars;
  opts.max_pending_jobs = cli.max_pending;
  opts.max_session_requests = cli.quota;
  opts.overload_retry_ms = cli.retry_ms;

  server::arm_failpoints_from_env("stpes-serve");

  server::synthesis_server server{opts};

  if (!cli.warm_path.empty()) {
    try {
      const auto report = server.synthesizer().warm_cache_verbose(
          cli.warm_path);
      std::cerr << "stpes-serve: warmed " << report.loaded
                << " cache entries from " << cli.warm_path << " ("
                << report.skipped() << " skipped)\n";
    } catch (const std::exception& e) {
      std::cerr << "stpes-serve: corrupt cache file " << cli.warm_path
                << ": " << e.what() << "\n";
      return 1;
    }
  }

  try {
    server::serve_daemon(
        server, cli.transport, "stpes-serve",
        "engine=" + cli.engine + ", " +
            std::to_string(server.synthesizer().num_threads()) + " threads");
  } catch (const std::exception& e) {
    std::cerr << "stpes-serve: " << e.what() << "\n";
    return 1;
  }

  if (!cli.persist_path.empty()) {
    try {
      const auto written = server.synthesizer().persist_cache(
          cli.persist_path);
      std::cerr << "stpes-serve: persisted " << written
                << " cache entries to " << cli.persist_path << "\n";
    } catch (const std::exception& e) {
      std::cerr << "stpes-serve: persist failed: " << e.what() << "\n";
      return 1;
    }
  }
  std::cerr << "stpes-serve: drained, exiting\n";
  return 0;
}
