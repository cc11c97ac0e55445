/// \file stpes_route_main.cpp
/// \brief The `stpes-route` binary: a consistent-hash router front-end.
///
/// Sits in front of N `stpes-serve` daemons and speaks the same line
/// protocol to clients, so pointing an existing client at the router is a
/// config change, not a code change:
///
///     stpes-route --listen=HOST:PORT --backend=host:port
///                 [--backend=unix:/path ...]
///                 [--vnodes=N] [--fail-threshold=N] [--probation-ms=MS]
///                 [--probe-interval-ms=MS] [--backend-attempts=N]
///                 [--connect-timeout-ms=MS] [--io-timeout-ms=MS]
///                 [--retry-hint-ms=MS] [--idle-timeout=S]
///                 [--drain-grace=S]
///     stpes-route --socket=PATH ...   # Unix-socket front, TCP backends
///     stpes-route --pipe ...          # one session on stdin/stdout
///
/// Requests hash by NPN class to a home shard (warm caches stay disjoint),
/// fail over along the ring when shards die, and degrade to
/// `BUSY retry-after <ms>` when every replica is down.  Health is both
/// passive (request-path failures) and active (`--probe-interval-ms`
/// pings).  SIGTERM/SIGINT drain exactly like the daemon.

#include <cstdlib>
#include <iostream>
#include <string>

#include "route/router.hpp"
#include "server/daemon.hpp"

namespace {

struct cli_options {
  stpes::server::daemon_transport transport;
  stpes::route::router_options router;
};

[[noreturn]] void usage(const char* argv0, const std::string& reason = "") {
  if (!reason.empty()) {
    std::cerr << argv0 << ": " << reason << "\n";
  }
  std::cerr << "usage: " << argv0
            << " (--socket=PATH | --listen=HOST:PORT | --pipe)"
               " --backend=SPEC [--backend=SPEC ...]"
               " [--vnodes=N] [--fail-threshold=N] [--probation-ms=MS]"
               " [--probe-interval-ms=MS] [--backend-attempts=N]"
               " [--connect-timeout-ms=MS] [--io-timeout-ms=MS]"
               " [--retry-hint-ms=MS] [--idle-timeout=S] [--drain-grace=S]"
               "\n  SPEC is unix:/path, /path, or host:port\n";
  std::exit(2);
}

cli_options parse_cli(int argc, char** argv) {
  using namespace stpes::server;
  cli_options opts;
  auto& r = opts.router;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (opts.transport.consume(arg)) {
        continue;
      }
      if (auto v = flag_value(arg, "backend"); !v.empty()) {
        r.backends.push_back(v);
      } else if (auto v = flag_value(arg, "vnodes"); !v.empty()) {
        r.vnodes = parse_unsigned("vnodes", v);
      } else if (auto v = flag_value(arg, "fail-threshold"); !v.empty()) {
        r.fail_threshold = parse_unsigned("fail-threshold", v);
      } else if (auto v = flag_value(arg, "probation-ms"); !v.empty()) {
        r.probation_ms = parse_unsigned("probation-ms", v);
      } else if (auto v = flag_value(arg, "probe-interval-ms"); !v.empty()) {
        r.probe_interval_ms = parse_unsigned("probe-interval-ms", v);
      } else if (auto v = flag_value(arg, "backend-attempts"); !v.empty()) {
        r.backend_policy.max_attempts = parse_unsigned("backend-attempts", v);
      } else if (auto v = flag_value(arg, "connect-timeout-ms");
                 !v.empty()) {
        r.backend_policy.connect_timeout_ms =
            parse_unsigned("connect-timeout-ms", v);
      } else if (auto v = flag_value(arg, "io-timeout-ms"); !v.empty()) {
        r.backend_policy.io_timeout_ms = parse_unsigned("io-timeout-ms", v);
      } else if (auto v = flag_value(arg, "retry-hint-ms"); !v.empty()) {
        r.min_retry_hint_ms = parse_unsigned("retry-hint-ms", v);
      } else if (auto v = flag_value(arg, "idle-timeout"); !v.empty()) {
        r.idle_timeout_seconds = parse_seconds("idle-timeout", v);
      } else if (auto v = flag_value(arg, "drain-grace"); !v.empty()) {
        r.drain_grace_seconds = parse_seconds("drain-grace", v);
      } else {
        throw usage_error{"unknown argument '" + arg + "'"};
      }
    }
    opts.transport.check();
    if (r.backends.empty()) {
      throw usage_error{"at least one --backend=SPEC is required"};
    }
    if (r.vnodes == 0) {
      throw usage_error{"--vnodes must be >= 1"};
    }
  } catch (const usage_error& e) {
    usage(argv[0], e.what());
  }
  return opts;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace stpes;

  const auto cli = parse_cli(argc, argv);

  server::arm_failpoints_from_env("stpes-route");

  try {
    route::router router{cli.router};  // validates backend specs eagerly
    router.start_probes();
    server::serve_daemon(
        router, cli.transport, "stpes-route",
        std::to_string(cli.router.backends.size()) + " backend(s)");
    router.stop_probes();
  } catch (const std::exception& e) {
    std::cerr << "stpes-route: " << e.what() << "\n";
    return 1;
  }
  std::cerr << "stpes-route: drained, exiting\n";
  return 0;
}
