/// \file stpes_client.cpp
/// \brief Command-line client for a running stpes-serve daemon.
///
///     stpes-client --socket=/tmp/stpes.sock synth stp 4 0x8ff8 [timeout]
///     stpes-client --connect=127.0.0.1:9100 synth stp 3 96,e8 [timeout]
///     stpes-client --socket=/tmp/stpes.sock batch < functions.txt
///     stpes-client --connect=host:port stats [json]
///     stpes-client --socket=/tmp/stpes.sock save /tmp/cache.txt
///     stpes-client --socket=/tmp/stpes.sock load /tmp/cache.txt
///     stpes-client --socket=/tmp/stpes.sock ping | shutdown
///
/// `--socket=PATH` dials a Unix socket; `--connect=SPEC` accepts any
/// endpoint form (`host:port`, `unix:/path`, or a bare path) and is how a
/// TCP daemon or a `stpes-route` front is reached.  `batch` reads
/// `<engine> <n> <hex> [timeout]` lines from stdin.  A comma-separated
/// hex list (`96,e8`) asks for one shared multi-output chain.  The exit
/// code is 0 on an OK reply, 1 on ERR (including `ERR timeout`), and 2 on
/// usage or connection problems.

#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "server/client.hpp"

namespace {

[[noreturn]] void usage() {
  std::cerr
      << "usage: stpes-client --socket=PATH | --connect=SPEC <command>\n"
         "  SPEC: host:port, unix:/path, or /path\n"
         "  synth <engine> <n> <hex>[,<hex>...] [timeout]   one request\n"
         "  batch                                requests from stdin\n"
         "  stats [json]                         daemon counters\n"
         "  save <path> | load <path>            cache persistence\n"
         "  ping | shutdown\n";
  std::exit(2);
}

/// Splits a `<hex>[,<hex>...]` payload into per-output truth tables.
std::vector<stpes::tt::truth_table> parse_targets(unsigned num_vars,
                                                  const std::string& list) {
  std::vector<stpes::tt::truth_table> targets;
  std::size_t begin = 0;
  while (begin <= list.size()) {
    const auto comma = list.find(',', begin);
    const auto piece = list.substr(
        begin,
        comma == std::string::npos ? std::string::npos : comma - begin);
    targets.push_back(stpes::tt::truth_table::from_hex(num_vars, piece));
    if (comma == std::string::npos) {
      break;
    }
    begin = comma + 1;
  }
  return targets;
}

int print_reply(const stpes::server::line_client::synth_reply& r) {
  if (!r.ok) {
    std::cout << "ERR " << r.error << "\n";
    return 1;
  }
  std::cout << stpes::synth::to_string(r.outcome) << " gates=" << r.gates
            << " chains=" << r.chains.size() << " seconds=" << r.seconds
            << "\n";
  for (const auto& c : r.chains) {
    std::cout << stpes::service::serialize_chain(c) << "\n";
  }
  return r.outcome == stpes::synth::status::success ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace stpes;

  std::optional<server::endpoint> target;
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--socket=", 0) == 0) {
      server::endpoint ep;
      ep.host_or_path = arg.substr(9);
      target = ep;
    } else if (arg.rfind("--connect=", 0) == 0) {
      try {
        target = server::endpoint::parse(arg.substr(10));
      } catch (const std::exception& e) {
        std::cerr << "stpes-client: " << e.what() << "\n";
        usage();
      }
    } else {
      args.push_back(arg);
    }
  }
  if (!target.has_value() || target->host_or_path.empty() || args.empty()) {
    usage();
  }

  try {
    server::connection connection{*target, 5000};
    auto& client = connection.client();
    const std::string& command = args[0];

    if (command == "synth" && (args.size() == 4 || args.size() == 5)) {
      const auto engine = core::engine_from_string(args[1]);
      const auto num_vars = static_cast<unsigned>(std::stoul(args[2]));
      const auto targets = parse_targets(num_vars, args[3]);
      std::optional<double> timeout;
      if (args.size() == 5) {
        timeout = std::stod(args[4]);
      }
      return print_reply(targets.size() == 1
                             ? client.synth(engine, targets.front(), timeout)
                             : client.synth(engine, targets, timeout));
    }
    if (command == "batch" && args.size() == 1) {
      std::vector<std::pair<core::engine, tt::truth_table>> requests;
      std::string engine_name;
      unsigned num_vars = 0;
      std::string hex;
      while (std::cin >> engine_name >> num_vars >> hex) {
        requests.emplace_back(core::engine_from_string(engine_name),
                              tt::truth_table::from_hex(num_vars, hex));
      }
      int exit_code = 0;
      const auto replies = client.batch(requests);
      for (std::size_t i = 0; i < replies.size(); ++i) {
        std::cout << "# request " << i << "\n";
        exit_code |= print_reply(replies[i]);
      }
      return exit_code;
    }
    if (command == "stats" && args.size() <= 2) {
      if (args.size() == 2 && args[1] == "json") {
        std::cout << client.stats_json() << "\n";
      } else {
        for (const auto& line : client.stats_text()) {
          std::cout << line << "\n";
        }
      }
      return 0;
    }
    if (command == "save" && args.size() == 2) {
      std::cout << "saved " << client.save(args[1]) << " entries\n";
      return 0;
    }
    if (command == "load" && args.size() == 2) {
      const auto [loaded, skipped] = client.load(args[1]);
      std::cout << "loaded " << loaded << " entries, skipped " << skipped
                << "\n";
      return 0;
    }
    if (command == "ping" && args.size() == 1) {
      std::cout << (client.ping() ? "pong" : "no reply") << "\n";
      return 0;
    }
    if (command == "shutdown" && args.size() == 1) {
      client.shutdown();
      std::cout << "daemon shutting down\n";
      return 0;
    }
    usage();
  } catch (const std::exception& e) {
    std::cerr << "stpes-client: " << e.what() << "\n";
    return 2;
  }
}
