#include "server/daemon.hpp"

#include <csignal>
#include <iostream>
#include <memory>

#include "server/socket_server.hpp"
#include "server/tcp_socket_server.hpp"
#include "util/failpoint.hpp"

namespace stpes::server {

namespace {

stream_listener* g_listener = nullptr;

void on_signal(int) {
  if (g_listener != nullptr) {
    g_listener->stop();  // async-signal-safe: atomic + pipe write
  }
}

void install_signal_handlers() {
  struct sigaction sa{};
  sa.sa_handler = on_signal;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGTERM, &sa, nullptr);
  sigaction(SIGINT, &sa, nullptr);
  // A client that disconnects mid-reply must cost one session, not the
  // daemon: with SIGPIPE ignored the write fails with EPIPE, the stream
  // goes bad, and the session winds down.
  struct sigaction ign{};
  ign.sa_handler = SIG_IGN;
  sigemptyset(&ign.sa_mask);
  sigaction(SIGPIPE, &ign, nullptr);
}

}  // namespace

std::string flag_value(const std::string& arg, const std::string& name) {
  const std::string prefix = "--" + name + "=";
  return arg.rfind(prefix, 0) == 0 ? arg.substr(prefix.size())
                                   : std::string{};
}

std::uint64_t parse_u64(const std::string& flag, const std::string& value) {
  std::size_t pos = 0;
  unsigned long long out = 0;
  try {
    out = std::stoull(value, &pos);
  } catch (const std::exception&) {
    pos = 0;
  }
  if (pos != value.size() || value.empty()) {
    throw usage_error{"--" + flag + " wants a non-negative integer, got '" +
                      value + "'"};
  }
  return out;
}

unsigned parse_unsigned(const std::string& flag, const std::string& value,
                        unsigned max_value) {
  const auto out = parse_u64(flag, value);
  if (out > max_value) {
    throw usage_error{"--" + flag + " value " + value + " exceeds " +
                      std::to_string(max_value)};
  }
  return static_cast<unsigned>(out);
}

double parse_seconds(const std::string& flag, const std::string& value) {
  std::size_t pos = 0;
  double out = 0.0;
  try {
    out = std::stod(value, &pos);
  } catch (const std::exception&) {
    pos = 0;
  }
  if (pos != value.size() || value.empty() || out < 0.0) {
    throw usage_error{"--" + flag + " wants non-negative seconds, got '" +
                      value + "'"};
  }
  return out;
}

bool daemon_transport::consume(const std::string& arg) {
  if (arg == "--pipe") {
    pipe = true;
  } else if (auto v = flag_value(arg, "socket"); !v.empty()) {
    socket_path = v;
  } else if (auto v = flag_value(arg, "listen"); !v.empty()) {
    listen_spec = v;
  } else {
    return false;
  }
  return true;
}

void daemon_transport::check() const {
  const int chosen = (pipe ? 1 : 0) + (socket_path.empty() ? 0 : 1) +
                     (listen_spec.empty() ? 0 : 1);
  if (chosen != 1) {
    throw usage_error{"pick exactly one of --socket, --listen, --pipe"};
  }
}

void arm_failpoints_from_env(const std::string& name) {
  if (!util::failpoints_compiled_in()) {
    return;
  }
  const auto armed = util::failpoint_registry::instance().load_from_env();
  if (armed > 0) {
    std::cerr << name << ": armed " << armed
              << " failpoint(s) from STPES_FAILPOINTS\n";
  }
}

void serve_daemon(session_host& host, const daemon_transport& transport,
                  const std::string& name, const std::string& detail) {
  if (transport.pipe) {
    std::cerr << name << ": pipe mode, " << detail << "\n";
    host.serve(std::cin, std::cout);
    return;
  }
  std::unique_ptr<stream_listener> listener;
  std::string address;
  if (!transport.listen_spec.empty()) {
    const auto spec = tcp_listen_spec::parse(transport.listen_spec);
    auto tcp = std::make_unique<tcp_socket_server>(host, spec);
    address = spec.host + ":" + std::to_string(tcp->port());
    listener = std::move(tcp);
  } else {
    listener = std::make_unique<unix_socket_server>(host,
                                                    transport.socket_path);
    address = transport.socket_path;
  }
  g_listener = listener.get();
  install_signal_handlers();
  std::cerr << name << ": listening on " << address << ", " << detail
            << "\n";
  listener->run();
  g_listener = nullptr;
}

}  // namespace stpes::server
