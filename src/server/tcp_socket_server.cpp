#include "server/tcp_socket_server.hpp"

#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <optional>
#include <stdexcept>

#include "server/client.hpp"

namespace stpes::server {

tcp_listen_spec tcp_listen_spec::parse(const std::string& spec) {
  tcp_listen_spec out;
  std::optional<std::uint16_t> port;
  if (!split_host_port(spec, out.host, port) || spec.back() == ':') {
    throw std::runtime_error{"bad listen spec '" + spec +
                             "' (want host:port)"};
  }
  if (!port.has_value()) {
    throw std::runtime_error{"bad port '" + spec.substr(spec.rfind(':') + 1) +
                             "' in listen spec '" + spec + "'"};
  }
  if (out.host == "*") {
    out.host.clear();
  }
  out.port = *port;
  return out;
}

tcp_socket_server::tcp_socket_server(session_host& host,
                                     const tcp_listen_spec& spec)
    : stream_listener(host) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(spec.port);
  if (spec.host.empty()) {
    addr.sin_addr.s_addr = htonl(INADDR_ANY);
  } else if (const int rc = resolve_ipv4(spec.host, addr.sin_addr); rc != 0) {
    throw std::runtime_error{"cannot resolve listen host '" + spec.host +
                             "': " + ::gai_strerror(rc)};
  }

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    throw std::runtime_error{"socket: " + std::string{std::strerror(errno)}};
  }
  // A restarted shard must rebind its port while old connections linger
  // in TIME_WAIT — the router's kill/restart failover depends on it.
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const std::string reason = std::strerror(errno);
    ::close(fd);
    throw std::runtime_error{"bind " + spec.host + ":" +
                             std::to_string(spec.port) + ": " + reason};
  }
  if (::listen(fd, 64) < 0) {
    const std::string reason = std::strerror(errno);
    ::close(fd);
    throw std::runtime_error{"listen: " + reason};
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
    port_ = ntohs(bound.sin_port);
  }
  adopt_listen_fd(fd);
}

void tcp_socket_server::configure_accepted_fd(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

}  // namespace stpes::server
