/// \file client.hpp
/// \brief The C++ side of the stpes-serve line protocol, down to the wire.
///
/// Header-only on purpose: external tools can vendor this one file (plus
/// the protocol grammar it shares with `service::chain_io`) instead of
/// linking the library.  Two layers:
///
///   * `line_client` speaks the protocol over any iostream pair — the
///     tests run it over stringstream transcripts and in-process pipes;
///   * `connection` owns a socket to a daemon named by an `endpoint`
///     (`unix:/path`, `/path`, or `host:port`), opened within a deadline
///     by `connect_endpoint`, plus the `line_client` over it.  The example
///     client, the tests and `resilient_client` (retry on top) all connect
///     through it, and the TCP listener shares its host:port split and
///     IPv4 resolver.
///
/// Every call returns the parsed reply *and* records the raw reply bytes
/// (`last_raw()`), which is how the tests assert byte-identical answers
/// across concurrent clients.

#pragma once

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <istream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "chain/boolean_chain.hpp"
#include "core/exact_synthesis.hpp"
#include "server/fd_stream.hpp"
#include "service/chain_io.hpp"
#include "synth/spec.hpp"
#include "tt/truth_table.hpp"

namespace stpes::server {

class line_client {
public:
  line_client(std::istream& in, std::ostream& out) : in_(in), out_(out) {}

  struct synth_reply {
    bool ok = false;
    bool busy = false;  ///< the daemon shed this request (overload)
    std::string error;  ///< ERR reason when !ok ("timeout", parse message)
    synth::status outcome = synth::status::failure;
    unsigned gates = 0;
    double seconds = 0.0;
    /// Server-assigned id carried by the reply head (0 when absent);
    /// `CANCEL <id>` from another connection targets exactly this request.
    std::uint64_t request_id = 0;
    /// BUSY retry hint in milliseconds (only meaningful when `busy`).
    unsigned retry_after_ms = 0;
    std::vector<chain::boolean_chain> chains;
  };

  /// `SYNTH`; throws only on a broken transport, not on ERR replies.
  synth_reply synth(core::engine engine, const tt::truth_table& function,
                    std::optional<double> timeout_seconds = std::nullopt) {
    std::ostringstream req;
    req << "SYNTH " << core::to_string(engine) << " "
        << function.num_vars() << " " << function.to_hex();
    if (timeout_seconds.has_value()) {
      req << " " << *timeout_seconds;
    }
    send(req.str());
    return read_result_reply("OK");
  }

  /// Multi-output `SYNTH`: one chain realizing every listed function over
  /// the same inputs, in order (a comma-separated hex list on the wire).
  /// The reply's chains are `mchain` lines; `simulate_output(k)` of any of
  /// them realizes `functions[k]`.
  synth_reply synth(core::engine engine,
                    const std::vector<tt::truth_table>& functions,
                    std::optional<double> timeout_seconds = std::nullopt) {
    if (functions.empty()) {
      throw std::invalid_argument{"line_client::synth: empty function list"};
    }
    std::ostringstream req;
    req << "SYNTH " << core::to_string(engine) << " "
        << functions.front().num_vars() << " ";
    for (std::size_t k = 0; k < functions.size(); ++k) {
      req << (k == 0 ? "" : ",") << functions[k].to_hex();
    }
    if (timeout_seconds.has_value()) {
      req << " " << *timeout_seconds;
    }
    send(req.str());
    return read_result_reply("OK");
  }

  /// Sends an already-serialized `SYNTH ...` request line verbatim and
  /// parses the reply.  The forwarding primitive of the routing tier: the
  /// router re-frames client requests without re-deriving them.
  synth_reply forward_synth(const std::string& request_line) {
    send(request_line);
    return read_result_reply("OK");
  }

  /// `BATCH ... END`; one reply per request, in request order.
  std::vector<synth_reply> batch(
      const std::vector<std::pair<core::engine, tt::truth_table>>&
          requests) {
    std::ostringstream req;
    req << "BATCH\n";
    for (const auto& [engine, function] : requests) {
      req << core::to_string(engine) << " " << function.num_vars() << " "
          << function.to_hex() << "\n";
    }
    req << "END";
    send(req.str());
    const auto head = read_line();
    std::vector<synth_reply> replies;
    if (head.rfind("ERR ", 0) == 0) {
      synth_reply r;
      r.error = head.substr(4);
      replies.assign(requests.size(), r);
      return replies;
    }
    if (head.rfind("BUSY ", 0) == 0) {
      replies.assign(requests.size(), parse_busy(head));
      return replies;
    }
    std::istringstream is{require_ok(head, "OK ")};
    std::size_t count = 0;
    is >> count;
    const auto id = parse_trailing_id(is);
    replies.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      auto r = parse_result_block(read_line(), "RESULT");
      r.request_id = id;
      replies.push_back(std::move(r));
    }
    return replies;
  }

  /// `STATS JSON`: the one-line JSON document.
  std::string stats_json() {
    send("STATS JSON");
    require_ok(read_line(), "OK ");
    return read_line();
  }

  /// `STATS` (text): the counter lines.
  std::vector<std::string> stats_text() {
    send("STATS");
    const auto count = std::stoul(require_ok(read_line(), "OK "));
    std::vector<std::string> lines;
    lines.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      lines.push_back(read_line());
    }
    return lines;
  }

  /// `SAVE <path>`: entries written.  Throws on ERR.
  std::size_t save(const std::string& path) {
    send("SAVE " + path);
    std::istringstream is{require_ok(read_line(), "OK saved ")};
    std::size_t written = 0;
    is >> written;
    return written;
  }

  /// `LOAD <path>`: {loaded, skipped}.  Throws on ERR.
  std::pair<std::size_t, std::size_t> load(const std::string& path) {
    send("LOAD " + path);
    std::istringstream is{require_ok(read_line(), "OK loaded ")};
    std::size_t loaded = 0;
    std::string skipped_kw;
    std::size_t skipped = 0;
    is >> loaded >> skipped_kw >> skipped;
    return {loaded, skipped};
  }

  struct sweep_reply {
    bool ok = false;
    bool busy = false;  ///< the daemon shed this request (overload)
    std::string error;  ///< ERR reason when !ok ("timeout", parse message)
    std::uint64_t ands_before = 0;
    std::uint64_t ands_after = 0;
    std::uint64_t merged = 0;
    std::uint64_t proofs = 0;
    std::uint64_t refutations = 0;
    std::uint64_t sim_rounds = 0;
    double seconds = 0.0;
    std::uint64_t request_id = 0;
    unsigned retry_after_ms = 0;  ///< BUSY retry hint (only when `busy`)
  };

  /// `SWEEP <path> [timeout_s] [prover]`; throws only on a broken
  /// transport, not on ERR replies.
  sweep_reply sweep(const std::string& path,
                    std::optional<double> timeout_seconds = std::nullopt,
                    const std::string& prover = "") {
    std::ostringstream req;
    req << "SWEEP " << path;
    if (timeout_seconds.has_value() || !prover.empty()) {
      req << " " << timeout_seconds.value_or(0.0);
    }
    if (!prover.empty()) {
      req << " " << prover;
    }
    send(req.str());
    const auto head = read_line();
    sweep_reply r;
    if (head.rfind("ERR ", 0) == 0) {
      r.error = head.substr(4);
      return r;
    }
    if (head.rfind("BUSY ", 0) == 0) {
      const auto busy = parse_busy(head);
      r.busy = true;
      r.error = busy.error;
      r.retry_after_ms = busy.retry_after_ms;
      return r;
    }
    std::istringstream is{require_ok(head, "OK swept ")};
    if (!(is >> r.ands_before >> r.ands_after >> r.merged >> r.proofs >>
          r.refutations >> r.sim_rounds >> r.seconds)) {
      throw std::runtime_error{"malformed sweep reply: " + head};
    }
    r.request_id = parse_trailing_id(is);
    r.ok = true;
    return r;
  }

  /// `CANCEL` / `CANCEL <id>`: cooperatively cancels every in-flight
  /// synthesis on the daemon, or only the request tagged `id`; returns the
  /// number of jobs signalled.  Issue it from a *separate* connection —
  /// the protocol is synchronous per session.
  std::size_t cancel(std::optional<std::uint64_t> id = std::nullopt) {
    send(id.has_value() ? "CANCEL " + std::to_string(*id) : "CANCEL");
    std::istringstream is{require_ok(read_line(), "OK cancelled ")};
    std::size_t n = 0;
    is >> n;
    return n;
  }

  /// `RELOAD <path>`: hot cache swap; {loaded, skipped, cleared}.
  /// Throws on ERR.
  struct reload_reply {
    std::size_t loaded = 0;
    std::size_t skipped = 0;
    std::size_t cleared = 0;
  };
  reload_reply reload(const std::string& path) {
    send("RELOAD " + path);
    std::istringstream is{require_ok(read_line(), "OK reloaded ")};
    reload_reply r;
    std::string kw;
    is >> r.loaded >> kw >> r.skipped >> kw >> r.cleared;
    return r;
  }

  /// `FAILPOINT SET <name> <spec>`: arms a fault-injection point on the
  /// daemon (chaos builds only).  Throws on ERR.
  void failpoint_set(const std::string& name, const std::string& spec) {
    send("FAILPOINT SET " + name + " " + spec);
    require_ok(read_line(), "OK failpoint ");
  }

  /// `FAILPOINT CLEAR [name]`.  Throws on ERR.
  void failpoint_clear(const std::string& name = "") {
    send(name.empty() ? "FAILPOINT CLEAR" : "FAILPOINT CLEAR " + name);
    require_ok(read_line(), "OK failpoints ");
  }

  /// `PING` as a reply: ok on `OK pong`, busy (with its hint) when the
  /// daemon shed it, otherwise not ok with the reply line as `error`.
  synth_reply ping_reply() {
    send("PING");
    const auto head = read_line();
    if (head.rfind("BUSY ", 0) == 0) {
      return parse_busy(head);
    }
    synth_reply r;
    r.ok = head == "OK pong";
    if (!r.ok) {
      r.error = head;
    }
    return r;
  }

  bool ping() { return ping_reply().ok; }

  void quit() {
    send("QUIT");
    read_line();
  }

  void shutdown() {
    send("SHUTDOWN");
    read_line();
  }

  /// Raw bytes of the last complete reply (head line + payload lines).
  [[nodiscard]] const std::string& last_raw() const { return last_raw_; }

private:
  void send(const std::string& request) {
    last_raw_.clear();
    out_ << request << "\n";
    out_.flush();
    if (!out_) {
      throw std::runtime_error{"line_client: transport write failed"};
    }
  }

  std::string read_line() {
    std::string line;
    if (!std::getline(in_, line)) {
      throw std::runtime_error{"line_client: connection closed"};
    }
    if (!line.empty() && line.back() == '\r') {
      line.pop_back();
    }
    last_raw_ += line;
    last_raw_ += '\n';
    return line;
  }

  /// Strips `prefix` from an OK head line; throws on ERR / junk.
  std::string require_ok(const std::string& line,
                         const std::string& prefix) {
    if (line.rfind("ERR ", 0) == 0) {
      throw std::runtime_error{"server error: " + line.substr(4)};
    }
    if (line.rfind(prefix, 0) != 0) {
      throw std::runtime_error{"unexpected reply: " + line};
    }
    return line.substr(prefix.size());
  }

  synth_reply read_result_reply(const std::string& head_keyword) {
    const auto head = read_line();
    if (head.rfind("ERR ", 0) == 0) {
      synth_reply r;
      r.error = head.substr(4);
      return r;
    }
    if (head.rfind("BUSY ", 0) == 0) {
      return parse_busy(head);
    }
    return parse_result_block(head, head_keyword);
  }

  /// Parses `BUSY retry-after <ms>` into a shed reply.  A missing or
  /// garbled ms field leaves the hint at 0 (callers fall back to their
  /// own backoff schedule) — a daemon bug must not take the client down.
  static synth_reply parse_busy(const std::string& head) {
    synth_reply r;
    r.busy = true;
    r.error = "busy";
    std::istringstream is{head};
    std::string kw;
    is >> kw >> kw;
    if (!(is >> r.retry_after_ms)) {
      r.retry_after_ms = 0;
    }
    return r;
  }

  /// Consumes a trailing ` id=<n>` token if present; 0 otherwise.
  static std::uint64_t parse_trailing_id(std::istringstream& is) {
    std::string tok;
    while (is >> tok) {
      if (tok.rfind("id=", 0) == 0) {
        try {
          return std::stoull(tok.substr(3));
        } catch (const std::exception&) {
          return 0;
        }
      }
    }
    return 0;
  }

  /// Parses `<kw> [index] <status> <gates> <num_chains> <seconds>` plus
  /// the chain lines that follow it.
  synth_reply parse_result_block(const std::string& head,
                                 const std::string& keyword) {
    std::istringstream is{head};
    std::string kw;
    is >> kw;
    if (kw != keyword) {
      throw std::runtime_error{"unexpected reply: " + head};
    }
    if (keyword == "RESULT") {
      std::size_t index = 0;
      is >> index;
    }
    std::string status;
    unsigned gates = 0;
    std::size_t num_chains = 0;
    double seconds = 0.0;
    if (!(is >> status >> gates >> num_chains >> seconds)) {
      throw std::runtime_error{"malformed result head: " + head};
    }
    synth_reply r;
    r.request_id = parse_trailing_id(is);
    r.ok = true;
    r.outcome = status == "success" ? synth::status::success
                : status == "timeout" ? synth::status::timeout
                                      : synth::status::failure;
    r.gates = gates;
    r.seconds = seconds;
    r.chains.reserve(num_chains);
    for (std::size_t i = 0; i < num_chains; ++i) {
      r.chains.push_back(service::parse_chain(read_line()));
    }
    return r;
  }

  std::istream& in_;
  std::ostream& out_;
  std::string last_raw_;
};

/// A failed connect, or a request that no retry could carry.
struct transport_error : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Splits `spec` at its last colon into `host` and `port`; false when
/// there is no colon.  `port` stays empty when the text after the colon
/// is not a decimal number in [0, 65535].
inline bool split_host_port(const std::string& spec, std::string& host,
                            std::optional<std::uint16_t>& port) {
  const auto colon = spec.rfind(':');
  if (colon == std::string::npos) {
    return false;
  }
  host = spec.substr(0, colon);
  const std::string text = spec.substr(colon + 1);
  std::size_t pos = 0;
  unsigned long value = 0;
  try {
    value = std::stoul(text, &pos);
  } catch (const std::exception&) {
    pos = 0;
  }
  port.reset();
  if (!text.empty() && pos == text.size() && value <= 65535) {
    port = static_cast<std::uint16_t>(value);
  }
  return true;
}

/// Resolves `host` to an IPv4 address: a dotted quad as written, any
/// other name through getaddrinfo.  Returns 0 or the getaddrinfo error.
inline int resolve_ipv4(const std::string& host, in_addr& out) {
  if (::inet_pton(AF_INET, host.c_str(), &out) == 1) {
    return 0;
  }
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  const int rc = ::getaddrinfo(host.c_str(), nullptr, &hints, &res);
  if (rc != 0) {
    return rc;
  }
  out = reinterpret_cast<const sockaddr_in*>(res->ai_addr)->sin_addr;
  ::freeaddrinfo(res);
  return 0;
}

/// Where a daemon lives: a Unix-socket path or a TCP `host:port`.
struct endpoint {
  enum class kind { unix_socket, tcp };
  kind transport = kind::unix_socket;
  std::string host_or_path;  ///< socket path, or TCP host
  std::uint16_t port = 0;    ///< TCP only

  /// `unix:/path`, `/path` (leading slash or dot), or `host:port`.
  /// Throws on a bad port or an empty path or host.
  static endpoint parse(const std::string& spec) {
    endpoint ep;
    std::optional<std::uint16_t> port;
    if (spec.rfind("unix:", 0) == 0) {
      ep.host_or_path = spec.substr(5);
    } else if (spec.empty() || spec[0] == '/' || spec[0] == '.' ||
               !split_host_port(spec, ep.host_or_path, port)) {
      ep.host_or_path = spec;
    } else {
      ep.transport = kind::tcp;
      ep.port = port.value_or(0);
    }
    if (ep.host_or_path.empty() ||
        (ep.transport == kind::tcp && ep.port == 0)) {
      throw std::runtime_error{"bad endpoint '" + spec +
                               "' (want unix:/path, /path, or host:port)"};
    }
    return ep;
  }

  [[nodiscard]] std::string to_string() const {
    return transport == kind::unix_socket
               ? host_or_path
               : host_or_path + ":" + std::to_string(port);
  }
};

/// Connects to `ep` within `timeout_ms` and returns a blocking fd; throws
/// `transport_error` on failure.  The connect is non-blocking plus a
/// poll.  A Unix socket whose listen backlog is full refuses it with
/// `EAGAIN` instead of `EINPROGRESS`, so that connect is retried until
/// the deadline.
inline int connect_endpoint(const endpoint& ep, unsigned timeout_ms) {
  using clock = std::chrono::steady_clock;
  const auto deadline = clock::now() + std::chrono::milliseconds(timeout_ms);
  const auto ms_left = [&deadline] {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          deadline - clock::now())
                          .count();
    return left > 0 ? static_cast<int>(left) : 0;
  };
  const bool is_unix = ep.transport == endpoint::kind::unix_socket;
  sockaddr_storage addr{};
  socklen_t addr_len = 0;
  if (is_unix) {
    auto* un = reinterpret_cast<sockaddr_un*>(&addr);
    un->sun_family = AF_UNIX;
    if (ep.host_or_path.size() >= sizeof(un->sun_path)) {
      throw transport_error{"socket path too long: " + ep.host_or_path};
    }
    std::strncpy(un->sun_path, ep.host_or_path.c_str(),
                 sizeof(un->sun_path) - 1);
    addr_len = sizeof(sockaddr_un);
  } else {
    auto* in4 = reinterpret_cast<sockaddr_in*>(&addr);
    in4->sin_family = AF_INET;
    in4->sin_port = htons(ep.port);
    if (const int rc = resolve_ipv4(ep.host_or_path, in4->sin_addr);
        rc != 0) {
      throw transport_error{"cannot resolve '" + ep.host_or_path +
                            "': " + ::gai_strerror(rc)};
    }
    addr_len = sizeof(sockaddr_in);
  }
  const int fd = ::socket(is_unix ? AF_UNIX : AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    throw transport_error{"socket: " + std::string{std::strerror(errno)}};
  }
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  const auto* sa = reinterpret_cast<const sockaddr*>(&addr);
  int rc = ::connect(fd, sa, addr_len);
  while (rc < 0 && errno == EAGAIN && is_unix) {
    if (ms_left() == 0) {
      errno = ETIMEDOUT;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    rc = ::connect(fd, sa, addr_len);
  }
  if (rc < 0 && errno == EINPROGRESS) {
    pollfd p{fd, POLLOUT, 0};
    int ready = 0;
    do {
      ready = ::poll(&p, 1, ms_left());
    } while (ready < 0 && errno == EINTR);
    int err = ETIMEDOUT;
    if (ready > 0) {
      socklen_t err_len = sizeof(err);
      ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &err_len);
    }
    rc = err == 0 ? 0 : -1;
    errno = err;
  }
  if (rc < 0) {
    const std::string reason =
        errno == ETIMEDOUT ? "timed out" : std::strerror(errno);
    ::close(fd);
    throw transport_error{"connect " + ep.to_string() + ": " + reason};
  }
  ::fcntl(fd, F_SETFL, flags);  // back to blocking; reads poll explicitly
  if (!is_unix) {
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
  return fd;
}

/// One open connection to a daemon: the socket, the stream over it, and
/// the `line_client` speaking on that stream.
class connection {
public:
  /// Connects within `connect_timeout_ms`; a nonzero `io_timeout_ms`
  /// bounds every read gap (see `fd_iostream`).  Throws `transport_error`.
  connection(const endpoint& ep, unsigned connect_timeout_ms,
             unsigned io_timeout_ms = 0)
      : socket_{connect_endpoint(ep, connect_timeout_ms)},
        io_(socket_.fd,
            io_timeout_ms == 0 ? -1 : static_cast<int>(io_timeout_ms)),
        client_(io_, io_) {}

  connection(const connection&) = delete;
  connection& operator=(const connection&) = delete;

  [[nodiscard]] line_client& client() { return client_; }
  [[nodiscard]] const line_client& client() const { return client_; }

  /// The raw stream, for reads outside the request/reply discipline
  /// (an unsolicited `ERR idle-timeout`, EOF after a drain).
  [[nodiscard]] fd_iostream& stream() { return io_; }

private:
  /// Declared first, so the socket closes after the stream's last flush.
  struct owned_fd {
    explicit owned_fd(int f) : fd(f) {}
    ~owned_fd() { ::close(fd); }
    owned_fd(const owned_fd&) = delete;
    owned_fd& operator=(const owned_fd&) = delete;
    int fd;
  };

  owned_fd socket_;
  fd_iostream io_;
  line_client client_;
};

}  // namespace stpes::server
