/// \file resilient_client_test.cpp
/// \brief Retry, backoff, reconnect, and reply-parsing edge cases.
///
/// Two kinds of harness: a `scripted_server` (a real TCP listener that
/// answers each request with pre-canned bytes, so truncation, BUSY storms,
/// and mid-reply hangups are exact), and real daemons for the end-to-end
/// reconnect-after-restart criterion.  The backoff schedule is asserted
/// value for value — it is a pure function of the policy seed, which is
/// the whole point of deterministic jitter.

#include <gtest/gtest.h>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstring>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "server/client.hpp"
#include "server/fd_stream.hpp"
#include "server/resilient_client.hpp"
#include "server/server.hpp"
#include "server/tcp_socket_server.hpp"
#include "tt/truth_table.hpp"
#include "util/failpoint.hpp"

namespace {

using stpes::core::engine;
using stpes::server::endpoint;
using stpes::server::line_client;
using stpes::server::resilient_client;
using stpes::server::retry_policy;
using stpes::server::server_options;
using stpes::server::synthesis_server;
using stpes::server::tcp_listen_spec;
using stpes::server::tcp_socket_server;
using stpes::server::transport_error;
using stpes::tt::truth_table;

/// A TCP listener that serves pre-scripted replies: connection `i` uses
/// `scripts[i]`; each element is the raw bytes answering one request line
/// (empty string = hang up without replying).  The accept loop exits once
/// every script is spent, so the destructor's join is bounded.
class scripted_server {
public:
  explicit scripted_server(std::vector<std::vector<std::string>> scripts)
      : scripts_(std::move(scripts)) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_OR_THROW(listen_fd_ >= 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ASSERT_OR_THROW(::bind(listen_fd_,
                           reinterpret_cast<const sockaddr*>(&addr),
                           sizeof(addr)) == 0);
    ASSERT_OR_THROW(::listen(listen_fd_, 8) == 0);
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    ASSERT_OR_THROW(::getsockname(listen_fd_,
                                  reinterpret_cast<sockaddr*>(&bound),
                                  &len) == 0);
    port_ = ntohs(bound.sin_port);
    thread_ = std::thread{[this] { loop(); }};
  }

  ~scripted_server() {
    thread_.join();
    ::close(listen_fd_);
  }

  [[nodiscard]] endpoint ep() const {
    endpoint e;
    e.transport = endpoint::kind::tcp;
    e.host_or_path = "127.0.0.1";
    e.port = port_;
    return e;
  }

private:
  static void ASSERT_OR_THROW(bool ok) {
    if (!ok) {
      throw std::runtime_error{"scripted_server setup failed"};
    }
  }

  void loop() {
    for (const auto& script : scripts_) {
      pollfd p{listen_fd_, POLLIN, 0};
      if (::poll(&p, 1, 10000) <= 0) {
        return;  // the test never connected; don't hang the join
      }
      const int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) {
        return;
      }
      stpes::server::fd_iostream io{fd};
      std::string line;
      for (const auto& reply : script) {
        if (!std::getline(io, line)) {
          break;
        }
        if (reply.empty()) {
          break;  // scripted hangup
        }
        io << reply;
        io.flush();
      }
      ::close(fd);
    }
  }

  std::vector<std::vector<std::string>> scripts_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::thread thread_;
};

class ResilientClient : public ::testing::Test {
protected:
  void SetUp() override { std::signal(SIGPIPE, SIG_IGN); }
};

retry_policy quick_policy() {
  retry_policy p;
  p.max_attempts = 3;
  p.connect_timeout_ms = 1000;
  p.io_timeout_ms = 2000;
  p.base_backoff_ms = 1;
  p.max_backoff_ms = 8;
  return p;
}

TEST_F(ResilientClient, EndpointSpecsParse) {
  auto ep = endpoint::parse("unix:/tmp/x.sock");
  EXPECT_EQ(ep.transport, endpoint::kind::unix_socket);
  EXPECT_EQ(ep.host_or_path, "/tmp/x.sock");

  ep = endpoint::parse("/tmp/y.sock");
  EXPECT_EQ(ep.transport, endpoint::kind::unix_socket);

  ep = endpoint::parse("./rel.sock");
  EXPECT_EQ(ep.transport, endpoint::kind::unix_socket);

  ep = endpoint::parse("127.0.0.1:9100");
  EXPECT_EQ(ep.transport, endpoint::kind::tcp);
  EXPECT_EQ(ep.host_or_path, "127.0.0.1");
  EXPECT_EQ(ep.port, 9100);
  EXPECT_EQ(ep.to_string(), "127.0.0.1:9100");

  EXPECT_THROW(endpoint::parse("host:0"), std::runtime_error);
  EXPECT_THROW(endpoint::parse("host:66000"), std::runtime_error);
  EXPECT_THROW(endpoint::parse("host:12x"), std::runtime_error);
  // An empty socket path would only fail at the first connect.
  EXPECT_THROW(endpoint::parse("unix:"), std::runtime_error);
  EXPECT_THROW(endpoint::parse(""), std::runtime_error);
}

/// A Unix listener with a zero backlog that accepts nothing by itself:
/// one queued connect fills the backlog, so the next connect finds it full.
class full_backlog_listener {
public:
  full_backlog_listener()
      : path_(::testing::TempDir() + "stpes_backlog_" +
              std::to_string(::getpid()) + ".sock") {
    ::unlink(path_.c_str());
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path_.c_str(), sizeof(addr.sun_path) - 1);
    EXPECT_EQ(::bind(fd_, reinterpret_cast<const sockaddr*>(&addr),
                     sizeof(addr)),
              0);
    EXPECT_EQ(::listen(fd_, 0), 0);
    queued_ = stpes::server::connect_endpoint(ep(), 1000);
  }

  ~full_backlog_listener() {
    ::close(queued_);
    ::close(fd_);
    ::unlink(path_.c_str());
  }

  [[nodiscard]] endpoint ep() const { return endpoint::parse(path_); }
  [[nodiscard]] int fd() const { return fd_; }

private:
  std::string path_;
  int fd_ = -1;
  int queued_ = -1;
};

TEST_F(ResilientClient, ConnectWaitsOutAFullUnixBacklog) {
  full_backlog_listener listener;
  int accepted = -1;
  std::thread acceptor{[&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    accepted = ::accept(listener.fd(), nullptr, nullptr);
  }};
  const auto start = std::chrono::steady_clock::now();
  int fd = -1;
  EXPECT_NO_THROW(fd = stpes::server::connect_endpoint(listener.ep(), 2000));
  const auto elapsed = std::chrono::steady_clock::now() - start;
  acceptor.join();
  EXPECT_GE(fd, 0);
  EXPECT_GE(accepted, 0);
  // The connect got through only once the acceptor freed a slot.
  EXPECT_GE(elapsed, std::chrono::milliseconds(40));
  ::close(fd);
  ::close(accepted);
}

TEST_F(ResilientClient, ConnectToAFullUnixBacklogTimesOut) {
  full_backlog_listener listener;
  const auto start = std::chrono::steady_clock::now();
  try {
    ::close(stpes::server::connect_endpoint(listener.ep(), 150));
    ADD_FAILURE() << "connected past a full backlog";
  } catch (const transport_error& e) {
    EXPECT_NE(std::string{e.what()}.find("timed out"), std::string::npos)
        << e.what();
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_GE(elapsed, std::chrono::milliseconds(140));
  EXPECT_LT(elapsed, std::chrono::milliseconds(2000));
}

TEST_F(ResilientClient, BackoffScheduleIsDeterministicCappedAndJittered) {
  retry_policy policy;
  policy.base_backoff_ms = 10;
  policy.max_backoff_ms = 200;
  policy.jitter_seed = 42;
  endpoint ep;
  ep.host_or_path = "/nonexistent";
  resilient_client a{ep, policy};
  resilient_client b{ep, policy};
  for (unsigned attempt = 0; attempt < 12; ++attempt) {
    const unsigned ms = a.backoff_ms(attempt);
    // Identical policy => identical schedule, run to run and client to
    // client: the jitter is seeded, not sampled.
    EXPECT_EQ(ms, b.backoff_ms(attempt)) << "attempt " << attempt;
    // Exponential base, capped, jitter adds at most 50%.
    const std::uint64_t base =
        std::min<std::uint64_t>(std::uint64_t{10} << std::min(attempt, 16u),
                                200);
    EXPECT_GE(ms, base) << "attempt " << attempt;
    EXPECT_LE(ms, base + base / 2) << "attempt " << attempt;
  }
  // A different seed gives a different schedule somewhere (that is the
  // anti-thundering-herd property).
  policy.jitter_seed = 43;
  resilient_client c{ep, policy};
  bool any_diff = false;
  for (unsigned attempt = 0; attempt < 12; ++attempt) {
    any_diff |= c.backoff_ms(attempt) != a.backoff_ms(attempt);
  }
  EXPECT_TRUE(any_diff);
}

TEST_F(ResilientClient, BusyRetryAfterActsAsBackoffFloor) {
  scripted_server server{{{"BUSY retry-after 80\n", "OK pong\n"}}};
  resilient_client client{server.ep(), quick_policy()};
  const auto start = std::chrono::steady_clock::now();
  EXPECT_TRUE(client.ping());
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  // The schedule says ~1 ms; the daemon said 80 — the daemon wins.
  EXPECT_GE(elapsed.count(), 80);
  EXPECT_EQ(client.metrics().busy_backoffs, 1u);
  EXPECT_GE(client.metrics().backoff_ms_total, 80u);
}

TEST_F(ResilientClient, BusyThatSurvivesAllRetriesIsReturnedNotThrown) {
  scripted_server server{
      {{"BUSY retry-after 1\n", "BUSY retry-after 1\n",
        "BUSY retry-after 1\n"}}};
  resilient_client client{server.ep(), quick_policy()};
  const auto reply = client.forward_synth("SYNTH stp 2 8");
  EXPECT_TRUE(reply.busy);
  EXPECT_FALSE(reply.ok);
  EXPECT_EQ(reply.retry_after_ms, 1u);
  EXPECT_EQ(client.metrics().failures, 0u)
      << "shedding is an answer, not a fault";
}

TEST_F(ResilientClient, ReconnectsAfterMidRequestHangup) {
  // Connection 1 hangs up instead of replying; connection 2 answers.
  scripted_server server{{{""}, {"OK pong\n"}}};
  resilient_client client{server.ep(), quick_policy()};
  EXPECT_TRUE(client.ping());
  EXPECT_EQ(client.metrics().connects, 1u);
  EXPECT_EQ(client.metrics().reconnects, 1u);
  EXPECT_EQ(client.metrics().retries, 1u);
}

TEST_F(ResilientClient, TruncatedReplyPayloadIsRetriedToSuccess) {
  // Connection 1 sends the OK head claiming one chain line, then hangs up
  // mid-payload; connection 2 delivers a complete (zero-chain) reply.
  scripted_server server{{{"OK success 2 1 0.001 id=7\n"},
                          {"OK success 0 0 0.001 id=7\n"}}};
  resilient_client client{server.ep(), quick_policy()};
  const auto reply = client.forward_synth("SYNTH stp 2 8");
  EXPECT_TRUE(reply.ok);
  EXPECT_EQ(reply.request_id, 7u);
  EXPECT_EQ(client.metrics().retries, 1u);
  EXPECT_EQ(client.metrics().reconnects, 1u);
}

TEST_F(ResilientClient, ExhaustedRetriesSurfaceTransportError) {
  // Find a port with nothing behind it: bind, read it back, close.
  const int probe = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(probe, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(probe, reinterpret_cast<sockaddr*>(&addr), &len),
            0);
  ::close(probe);

  endpoint ep;
  ep.transport = endpoint::kind::tcp;
  ep.host_or_path = "127.0.0.1";
  ep.port = ntohs(addr.sin_port);
  resilient_client client{ep, quick_policy()};
  EXPECT_THROW(client.forward_synth("SYNTH stp 2 8"), transport_error);
  EXPECT_EQ(client.metrics().failures, 1u);
  EXPECT_EQ(client.metrics().retries, 2u);  // 3 attempts = 2 retries
}

// The acceptance criterion: a daemon restart is an incident the client
// rides out with backoff + reconnect, not an error the caller sees.
TEST_F(ResilientClient, RecoversAcrossDaemonRestart) {
  server_options opts;
  opts.default_timeout_seconds = 60.0;
  opts.num_threads = 2;
  opts.drain_grace_seconds = 0.1;

  auto daemon = std::make_unique<synthesis_server>(opts);
  auto listener = std::make_unique<tcp_socket_server>(
      *daemon, tcp_listen_spec{"127.0.0.1", 0});
  const std::uint16_t port = listener->port();
  std::thread accept_thread{[&listener] { listener->run(); }};

  endpoint ep;
  ep.transport = endpoint::kind::tcp;
  ep.host_or_path = "127.0.0.1";
  ep.port = port;
  retry_policy policy = quick_policy();
  policy.max_attempts = 6;
  policy.max_backoff_ms = 100;
  resilient_client client{ep, policy};

  const auto maj = truth_table::from_hex(3, "e8");
  auto reply = client.synth(engine::stp, maj);
  ASSERT_TRUE(reply.ok);
  ASSERT_FALSE(reply.chains.empty());
  EXPECT_EQ(reply.chains.front().simulate(), maj);

  // Kill the daemon, then restart it on the same port (SO_REUSEADDR).
  listener->stop();
  accept_thread.join();
  listener.reset();
  daemon = std::make_unique<synthesis_server>(opts);
  listener = std::make_unique<tcp_socket_server>(
      *daemon, tcp_listen_spec{"127.0.0.1", port});
  std::thread accept_thread2{[&listener] { listener->run(); }};

  // The client's connection is dead; the next request must ride through
  // EOF -> backoff -> reconnect and come back with the same answer.
  reply = client.synth(engine::stp, maj);
  ASSERT_TRUE(reply.ok);
  ASSERT_FALSE(reply.chains.empty());
  EXPECT_EQ(reply.chains.front().simulate(), maj);
  EXPECT_GE(client.metrics().reconnects, 1u);
  EXPECT_GE(client.metrics().retries, 1u);

  listener->stop();
  accept_thread2.join();
}

// ---- satellite: line_client reply-parsing edge cases ----

TEST_F(ResilientClient, LineClientBusyWithMissingMsDefaultsToZero) {
  std::istringstream in{"BUSY retry-after\n"};
  std::ostringstream out;
  line_client client{in, out};
  const auto reply = client.forward_synth("SYNTH stp 2 8");
  EXPECT_TRUE(reply.busy);
  EXPECT_EQ(reply.retry_after_ms, 0u);
}

TEST_F(ResilientClient, LineClientBusyWithGarbageMsDefaultsToZero) {
  std::istringstream in{"BUSY retry-after soon\n"};
  std::ostringstream out;
  line_client client{in, out};
  const auto reply = client.forward_synth("SYNTH stp 2 8");
  EXPECT_TRUE(reply.busy);
  EXPECT_EQ(reply.retry_after_ms, 0u);
}

TEST_F(ResilientClient, LineClientThrowsOnTruncationAtEveryLineBoundary) {
  // Capture a real multi-chain reply from the daemon core, then replay
  // every strict line-boundary prefix of it: each one must throw (the
  // counted framing promised more lines), and only the full transcript
  // parses.
  server_options opts;
  opts.default_timeout_seconds = 60.0;
  opts.num_threads = 2;
  synthesis_server server{opts};
  std::istringstream req{"SYNTH stp 3 e8\n"};
  std::ostringstream rep;
  server.serve(req, rep);
  std::vector<std::string> lines;
  {
    std::istringstream is{rep.str()};
    std::string line;
    while (std::getline(is, line)) {
      lines.push_back(line);
    }
  }
  ASSERT_GE(lines.size(), 2u) << rep.str();
  for (std::size_t keep = 0; keep < lines.size(); ++keep) {
    std::string transcript;
    for (std::size_t i = 0; i < keep; ++i) {
      transcript += lines[i] + "\n";
    }
    std::istringstream in{transcript};
    std::ostringstream out;
    line_client client{in, out};
    EXPECT_THROW(client.forward_synth("SYNTH stp 3 e8"),
                 std::runtime_error)
        << "prefix of " << keep << " lines parsed as complete";
  }
  std::istringstream in{rep.str()};
  std::ostringstream out;
  line_client client{in, out};
  const auto reply = client.forward_synth("SYNTH stp 3 e8");
  EXPECT_TRUE(reply.ok);
  EXPECT_FALSE(reply.chains.empty());
}

TEST_F(ResilientClient, PartialWriteFailpointBreaksTheStreamCleanly) {
  if (!stpes::util::failpoints_compiled_in()) {
    GTEST_SKIP() << "failpoints compiled out";
  }
  auto& registry = stpes::util::failpoint_registry::instance();
  registry.clear_all();
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  {
    stpes::server::fd_iostream io{fds[1]};
    io << "SYNTH stp 2 8 this-line-is-long-enough-to-split\n";
    registry.set("fd_stream.write.partial", "once,errno=EPIPE");
    io.flush();
    EXPECT_FALSE(io.good()) << "partial write must poison the stream";
    registry.clear_all();
  }
  ::close(fds[1]);
  // The reader sees a strict prefix — exactly the torn-write shape the
  // resilient client must treat as a dead transport.
  stpes::server::fd_iostream reader{fds[0]};
  std::string line;
  const bool got_line = static_cast<bool>(std::getline(reader, line));
  if (got_line) {
    EXPECT_LT(line.size(),
              std::string{"SYNTH stp 2 8 this-line-is-long-enough-to-split"}
                  .size());
  }
  ::close(fds[0]);
}

}  // namespace
