/// \file tcp_server_test.cpp
/// \brief The TCP transport: round trips, idle shedding, drain.
///
/// Every test binds 127.0.0.1 port 0 (kernel-assigned ephemeral port, read
/// back through `port()`), so suites run in parallel without collisions
/// and CI needs no fixed-port reservations.  Covered: listen-spec parsing,
/// a full SYNTH round trip over a real TCP socket, the per-session idle
/// timeout (both a half-open peer that never writes and a session that
/// goes silent mid-conversation), the `idle_timeouts` STATS counter, and
/// graceful drain with a connected-but-idle client.

#include <gtest/gtest.h>

#include <csignal>
#include <string>
#include <thread>

#include "server/client.hpp"
#include "server/server.hpp"
#include "server/tcp_socket_server.hpp"
#include "tt/truth_table.hpp"

namespace {

using stpes::core::engine;
using stpes::server::connection;
using stpes::server::endpoint;
using stpes::server::server_options;
using stpes::server::synthesis_server;
using stpes::server::tcp_listen_spec;
using stpes::server::tcp_socket_server;
using stpes::tt::truth_table;

/// A daemon on an ephemeral TCP port with its accept loop on a thread.
class tcp_daemon {
public:
  explicit tcp_daemon(server_options opts = make_options())
      : server_(opts),
        listener_(server_, tcp_listen_spec{"127.0.0.1", 0}),
        thread_([this] { listener_.run(); }) {}

  ~tcp_daemon() { stop(); }

  void stop() {
    if (thread_.joinable()) {
      listener_.stop();
      thread_.join();
    }
  }

  [[nodiscard]] endpoint ep() const {
    endpoint e;
    e.transport = endpoint::kind::tcp;
    e.host_or_path = "127.0.0.1";
    e.port = listener_.port();
    return e;
  }

  [[nodiscard]] synthesis_server& server() { return server_; }

  static server_options make_options() {
    server_options opts;
    opts.default_timeout_seconds = 60.0;
    opts.num_threads = 2;
    opts.drain_grace_seconds = 0.2;
    return opts;
  }

private:
  synthesis_server server_;
  tcp_socket_server listener_;
  std::thread thread_;
};

class TcpServer : public ::testing::Test {
protected:
  void SetUp() override { std::signal(SIGPIPE, SIG_IGN); }
};

TEST_F(TcpServer, ListenSpecParsesHostPortForms) {
  auto spec = tcp_listen_spec::parse("127.0.0.1:8080");
  EXPECT_EQ(spec.host, "127.0.0.1");
  EXPECT_EQ(spec.port, 8080);

  spec = tcp_listen_spec::parse("*:0");
  EXPECT_TRUE(spec.host.empty());
  EXPECT_EQ(spec.port, 0);

  spec = tcp_listen_spec::parse(":4000");
  EXPECT_TRUE(spec.host.empty());
  EXPECT_EQ(spec.port, 4000);

  EXPECT_THROW(tcp_listen_spec::parse("nocolon"), std::runtime_error);
  EXPECT_THROW(tcp_listen_spec::parse("host:notaport"), std::runtime_error);
  EXPECT_THROW(tcp_listen_spec::parse("host:70000"), std::runtime_error);
  EXPECT_THROW(tcp_listen_spec::parse("host:80x"), std::runtime_error);
}

TEST_F(TcpServer, EphemeralPortIsResolvedAndNonZero) {
  tcp_daemon daemon;
  EXPECT_NE(daemon.ep().port, 0);
}

TEST_F(TcpServer, SynthRoundTripOverTcp) {
  tcp_daemon daemon;
  connection conn{daemon.ep(), 2000};
  auto& client = conn.client();

  EXPECT_TRUE(client.ping());
  const auto maj = truth_table::from_hex(3, "e8");
  const auto reply = client.synth(engine::stp, maj);
  ASSERT_TRUE(reply.ok);
  ASSERT_FALSE(reply.chains.empty());
  EXPECT_EQ(reply.chains.front().simulate(), maj);
  client.quit();
}

TEST_F(TcpServer, ConcurrentTcpClientsGetConsistentAnswers) {
  tcp_daemon daemon;
  const auto f = truth_table::from_hex(3, "96");
  std::vector<std::thread> threads;
  std::vector<std::string> raws(4);
  for (std::size_t i = 0; i < raws.size(); ++i) {
    threads.emplace_back([&, i] {
      connection conn{daemon.ep(), 2000};
      auto& client = conn.client();
      const auto reply = client.synth(engine::stp, f);
      EXPECT_TRUE(reply.ok);
      // The head carries a per-session request id; the chain lines are
      // what must be identical across clients.
      const auto& raw = client.last_raw();
      raws[i] = raw.substr(raw.find('\n') + 1);
      client.quit();
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  for (std::size_t i = 1; i < raws.size(); ++i) {
    EXPECT_EQ(raws[i], raws[0]) << "client " << i << " saw a different reply";
  }
}

TEST_F(TcpServer, HalfOpenConnectionIsShedWithIdleTimeout) {
  auto opts = tcp_daemon::make_options();
  opts.idle_timeout_seconds = 0.2;
  tcp_daemon daemon{opts};

  // Connect and never write a byte — the bounded handshake: the read
  // deadline starts at accept, so the session is shed, not pinned.
  connection conn{daemon.ep(), 2000};
  std::string line;
  ASSERT_TRUE(std::getline(conn.stream(), line));
  EXPECT_EQ(line, "ERR idle-timeout");
  EXPECT_FALSE(std::getline(conn.stream(), line))
      << "expected EOF after the shed";
}

TEST_F(TcpServer, IdleAfterTrafficIsShedAndCounted) {
  auto opts = tcp_daemon::make_options();
  opts.idle_timeout_seconds = 0.2;
  tcp_daemon daemon{opts};

  connection conn{daemon.ep(), 2000};
  auto& client = conn.client();
  EXPECT_TRUE(client.ping());  // live traffic first, then silence
  std::string line;
  ASSERT_TRUE(std::getline(conn.stream(), line));
  EXPECT_EQ(line, "ERR idle-timeout");

  // The shed is visible in the daemon's counters.
  EXPECT_EQ(daemon.server().counters().idle_timeouts, 1u);
  connection probe{daemon.ep(), 2000};
  auto& stats_client = probe.client();
  const auto json = stats_client.stats_json();
  EXPECT_NE(json.find("\"idle_timeouts\":1"), std::string::npos) << json;
  stats_client.quit();
}

TEST_F(TcpServer, StopDrainsConnectedIdleClients) {
  tcp_daemon daemon;
  connection conn{daemon.ep(), 2000};
  auto& client = conn.client();
  EXPECT_TRUE(client.ping());
  // The client sits idle (blocked server-side in read); stop() must
  // unblock that session and return — the test hanging IS the failure.
  daemon.stop();
  std::string line;
  EXPECT_FALSE(std::getline(conn.stream(), line));
}

TEST_F(TcpServer, ShutdownVerbStopsTheListener) {
  tcp_daemon daemon;
  {
    connection conn{daemon.ep(), 2000};
    conn.client().shutdown();
  }
  daemon.stop();  // must already be stopping; join promptly
  EXPECT_TRUE(daemon.server().shutdown_requested());
}

}  // namespace
