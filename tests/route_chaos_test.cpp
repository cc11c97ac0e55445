/// \file route_chaos_test.cpp
/// \brief Kill-and-restart chaos for the routing tier.
///
/// The scenario the tier exists for: a fleet of three TCP shards behind a
/// router, one of them dying and coming back mid-workload.  The invariants
/// checked after every storm:
///
///   * no lost replies — every request in a BATCH gets exactly one
///     RESULT block, in request order (the counted framing);
///   * no cross-wiring — every successful chain simulates to the exact
///     function its request asked for;
///   * no hangs — every forward is bounded by connect/read deadlines, so
///     the tests finishing at all is part of the assertion.
///
/// The mid-batch kill is wall-clock racy by design (the kill lands
/// wherever it lands); the assertions are therefore pure invariants that
/// hold for every interleaving.  The deterministic-round test forces the
/// failover path explicitly: kill a shard *between* batches, so every key
/// homed on it must fail over.  Iteration counts are kept small — CI runs
/// this suite 100x under TSan.

#include <gtest/gtest.h>

#include <chrono>
#include <csignal>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "route/router.hpp"
#include "server/client.hpp"
#include "server/resilient_client.hpp"
#include "server/server.hpp"
#include "server/tcp_socket_server.hpp"
#include "tt/truth_table.hpp"
#include "util/failpoint.hpp"

#include "pipe_session.hpp"

namespace {

using stpes::core::engine;
using stpes::route::router;
using stpes::route::router_options;
using stpes::server::endpoint;
using stpes::server::line_client;
using stpes::server::resilient_client;
using stpes::server::retry_policy;
using stpes::server::server_options;
using stpes::server::synthesis_server;
using stpes::server::tcp_listen_spec;
using stpes::server::tcp_socket_server;
using stpes::test_support::pipe_session;
using stpes::tt::truth_table;

/// One restartable TCP shard.
struct shard {
  explicit shard(std::uint16_t port = 0) {
    server_options opts;
    opts.default_timeout_seconds = 60.0;
    opts.num_threads = 2;
    opts.drain_grace_seconds = 0.05;
    daemon = std::make_unique<synthesis_server>(opts);
    listener = std::make_unique<tcp_socket_server>(
        *daemon, tcp_listen_spec{"127.0.0.1", port});
    thread = std::thread{[this] { listener->run(); }};
  }

  ~shard() { stop(); }

  void stop() {
    if (thread.joinable()) {
      listener->stop();
      thread.join();
    }
  }

  [[nodiscard]] std::uint16_t port() const { return listener->port(); }
  [[nodiscard]] std::string spec() const {
    return "127.0.0.1:" + std::to_string(port());
  }

  std::unique_ptr<synthesis_server> daemon;
  std::unique_ptr<tcp_socket_server> listener;
  std::thread thread;
};

router_options chaos_router_options(const std::vector<std::string>& specs) {
  router_options opts;
  opts.backends = specs;
  opts.fail_threshold = 1;  // eject on first transport failure
  opts.probation_ms = 150;
  opts.probe_interval_ms = 0;
  opts.backend_policy.max_attempts = 2;
  opts.backend_policy.connect_timeout_ms = 400;
  opts.backend_policy.io_timeout_ms = 10000;
  opts.backend_policy.base_backoff_ms = 1;
  opts.backend_policy.max_backoff_ms = 4;
  opts.min_retry_hint_ms = 20;
  return opts;
}

/// The test workload: distinct 3-input functions spread over the ring.
std::vector<truth_table> workload(std::size_t n) {
  std::vector<truth_table> fns;
  for (unsigned v = 1; fns.size() < n; v += 11) {
    fns.push_back(truth_table{3, v & 0xff});
  }
  return fns;
}

/// Sends one BATCH with every function and checks the reply invariants:
/// exactly one in-order reply per request, every success simulating to
/// its own function.  Returns the number of non-success replies.
std::size_t run_batch_and_verify(line_client& client,
                                 const std::vector<truth_table>& fns,
                                 bool require_all_ok) {
  std::vector<std::pair<engine, truth_table>> requests;
  requests.reserve(fns.size());
  for (const auto& f : fns) {
    requests.emplace_back(engine::stp, f);
  }
  const auto replies = client.batch(requests);
  EXPECT_EQ(replies.size(), fns.size()) << "lost or duplicated replies";
  std::size_t not_ok = 0;
  for (std::size_t i = 0; i < replies.size(); ++i) {
    const auto& r = replies[i];
    if (r.ok && r.outcome == stpes::synth::status::success) {
      EXPECT_FALSE(r.chains.empty()) << "success with no chain at " << i;
      if (!r.chains.empty()) {
        EXPECT_EQ(r.chains.front().simulate(), fns[i])
            << "cross-wired reply at index " << i;
      }
    } else {
      ++not_ok;
      // Whatever happened, it must be an *answered* failure: busy (shed
      // or degraded) or an ERR mapped into the result block.
      EXPECT_TRUE(r.busy || !r.error.empty() ||
                  r.outcome != stpes::synth::status::success)
          << "unanswered request at index " << i;
    }
  }
  if (require_all_ok) {
    EXPECT_EQ(not_ok, 0u);
  }
  return not_ok;
}

class RouteChaos : public ::testing::Test {
protected:
  void SetUp() override {
    std::signal(SIGPIPE, SIG_IGN);
    if (stpes::util::failpoints_compiled_in()) {
      stpes::util::failpoint_registry::instance().clear_all();
    }
  }
  void TearDown() override {
    if (stpes::util::failpoints_compiled_in()) {
      stpes::util::failpoint_registry::instance().clear_all();
    }
  }
};

TEST_F(RouteChaos, KillAndRestartBetweenBatchesLosesNoRequests) {
  shard a, b, c;
  router r{chaos_router_options({a.spec(), b.spec(), c.spec()})};
  pipe_session session{r};
  const auto fns = workload(12);

  // Round 1: full fleet — everything succeeds.
  run_batch_and_verify(session.client(), fns, /*require_all_ok=*/true);

  // Round 2: one shard dead — every key it owned fails over (and only
  // those: the ring tells us exactly how many), still zero losses, zero
  // cross-wiring.
  std::uint64_t owned_by_b = 0;
  for (const auto& f : fns) {
    stpes::server::synth_args args;
    args.function = f;
    const auto h = stpes::route::fnv1a64(router::request_key(args));
    if (r.ring().home(h) == 1) {
      ++owned_by_b;
    }
  }
  const auto port = b.port();
  b.stop();
  run_batch_and_verify(session.client(), fns, /*require_all_ok=*/true);
  EXPECT_EQ(r.counters().failovers, owned_by_b)
      << "every key homed on the dead shard (and only those) fails over";

  // Round 3: shard back (same port), probation elapsed — the fleet heals
  // and the batch still answers everything.
  shard revived{port};
  std::this_thread::sleep_for(
      std::chrono::milliseconds(r.options().probation_ms + 50));
  r.probe_once();
  run_batch_and_verify(session.client(), fns, /*require_all_ok=*/true);
}

TEST_F(RouteChaos, KillMidBatchEveryRequestIsAnswered) {
  shard a, b, c;
  router r{chaos_router_options({a.spec(), b.spec(), c.spec()})};
  pipe_session session{r};
  const auto fns = workload(24);

  // The kill lands somewhere inside the batch (the exact request index is
  // the race under test).  Every interleaving must satisfy the
  // invariants; whether individual requests failed over or errored is
  // timing-dependent and deliberately unasserted.
  std::thread killer{[&b] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    b.stop();
  }};
  run_batch_and_verify(session.client(), fns, /*require_all_ok=*/false);
  killer.join();

  // The batch after the dust settles is clean again (dead shard is
  // ejected; survivors own the whole ring).
  run_batch_and_verify(session.client(), fns, /*require_all_ok=*/true);
}

TEST_F(RouteChaos, RestartMidBatchIsRiddenOut) {
  shard a, b, c;
  router r{chaos_router_options({a.spec(), b.spec(), c.spec()})};
  pipe_session session{r};
  const auto fns = workload(24);

  const auto port = c.port();
  std::unique_ptr<shard> revived;
  std::thread bouncer{[&c, &revived, port] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    c.stop();
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    revived = std::make_unique<shard>(port);
  }};
  run_batch_and_verify(session.client(), fns, /*require_all_ok=*/false);
  bouncer.join();
  run_batch_and_verify(session.client(), fns, /*require_all_ok=*/true);
}

TEST_F(RouteChaos, NetworkFailpointStormOverTcpFrontend) {
  if (!stpes::util::failpoints_compiled_in()) {
    GTEST_SKIP() << "failpoints compiled out";
  }
  auto& registry = stpes::util::failpoint_registry::instance();

  shard a, b, c;
  router r{chaos_router_options({a.spec(), b.spec(), c.spec()})};
  // A real TCP front for the router, so the driving path (resilient
  // client) rides the same storm as the backend forwards.
  tcp_socket_server front{r, tcp_listen_spec{"127.0.0.1", 0}};
  std::thread front_thread{[&front] { front.run(); }};

  endpoint ep;
  ep.transport = endpoint::kind::tcp;
  ep.host_or_path = "127.0.0.1";
  ep.port = front.port();
  retry_policy policy;
  policy.max_attempts = 6;
  policy.connect_timeout_ms = 1000;
  policy.io_timeout_ms = 10000;
  policy.base_backoff_ms = 1;
  policy.max_backoff_ms = 16;
  resilient_client client{ep, policy};

  // One deterministic injection per request, rotating through every
  // network seam: each `once` trigger fires on the very next evaluation
  // — somewhere inside the round trip in flight (driving client, router
  // session, backend forward, or shard reply) — and disarms, so each
  // request faces exactly one torn read, torn write, or partial write
  // and the retry machinery must absorb it.
  const char* seams[] = {"fd_stream.read", "fd_stream.write",
                         "fd_stream.write.partial"};
  const auto fns = workload(12);
  for (std::size_t i = 0; i < fns.size(); ++i) {
    registry.set(seams[i % 3], "once,errno=ECONNRESET");
    const auto reply = client.synth(engine::stp, fns[i]);
    // Busy (degraded routing while ejections settle) is an answer;
    // success must be *correct* — never another request's chain.
    if (reply.ok && reply.outcome == stpes::synth::status::success) {
      ASSERT_FALSE(reply.chains.empty());
      EXPECT_EQ(reply.chains.front().simulate(), fns[i]);
    }
  }
  registry.clear_all();
  EXPECT_GT(client.metrics().retries + client.metrics().reconnects +
                r.counters().client_retries +
                r.counters().client_reconnects +
                r.counters().backend_failures,
            0u)
      << "twelve injections fired yet nothing ever retried";

  // Dropped accepts: the connection stays in the backlog and is accepted
  // on the next loop pass, so fresh connections only see added latency.
  registry.set("tcp_server.accept", "every=2,errno=ECONNRESET");
  for (int i = 0; i < 4; ++i) {
    resilient_client fresh{ep, policy};
    EXPECT_TRUE(fresh.ping());
  }
  registry.clear_all();

  // Clear skies: the fleet must heal completely and answer everything.
  std::this_thread::sleep_for(
      std::chrono::milliseconds(r.options().probation_ms + 50));
  for (const auto& f : fns) {
    const auto reply = client.synth(engine::stp, f);
    ASSERT_TRUE(reply.ok) << reply.error;
    EXPECT_EQ(reply.outcome, stpes::synth::status::success);
    ASSERT_FALSE(reply.chains.empty());
    EXPECT_EQ(reply.chains.front().simulate(), f);
  }

  front.stop();
  front_thread.join();
}

}  // namespace
