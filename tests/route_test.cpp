/// \file route_test.cpp
/// \brief The routing tier: ring, health machine, failover, degradation.
///
/// The ring and health tracker are tested as pure state machines (explicit
/// time points, no sleeping).  The router end-to-end tests run a real
/// fleet of TCP daemons on ephemeral ports (a shard that a test kills
/// listens on a private Unix socket instead) and drive the router through
/// scripted iostream sessions — the same `session_host` seam the
/// listeners use — so routing decisions, failover, and degraded-mode BUSY
/// replies are observable without any listener in front of the router.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "route/health.hpp"
#include "route/ring.hpp"
#include "route/router.hpp"
#include "server/protocol.hpp"
#include "server/server.hpp"
#include "server/socket_server.hpp"
#include "server/tcp_socket_server.hpp"
#include "service/chain_io.hpp"
#include "tt/npn.hpp"
#include "tt/truth_table.hpp"
#include "util/failpoint.hpp"

namespace {

using stpes::route::backend_health;
using stpes::route::fnv1a64;
using stpes::route::hash_ring;
using stpes::route::health_tracker;
using stpes::route::router;
using stpes::route::router_options;
using stpes::server::server_options;
using stpes::server::synthesis_server;
using stpes::server::tcp_listen_spec;
using stpes::server::tcp_socket_server;
using stpes::tt::truth_table;

// ---- hash ring ----

TEST(Ring, HomeIsDeterministicAndPreferenceCoversAllBackendsOnce) {
  const hash_ring ring{{"a:1", "b:2", "c:3"}, 32};
  for (std::uint64_t key = 0; key < 200; ++key) {
    const auto h = fnv1a64(std::to_string(key));
    const auto home = ring.home(h);
    const auto pref = ring.preference(h);
    ASSERT_EQ(pref.size(), 3u);
    EXPECT_EQ(pref.front(), home);
    EXPECT_EQ(std::set<std::size_t>(pref.begin(), pref.end()).size(), 3u);
    // Determinism: ask again, same answer.
    EXPECT_EQ(ring.home(h), home);
    EXPECT_EQ(ring.preference(h), pref);
  }
}

TEST(Ring, KeysSpreadAcrossBackends) {
  const hash_ring ring{{"a:1", "b:2", "c:3"}, 64};
  std::vector<unsigned> hits(3, 0);
  for (std::uint64_t key = 0; key < 300; ++key) {
    ++hits[ring.home(fnv1a64("key" + std::to_string(key)))];
  }
  for (std::size_t b = 0; b < hits.size(); ++b) {
    EXPECT_GT(hits[b], 30u) << "backend " << b << " is starved";
  }
}

TEST(Ring, RemovingABackendOnlyMovesItsOwnKeys) {
  const hash_ring full{{"a:1", "b:2", "c:3"}, 64};
  const hash_ring reduced{{"a:1", "b:2"}, 64};
  for (std::uint64_t key = 0; key < 300; ++key) {
    const auto h = fnv1a64("key" + std::to_string(key));
    const auto home = full.home(h);
    if (home != 2) {
      // Consistent hashing's contract: keys not homed on the removed
      // backend keep their placement.
      EXPECT_EQ(reduced.home(h), home);
    }
  }
}

// ---- health tracker ----

TEST(Health, EjectsAtThresholdAndSitsOutProbation) {
  using clock = health_tracker::clock;
  const auto t0 = clock::now();
  health_tracker health{2, /*fail_threshold=*/3, /*probation_ms=*/1000};

  EXPECT_TRUE(health.attemptable(0, t0));
  health.record_failure(0, t0);
  health.record_failure(0, t0);
  EXPECT_TRUE(health.healthy(0)) << "below threshold: still healthy";
  health.record_failure(0, t0);
  EXPECT_FALSE(health.healthy(0));
  EXPECT_EQ(health.status(0).ejections, 1u);

  // Inside the probation window: untouchable.
  EXPECT_FALSE(health.attemptable(0, t0 + std::chrono::milliseconds(500)));
  // Window elapsed: probe-eligible (still marked down).
  EXPECT_TRUE(health.attemptable(0, t0 + std::chrono::milliseconds(1001)));
  EXPECT_FALSE(health.healthy(0));

  // The other backend never flinched.
  EXPECT_TRUE(health.healthy(1));
}

TEST(Health, SuccessReadmitsAndFailureRefreshesTheWindow) {
  using clock = health_tracker::clock;
  const auto t0 = clock::now();
  health_tracker health{1, 1, 1000};

  health.record_failure(0, t0);
  EXPECT_FALSE(health.healthy(0));

  // A failed probation trial at t0+1200 restarts the clock from there.
  health.record_failure(0, t0 + std::chrono::milliseconds(1200));
  EXPECT_FALSE(
      health.attemptable(0, t0 + std::chrono::milliseconds(2100)));
  EXPECT_TRUE(health.attemptable(0, t0 + std::chrono::milliseconds(2201)));

  health.record_success(0);
  EXPECT_TRUE(health.healthy(0));
  EXPECT_EQ(health.status(0).readmissions, 1u);
  EXPECT_EQ(health.status(0).consecutive_failures, 0u);
}

TEST(Health, RetryHintIsEarliestProbationExpiryFloored) {
  using clock = health_tracker::clock;
  const auto t0 = clock::now();
  health_tracker health{2, 1, 1000};

  // Anything attemptable => the floor.
  EXPECT_EQ(health.retry_hint_ms(50, t0), 50u);

  health.record_failure(0, t0);
  health.record_failure(1, t0 + std::chrono::milliseconds(400));
  // Both down at t0+500: backend 0 frees up at t0+1000 -> 500 ms away.
  EXPECT_EQ(health.retry_hint_ms(50, t0 + std::chrono::milliseconds(500)),
            500u);
  // Near expiry the computed hint dips below the floor; the floor wins.
  EXPECT_EQ(health.retry_hint_ms(50, t0 + std::chrono::milliseconds(990)),
            50u);
}

// ---- routing key ----

TEST(RouteKey, NpnClassmatesShareAKey) {
  const auto maj = truth_table::from_hex(3, "e8");
  const truth_table negated = ~maj;  // output negation: same NPN class
  stpes::server::synth_args a;
  a.function = maj;
  stpes::server::synth_args b;
  b.function = negated;
  EXPECT_EQ(router::request_key(a), router::request_key(b));

  // A different class keys differently.
  stpes::server::synth_args c;
  c.function = truth_table::from_hex(3, "80");
  EXPECT_NE(router::request_key(a), router::request_key(c));

  // Multi-output requests key on the raw list.
  stpes::server::synth_args m;
  m.functions = {maj, truth_table::from_hex(3, "96")};
  EXPECT_NE(router::request_key(m), router::request_key(a));
  stpes::server::synth_args m2 = m;
  EXPECT_EQ(router::request_key(m), router::request_key(m2));
}

// ---- router end to end ----

/// One daemon of the test fleet: TCP on 127.0.0.1 (restartable on a
/// pinned port), or a Unix socket at a path.
struct shard {
  explicit shard(std::uint16_t port = 0) {
    auto tcp = std::make_unique<tcp_socket_server>(
        *daemon, tcp_listen_spec{"127.0.0.1", port});
    port_ = tcp->port();
    spec_ = "127.0.0.1:" + std::to_string(port_);
    listener = std::move(tcp);
    thread = std::thread{[this] { listener->run(); }};
  }

  /// A shard that a test kills stays dead on a Unix socket: the socket
  /// file outlives `stop()` (connects to it are refused) and its path is
  /// private to this process, so no other process can start answering
  /// for the dead shard.  A freed TCP port offers no such guarantee.
  explicit shard(const std::string& socket_path) {
    listener = std::make_unique<stpes::server::unix_socket_server>(
        *daemon, socket_path);
    spec_ = "unix:" + socket_path;
    thread = std::thread{[this] { listener->run(); }};
  }

  ~shard() { stop(); }

  void stop() {
    if (thread.joinable()) {
      listener->stop();
      thread.join();
    }
  }

  [[nodiscard]] std::uint16_t port() const { return port_; }
  [[nodiscard]] const std::string& spec() const { return spec_; }

  static std::unique_ptr<synthesis_server> make_daemon() {
    server_options opts;
    opts.default_timeout_seconds = 60.0;
    opts.num_threads = 2;
    opts.drain_grace_seconds = 0.1;
    return std::make_unique<synthesis_server>(opts);
  }

  std::unique_ptr<synthesis_server> daemon = make_daemon();
  std::unique_ptr<stpes::server::stream_listener> listener;
  std::thread thread;

private:
  std::uint16_t port_ = 0;
  std::string spec_;
};

/// A Unix socket path no other process uses: pid plus a per-test tag.
std::string private_socket_path(const std::string& tag) {
  return "/tmp/stpes_route_" + std::to_string(::getpid()) + "_" + tag +
         ".sock";
}

router_options quick_router_options(const std::vector<std::string>& specs) {
  router_options opts;
  opts.backends = specs;
  opts.fail_threshold = 2;
  opts.probation_ms = 200;
  opts.probe_interval_ms = 0;  // tests drive probe_once() themselves
  opts.backend_policy.max_attempts = 2;
  opts.backend_policy.connect_timeout_ms = 500;
  opts.backend_policy.io_timeout_ms = 5000;
  opts.backend_policy.base_backoff_ms = 1;
  opts.backend_policy.max_backoff_ms = 4;
  opts.min_retry_hint_ms = 50;
  return opts;
}

std::string run_route_session(router& r, const std::string& input) {
  std::istringstream in{input};
  std::ostringstream out;
  r.serve(in, out);
  return out.str();
}

/// The backend index `r`'s ring homes a SYNTH of `f` on.
std::size_t home_of(const router& r, const truth_table& f) {
  stpes::server::synth_args args;
  args.function = f;
  return r.ring().home(fnv1a64(router::request_key(args)));
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream is{text};
  std::string line;
  while (std::getline(is, line)) {
    lines.push_back(line);
  }
  return lines;
}

class Route : public ::testing::Test {
protected:
  void SetUp() override { std::signal(SIGPIPE, SIG_IGN); }
};

TEST_F(Route, SynthRoutesToABackendAndRelaysTheReply) {
  shard a, b, c;
  router r{quick_router_options({a.spec(), b.spec(), c.spec()})};
  const auto out =
      run_route_session(r, "PING\nSYNTH stp 3 e8\nBOGUS\nQUIT\n");
  const auto lines = split_lines(out);
  ASSERT_GE(lines.size(), 4u) << out;
  EXPECT_EQ(lines[0], "OK pong");
  EXPECT_EQ(lines[1].rfind("OK success ", 0), 0u) << lines[1];
  // The relayed chain is the backend's verbatim reply: it must simulate.
  const auto maj = truth_table::from_hex(3, "e8");
  EXPECT_EQ(stpes::service::parse_chain(lines[2]).simulate(), maj);
  EXPECT_EQ(r.counters().routed_ok, 1u);
  EXPECT_EQ(r.counters().parse_errors, 1u);  // BOGUS
}

TEST_F(Route, MalformedRequestsDieAtTheRouterNotTheBackend) {
  shard a;
  router r{quick_router_options({a.spec()})};
  const auto out = run_route_session(r, "SYNTH stp 99 e8\nQUIT\n");
  EXPECT_EQ(out.rfind("ERR ", 0), 0u) << out;
  EXPECT_EQ(r.counters().routed_ok, 0u);
  EXPECT_EQ(a.daemon->counters().commands, 0u)
      << "a malformed request must never reach a backend";
}

TEST_F(Route, SameClassAlwaysHitsTheSameShard) {
  shard a, b, c;
  router r{quick_router_options({a.spec(), b.spec(), c.spec()})};
  // Ten times the same class: exactly one backend sees traffic for it.
  std::string script;
  for (int i = 0; i < 10; ++i) {
    script += "SYNTH stp 3 e8\n";
  }
  script += "QUIT\n";
  run_route_session(r, script);
  unsigned backends_hit = 0;
  for (const shard* s : {&a, &b, &c}) {
    backends_hit += s->daemon->counters().commands > 0 ? 1 : 0;
  }
  EXPECT_EQ(backends_hit, 1u);
  EXPECT_EQ(r.counters().routed_ok, 10u);
}

TEST_F(Route, FailoverServesKeysOfADeadShard) {
  shard a, c;
  shard b{private_socket_path("failover_b")};
  router r{quick_router_options({a.spec(), b.spec(), c.spec()})};

  // One request per 3-input class spreads across all shards, but the ring
  // (built on this run's endpoints) may home none of those few classes on
  // b: then the first 4-input function it homes there joins the script.
  std::vector<truth_table> functions;
  for (unsigned v = 0; v < 256; v += 7) {
    const std::uint64_t word = v;
    functions.push_back(truth_table::from_words(3, &word, 1));
  }
  const auto homed_on_b = [&] {
    return static_cast<std::size_t>(std::count_if(
        functions.begin(), functions.end(),
        [&r](const truth_table& f) { return home_of(r, f) == 1; }));
  };
  for (std::uint64_t v = 1; v < 0xffff && homed_on_b() == 0; ++v) {
    const auto f = truth_table::from_words(4, &v, 1);
    if (home_of(r, f) == 1) {
      functions.push_back(f);
    }
  }
  ASSERT_GT(homed_on_b(), 0u);
  std::string script;
  for (const auto& f : functions) {
    script += "SYNTH stp " + std::to_string(f.num_vars()) + " " + f.to_hex() +
              "\n";
  }
  script += "QUIT\n";
  run_route_session(r, script);
  EXPECT_EQ(r.counters().routed_ok, functions.size());

  // Kill one shard; every key must still get an OK (ring failover).
  b.stop();
  const auto out = run_route_session(r, script);
  const auto lines = split_lines(out);
  unsigned oks = 0;
  for (const auto& line : lines) {
    oks += line.rfind("OK success ", 0) == 0 ? 1 : 0;
  }
  EXPECT_EQ(oks, functions.size()) << "every request must survive the kill";
  EXPECT_GE(r.counters().failovers, homed_on_b())
      << "every request homed on the dead shard is served by a replica";
  EXPECT_GT(r.counters().backend_failures, 0u);
}

TEST_F(Route, AllBackendsDownDegradesToBusyWithComputedHint) {
  shard a{private_socket_path("down_a")};
  shard b{private_socket_path("down_b")};
  auto opts = quick_router_options({a.spec(), b.spec()});
  opts.fail_threshold = 1;
  router r{opts};
  a.stop();
  b.stop();

  const auto out =
      run_route_session(r, "SYNTH stp 3 e8\nSYNTH stp 3 96\nQUIT\n");
  const auto lines = split_lines(out);
  ASSERT_GE(lines.size(), 2u) << out;
  // First request ejects both backends (it walks the whole ring); from
  // then on the router degrades instantly with a BUSY hint.
  EXPECT_EQ(lines[1].rfind("BUSY retry-after ", 0), 0u) << lines[1];
  const auto hint =
      std::stoul(lines[1].substr(std::string{"BUSY retry-after "}.size()));
  EXPECT_GE(hint, r.options().min_retry_hint_ms);
  EXPECT_LE(hint, r.options().probation_ms);
  EXPECT_GT(r.counters().degraded_busy, 0u);
}

TEST_F(Route, BatchDecomposesAndReassemblesInOrder) {
  shard a, b, c;
  router r{quick_router_options({a.spec(), b.spec(), c.spec()})};
  // Five classes, plus the first further class homed on another shard if
  // the ring (built on this run's ephemeral ports) homes all five on one:
  // the batch must span shards.
  std::vector<std::string> hexes{"e8", "96", "80", "06", "68"};
  std::set<std::size_t> homes;
  for (const auto& h : hexes) {
    homes.insert(home_of(r, truth_table::from_hex(3, h)));
  }
  for (unsigned v = 1; v < 255 && homes.size() < 2; ++v) {
    std::ostringstream os;
    os << std::hex << (v < 16 ? "0" : "") << v;
    if (homes.insert(home_of(r, truth_table::from_hex(3, os.str()))).second) {
      hexes.push_back(os.str());
    }
  }
  ASSERT_GE(homes.size(), 2u);
  std::string script = "BATCH\n";
  for (const auto& h : hexes) {
    script += "stp 3 " + h + "\n";
  }
  script += "END\nQUIT\n";
  const auto out = run_route_session(r, script);
  const auto lines = split_lines(out);
  ASSERT_GE(lines.size(), 1u + hexes.size());
  EXPECT_EQ(lines[0], "OK " + std::to_string(hexes.size()));
  std::size_t cursor = 1;
  for (std::size_t i = 0; i < hexes.size(); ++i) {
    const auto head = lines.at(cursor++);
    std::istringstream is{head};
    std::string kw, status;
    std::size_t index = 0;
    unsigned gates = 0;
    std::size_t num_chains = 0;
    ASSERT_TRUE(is >> kw >> index >> status >> gates >> num_chains) << head;
    EXPECT_EQ(kw, "RESULT");
    EXPECT_EQ(index, i) << "results must come back in request order";
    EXPECT_EQ(status, "success");
    ASSERT_GT(num_chains, 0u);
    const auto f = truth_table::from_hex(3, hexes[i]);
    for (std::size_t k = 0; k < num_chains; ++k) {
      EXPECT_EQ(stpes::service::parse_chain(lines.at(cursor++)).simulate(),
                f)
          << "cross-wired reply at index " << i;
    }
  }
  // Exactly the shards the keys home on served parts of the batch.
  std::set<std::size_t> served;
  const std::vector<const shard*> fleet{&a, &b, &c};
  for (std::size_t idx = 0; idx < fleet.size(); ++idx) {
    if (fleet[idx]->daemon->counters().commands > 0) {
      served.insert(idx);
    }
  }
  EXPECT_EQ(served, homes);
}

TEST_F(Route, ProbesDriveEjectionAndReadmission) {
  shard a;
  shard b;
  auto opts = quick_router_options({a.spec(), b.spec()});
  opts.fail_threshold = 2;
  opts.probation_ms = 100;
  router r{opts};

  r.probe_once();
  EXPECT_EQ(r.counters().probes_ok, 2u);
  EXPECT_TRUE(r.health().healthy(0));
  EXPECT_TRUE(r.health().healthy(1));

  const auto port = b.port();
  b.stop();
  r.probe_once();
  r.probe_once();
  EXPECT_FALSE(r.health().healthy(1)) << "two failed probes must eject";
  EXPECT_EQ(r.health().status(1).ejections, 1u);

  // Restart on the same port, wait out probation, probe: readmitted.
  shard revived{port};
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  r.probe_once();
  EXPECT_TRUE(r.health().healthy(1));
  EXPECT_EQ(r.health().status(1).readmissions, 1u);
}

TEST_F(Route, ProbeBlackholeFailpointEjectsLiveBackends) {
  if (!stpes::util::failpoints_compiled_in()) {
    GTEST_SKIP() << "failpoints compiled out";
  }
  auto& registry = stpes::util::failpoint_registry::instance();
  registry.clear_all();
  shard a;
  auto opts = quick_router_options({a.spec()});
  opts.fail_threshold = 2;
  opts.probation_ms = 100;
  router r{opts};

  registry.set("route.probe", "always,errno=ECONNRESET");
  r.probe_once();
  r.probe_once();
  registry.clear_all();
  EXPECT_FALSE(r.health().healthy(0))
      << "blackholed probes must look like a dead backend";
  EXPECT_EQ(r.counters().probes_failed, 2u);

  // The daemon was alive all along: after probation one clean probe
  // readmits it.
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  r.probe_once();
  EXPECT_TRUE(r.health().healthy(0));
}

TEST_F(Route, StatsExposeRoutingAndClientCounters) {
  shard a;
  router r{quick_router_options({a.spec()})};
  const auto out =
      run_route_session(r, "SYNTH stp 3 e8\nSTATS JSON\nQUIT\n");
  EXPECT_NE(out.find("\"routed_ok\":1"), std::string::npos) << out;
  EXPECT_NE(out.find("\"failovers\":0"), std::string::npos);
  EXPECT_NE(out.find("\"reconnects\":"), std::string::npos);
  EXPECT_NE(out.find("\"state\":\"healthy\""), std::string::npos);
  const auto text = r.stats_text();
  EXPECT_NE(text.find("routed_ok"), std::string::npos);
  EXPECT_NE(text.find("backend.0"), std::string::npos);
}

TEST_F(Route, RouterRejectsNonRoutableVerbs) {
  shard a;
  router r{quick_router_options({a.spec()})};
  const auto out = run_route_session(r, "SWEEP /tmp/x.aig\nQUIT\n");
  EXPECT_EQ(out.rfind("ERR ", 0), 0u) << out;
}

}  // namespace
