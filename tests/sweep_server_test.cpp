/// \file sweep_server_test.cpp
/// \brief The daemon's SWEEP verb: argument validation, the OK/ERR reply
///        grammar, admission control (quota, shedding, size limit), live
///        progress in STATS, and the acceptance-criterion latency bound —
///        an in-flight SWEEP must answer a `CANCEL <id>` from another
///        connection in well under 100 ms.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "aig/aig.hpp"
#include "aig/aiger_io.hpp"
#include "server/client.hpp"
#include "server/server.hpp"

#include "pipe_session.hpp"

#ifndef STPES_AIG_DATA_DIR
#define STPES_AIG_DATA_DIR "tests/data/aig"
#endif

namespace {

using stpes::server::line_client;
using stpes::server::server_options;
using stpes::server::synthesis_server;
using stpes::test_support::pipe_session;

const std::string kXorBenchmark =
    std::string{STPES_AIG_DATA_DIR} + "/xor_two_ways.aag";

std::string run_session(synthesis_server& server, const std::string& input) {
  std::istringstream in{input};
  std::ostringstream out;
  server.serve(in, out);
  return out.str();
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

server_options quick_options() {
  server_options opts;
  opts.default_timeout_seconds = 60.0;
  opts.num_threads = 2;
  return opts;
}

/// A scratch AIGER file removed on scope exit.
class temp_aiger {
public:
  temp_aiger(const std::string& name, const stpes::aig::aig_network& net)
      : path_(::testing::TempDir() + name) {
    stpes::aig::write_aiger_file(path_, net);
  }
  ~temp_aiger() { std::remove(path_.c_str()); }
  [[nodiscard]] const std::string& path() const { return path_; }

private:
  std::string path_;
};

/// N-input parity built as two linear XOR chains over *different variable
/// orders* (natural vs a stride-13 permutation).  The two roots are
/// equivalent, but the miter's constraint graph — the union of the two
/// chains — is expander-like, the classic Tseitin family on which
/// resolution (hence CDCL) is exponential.  Measured: a tree-vs-chain
/// miter of the same arity solves in milliseconds, while this one takes
/// ~10 s at n=32 and minutes at n=40, so a sweep over it reliably out-
/// lives any cancellation window the tests need.
stpes::aig::aig_network hard_parity_network(unsigned n) {
  stpes::aig::aig_network net{n};
  stpes::aig::literal natural = net.input_lit(0);
  for (unsigned i = 1; i < n; ++i) {
    natural = net.create_xor(natural, net.input_lit(i));
  }
  // gcd(13, n) must be 1 so the stride walk is a permutation.
  stpes::aig::literal permuted = net.input_lit(0);
  for (unsigned i = 1; i < n; ++i) {
    permuted = net.create_xor(permuted, net.input_lit((13ull * i) % n));
  }
  net.add_output(natural);
  net.add_output(permuted);
  return net;
}

TEST(SweepServer, MalformedSweepLinesAreRejected) {
  synthesis_server server{quick_options()};
  const auto out = run_session(server,
                               "SWEEP\n"
                               "SWEEP a b c d\n"
                               "SWEEP /nonexistent/x.aag notanumber\n"
                               "SWEEP /nonexistent/x.aag -1\n"
                               "SWEEP /nonexistent/x.aag 5 dpll\n"
                               "PING\n");
  const auto lines = split_lines(out);
  ASSERT_EQ(lines.size(), 6u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(lines[i].rfind("ERR ", 0), 0u) << lines[i];
  }
  EXPECT_EQ(lines.back(), "OK pong");
  // None of the rejects touched the job layer.
  EXPECT_EQ(server.counters().sweeps, 0u);
}

TEST(SweepServer, MissingFileIsAnErrNotACrash) {
  synthesis_server server{quick_options()};
  const auto out =
      run_session(server, "SWEEP /nonexistent/no-such.aag\nPING\n");
  const auto lines = split_lines(out);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0].rfind("ERR aiger: cannot open", 0), 0u) << lines[0];
  EXPECT_EQ(lines[1], "OK pong");
}

TEST(SweepServer, LatchedInputIsRejectedWithTheParserMessage) {
  temp_aiger latched_file{"sweep_server_latched.aag",
                          stpes::aig::aig_network{1}};
  {
    // Overwrite with a hand-written sequential file (the writer cannot
    // produce one).
    std::ofstream os{latched_file.path()};
    os << "aag 2 1 1 1 0\n2\n4 2\n4\n";
  }
  synthesis_server server{quick_options()};
  const auto out = run_session(server, "SWEEP " + latched_file.path() + "\n");
  EXPECT_EQ(out.rfind("ERR aiger: 1 latch(es)", 0), 0u) << out;
}

TEST(SweepServer, SweepsAVendoredBenchmarkWithBothProvers) {
  synthesis_server server{quick_options()};
  pipe_session s{server};
  for (const std::string prover : {"cdcl", "allsat"}) {
    const auto r = s.client().sweep(kXorBenchmark, 30.0, prover);
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.ands_before, 6u);
    EXPECT_EQ(r.ands_after, 3u);
    EXPECT_GE(r.merged, 1u);
    EXPECT_EQ(r.proofs, r.merged);
    EXPECT_GE(r.sim_rounds, 1u);
    EXPECT_NE(r.request_id, 0u);
  }
  EXPECT_EQ(server.counters().sweeps, 2u);
  // The run's counters flowed into the service metrics and STATS.
  const auto json = s.client().stats_json();
  EXPECT_NE(json.find("\"sweep_merged_nodes\":"), std::string::npos) << json;
  EXPECT_NE(json.find("\"sweeps\":{\"admitted\":2"), std::string::npos)
      << json;
  s.client().quit();
}

TEST(SweepServer, OversizedNetworksAreRejectedByTheAndLimit) {
  auto opts = quick_options();
  opts.limits.max_aig_ands = 3;
  synthesis_server server{opts};
  const auto out = run_session(server, "SWEEP " + kXorBenchmark + "\nPING\n");
  const auto lines = split_lines(out);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0].rfind("ERR aig too large", 0), 0u) << lines[0];
  EXPECT_EQ(lines[1], "OK pong");
}

TEST(SweepServer, SweepRequestsAreMeteredByTheSessionQuota) {
  auto opts = quick_options();
  opts.max_session_requests = 1;
  synthesis_server server{opts};
  const auto out = run_session(
      server, "SWEEP " + kXorBenchmark + "\nSWEEP " + kXorBenchmark + "\n");
  const auto lines = split_lines(out);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0].rfind("OK swept ", 0), 0u) << lines[0];
  EXPECT_EQ(lines[1].rfind("ERR quota-exceeded", 0), 0u) << lines[1];
  EXPECT_EQ(server.counters().quota_rejections, 1u);
}

TEST(SweepServer, DeadlineExpiryYieldsErrTimeout) {
  synthesis_server server{quick_options()};
  pipe_session s{server};
  // A nanosecond budget on a real file: the sweep starts, observes the
  // deadline at its first poll, and comes back incomplete.
  const auto r = s.client().sweep(kXorBenchmark, 1e-9);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.error, "timeout");
  EXPECT_GE(server.counters().timeouts, 1u);
  s.client().quit();
}

TEST(SweepServer, CancelByIdStopsTheSweepWithinTheLatencyBound) {
  auto opts = quick_options();
  opts.max_timeout_seconds = 600.0;
  synthesis_server server{opts};
  // 24-input parity two ways: the root equivalence is true but its CDCL
  // miter proof is far beyond any test budget, so without the CANCEL this
  // SWEEP would spin for (much) longer than the whole suite.
  temp_aiger hard{"sweep_server_hard_parity.aag", hard_parity_network(40)};

  pipe_session worker{server};
  pipe_session controller{server};

  line_client::sweep_reply reply;
  std::atomic<std::chrono::steady_clock::time_point> reply_at{};
  std::thread runner{[&] {
    reply = worker.client().sweep(hard.path(), 300.0, "cdcl");
    reply_at.store(std::chrono::steady_clock::now(),
                   std::memory_order_release);
  }};

  // Wait until the job is registered, then give the prover a moment to be
  // genuinely inside the hard solve before cancelling.
  std::vector<std::uint64_t> ids;
  while ((ids = server.synthesizer().active_request_ids()).empty()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  const auto cancel_at = std::chrono::steady_clock::now();
  EXPECT_EQ(controller.client().cancel(ids.front()), 1u);
  runner.join();

  const auto latency = std::chrono::duration_cast<std::chrono::milliseconds>(
      reply_at.load(std::memory_order_acquire) - cancel_at);
  EXPECT_FALSE(reply.ok);
  EXPECT_EQ(reply.error, "timeout");
  // The acceptance bound: the CDCL loop polls the shared cancel flag every
  // 256 conflicts, so the reply must land well inside 100 ms even under
  // TSan.
  EXPECT_LT(latency.count(), 100) << "cancel latency " << latency.count()
                                  << " ms";
  EXPECT_GE(server.counters().cancels, 1u);

  // The daemon is fully healthy afterwards: the same session sweeps a
  // small benchmark to completion.
  const auto after = worker.client().sweep(kXorBenchmark, 30.0);
  EXPECT_TRUE(after.ok) << after.error;

  worker.client().quit();
  controller.client().quit();
  worker.finish();
  controller.finish();
}

TEST(SweepServer, ConnectionWideCancelAlsoStopsSweeps) {
  auto opts = quick_options();
  opts.max_timeout_seconds = 600.0;
  synthesis_server server{opts};
  temp_aiger hard{"sweep_server_hard_parity2.aag", hard_parity_network(40)};

  pipe_session worker{server};
  pipe_session controller{server};
  line_client::sweep_reply reply;
  std::atomic<bool> done{false};
  std::thread runner{[&] {
    reply = worker.client().sweep(hard.path(), 300.0, "cdcl");
    done.store(true, std::memory_order_release);
  }};
  while (!done.load(std::memory_order_acquire)) {
    controller.client().cancel();  // broadcast form, no id
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  runner.join();
  EXPECT_FALSE(reply.ok);
  EXPECT_EQ(reply.error, "timeout");

  worker.client().quit();
  controller.client().quit();
  worker.finish();
  controller.finish();
}

TEST(SweepServer, ActiveSweepProgressIsVisibleInStats) {
  auto opts = quick_options();
  opts.max_timeout_seconds = 600.0;
  synthesis_server server{opts};
  temp_aiger hard{"sweep_server_hard_parity3.aag", hard_parity_network(40)};

  pipe_session worker{server};
  pipe_session observer{server};
  line_client::sweep_reply reply;
  std::thread runner{[&] {
    reply = worker.client().sweep(hard.path(), 300.0, "cdcl");
  }};
  std::vector<std::uint64_t> ids;
  while ((ids = server.synthesizer().active_request_ids()).empty()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // While the sweep is in flight, STATS JSON lists it under "sweeps" with
  // its request id and live counters.
  const auto json = observer.client().stats_json();
  EXPECT_NE(json.find("\"sweeps\":{"), std::string::npos) << json;
  EXPECT_NE(json.find("\"id\":" + std::to_string(ids.front())),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"sim_rounds\":"), std::string::npos) << json;
  const auto text = observer.client().stats_text();
  bool saw_active = false;
  for (const auto& line : text) {
    if (line.rfind("sweeps_active", 0) == 0) {
      saw_active = line.find('1') != std::string::npos;
    }
  }
  EXPECT_TRUE(saw_active);

  observer.client().cancel(ids.front());
  runner.join();
  EXPECT_FALSE(reply.ok);

  // Once the job is gone, the active list is empty again.
  const auto after = observer.client().stats_json();
  EXPECT_NE(after.find("\"active\":[]"), std::string::npos) << after;

  worker.client().quit();
  observer.client().quit();
  worker.finish();
  observer.finish();
}

}  // namespace
