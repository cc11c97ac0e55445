/// \file server_test.cpp
/// \brief Daemon failure modes and protocol behaviour, all in pipe mode.
///
/// Every test drives `synthesis_server` sessions over in-process streams —
/// scripted stringstream transcripts for the sequential cases, real POSIX
/// pipes (the daemon's `--pipe` transport) for the concurrent ones — so CI
/// never touches a socket.  Covered failure modes: malformed command
/// lines, oversized truth-table payloads, client disconnect mid-request,
/// concurrent clients on one NPN class (single-flight observed via STATS),
/// timeout expiry, and graceful drain with a request in flight.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "server/client.hpp"
#include "server/server.hpp"
#include "server/socket_server.hpp"
#include "service/chain_io.hpp"
#include "util/failpoint.hpp"
#include "workload/collections.hpp"

#include "pipe_session.hpp"

namespace {

using stpes::core::engine;
using stpes::server::line_client;
using stpes::server::server_options;
using stpes::server::synthesis_server;
using stpes::test_support::pipe_session;
using stpes::tt::truth_table;

/// Runs one scripted session and returns the full reply transcript.
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

/// A scratch file removed on scope exit.
class temp_file {
public:
  explicit temp_file(const std::string& name)
      : path_(::testing::TempDir() + name) {}
  ~temp_file() { std::remove(path_.c_str()); }
  [[nodiscard]] const std::string& path() const { return path_; }

private:
  std::string path_;
};

TEST(Server, PingAndUnknownCommandsKeepTheSessionAlive) {
  synthesis_server server{quick_options()};
  const auto out = run_session(server, "PING\nBOGUS 1 2 3\n\n  \nPING\n");
  EXPECT_EQ(out, "OK pong\nERR unknown command 'BOGUS'\nOK pong\n");
  EXPECT_EQ(server.counters().parse_errors, 1u);
}

TEST(Server, SynthRoundTripReturnsVerifiableChains) {
  synthesis_server server{quick_options()};
  const auto lines = split_lines(run_session(server, "SYNTH stp 2 8\n"));
  ASSERT_GE(lines.size(), 2u);
  EXPECT_EQ(lines[0].rfind("OK success 1 ", 0), 0u) << lines[0];
  // Every returned chain line must parse and realize x0 & x1.
  const auto and2 = truth_table{2, 0x8};
  for (std::size_t i = 1; i < lines.size(); ++i) {
    EXPECT_EQ(stpes::service::parse_chain(lines[i]).simulate(), and2);
  }
}

TEST(Server, MalformedLinesPoisonOnlyTheirRequest) {
  synthesis_server server{quick_options()};
  const auto out = run_session(server,
                               "SYNTH nope 2 8\n"
                               "SYNTH stp two 8\n"
                               "SYNTH stp 2 88\n"
                               "SYNTH stp 2 g\n"
                               "SYNTH stp 2 8 -1\n"
                               "SYNTH stp 2\n"
                               "SAVE\n"
                               "STATS BOGUS\n"
                               "SYNTH stp 2 8\n");
  const auto lines = split_lines(out);
  ASSERT_GE(lines.size(), 9u);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(lines[i].rfind("ERR ", 0), 0u) << lines[i];
  }
  // The ninth request still synthesizes.
  EXPECT_EQ(lines[8].rfind("OK success 1 ", 0), 0u) << lines[8];
  EXPECT_EQ(server.counters().parse_errors, 8u);
}

TEST(Server, MultiOutputSynthReturnsOneSharedChainSet) {
  synthesis_server server{quick_options()};
  // The 2-output full adder over a comma-separated hex list: sum, carry.
  const auto lines =
      split_lines(run_session(server, "SYNTH stp 3 96,e8\n"));
  ASSERT_GE(lines.size(), 2u);
  EXPECT_EQ(lines[0].rfind("OK success 5 ", 0), 0u) << lines[0];
  EXPECT_NE(lines[0].find(" outputs=2 "), std::string::npos) << lines[0];
  const auto sum = truth_table::from_hex(3, "96");
  const auto carry = truth_table::from_hex(3, "e8");
  for (std::size_t i = 1; i < lines.size(); ++i) {
    EXPECT_EQ(lines[i].rfind("mchain 3 5 2 ", 0), 0u) << lines[i];
    const auto c = stpes::service::parse_chain(lines[i]);
    ASSERT_EQ(c.num_outputs(), 2u);
    EXPECT_EQ(c.simulate_output(0), sum);
    EXPECT_EQ(c.simulate_output(1), carry);
  }
  // Single-output replies carry no outputs= tag: byte compatibility with
  // the previous protocol generation.
  const auto single = split_lines(run_session(server, "SYNTH stp 2 8\n"));
  ASSERT_GE(single.size(), 1u);
  EXPECT_EQ(single[0].find("outputs="), std::string::npos) << single[0];
}

TEST(Server, MalformedOutputListsAreRejected) {
  synthesis_server server{quick_options()};
  const auto out = run_session(server,
                               "SYNTH stp 2 8,\n"
                               "SYNTH stp 2 ,8\n"
                               "SYNTH stp 2 8,fff\n"
                               "SYNTH stp 2 8,6,9,8,6,9,8,6,9\n"
                               "SYNTH stp 3 96,e8\n");
  const auto lines = split_lines(out);
  ASSERT_GE(lines.size(), 5u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(lines[i].rfind("ERR ", 0), 0u) << lines[i];
  }
  EXPECT_NE(lines[3].find("too many outputs"), std::string::npos)
      << lines[3];
  // The well-formed list after the garbage still synthesizes.
  EXPECT_EQ(lines[4].rfind("OK success 5 ", 0), 0u) << lines[4];
  EXPECT_EQ(server.counters().parse_errors, 4u);
}

TEST(Server, BatchRowsAcceptMultiOutputLists) {
  synthesis_server server{quick_options()};
  const auto out = run_session(server,
                               "BATCH\n"
                               "stp 3 96,e8\n"
                               "stp 2 8\n"
                               "END\n");
  const auto lines = split_lines(out);
  ASSERT_GE(lines.size(), 4u);
  EXPECT_EQ(lines[0].rfind("OK 2 id=", 0), 0u) << lines[0];
  // The multi row's RESULT head is tagged; its chains are mchain lines.
  EXPECT_EQ(lines[1].rfind("RESULT 0 success 5 ", 0), 0u) << lines[1];
  EXPECT_NE(lines[1].find(" outputs=2"), std::string::npos) << lines[1];
  std::size_t result1_at = 0;
  for (std::size_t i = 2; i < lines.size(); ++i) {
    if (lines[i].rfind("RESULT 1 ", 0) == 0) {
      result1_at = i;
    }
  }
  ASSERT_GT(result1_at, 2u);
  const auto sum = truth_table::from_hex(3, "96");
  const auto carry = truth_table::from_hex(3, "e8");
  for (std::size_t i = 2; i < result1_at; ++i) {
    const auto c = stpes::service::parse_chain(lines[i]);
    ASSERT_EQ(c.num_outputs(), 2u);
    EXPECT_EQ(c.simulate_output(0), sum);
    EXPECT_EQ(c.simulate_output(1), carry);
  }
  // The single-output row stays untagged.
  EXPECT_EQ(lines[result1_at].find("outputs="), std::string::npos)
      << lines[result1_at];
}

TEST(Server, OversizedPayloadsAreRejectedUpFront) {
  synthesis_server server{quick_options()};
  // Arity over the wire limit: rejected before any synthesis work.
  const std::string big_tt(1024, 'f');
  const auto out =
      run_session(server, "SYNTH stp 12 " + big_tt + "\nPING\n");
  const auto lines = split_lines(out);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0].rfind("ERR truth table too large", 0), 0u) << lines[0];
  EXPECT_EQ(lines[1], "OK pong");

  // A line beyond max_line_bytes is refused without parsing — and without
  // buffering: the bounded reader drops the excess as it streams in.
  const std::string huge(8192, 'a');
  const auto out2 = run_session(server, huge + "\nPING\n");
  const auto lines2 = split_lines(out2);
  ASSERT_EQ(lines2.size(), 2u);
  EXPECT_EQ(lines2[0].rfind("ERR line-too-long", 0), 0u) << lines2[0];
  EXPECT_EQ(lines2[1], "OK pong");
  EXPECT_EQ(server.synthesizer().current_metrics().requests, 0u);

  // Same for a multi-megabyte line: the reply must not echo its size back
  // (the old implementation buffered the whole line before rejecting).
  const std::string monster(4u << 20, 'b');
  const auto out3 = run_session(server, monster + "\nPING\n");
  const auto lines3 = split_lines(out3);
  ASSERT_EQ(lines3.size(), 2u);
  EXPECT_EQ(lines3[0].rfind("ERR line-too-long", 0), 0u) << lines3[0];
  EXPECT_EQ(lines3[1], "OK pong");
}

TEST(Server, BatchBlockAnswersEveryRequestInOrder) {
  synthesis_server server{quick_options()};
  const auto out = run_session(server,
                               "BATCH\n"
                               "stp 2 8\n"
                               "stp 2 6\n"
                               "stp 2 8\n"
                               "END\n");
  const auto lines = split_lines(out);
  ASSERT_GE(lines.size(), 4u);
  EXPECT_EQ(lines[0].rfind("OK 3 id=", 0), 0u) << lines[0];
  EXPECT_EQ(lines[1].rfind("RESULT 0 success 1 ", 0), 0u) << lines[1];
  // Duplicate requests (indices 0 and 2) get identical result blocks.
  std::size_t result2_pos = 0;
  for (std::size_t i = 1; i < lines.size(); ++i) {
    if (lines[i].rfind("RESULT 2 ", 0) == 0) {
      result2_pos = i;
    }
  }
  ASSERT_GT(result2_pos, 0u);
  EXPECT_EQ(lines[1].substr(9), lines[result2_pos].substr(9));
}

TEST(Server, BatchParseErrorPoisonsOnlyTheBlock) {
  synthesis_server server{quick_options()};
  const auto out = run_session(server,
                               "BATCH\n"
                               "stp 2 8\n"
                               "stp 99 8\n"
                               "END\n"
                               "PING\n");
  const auto lines = split_lines(out);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0].rfind("ERR batch line 2: ", 0), 0u) << lines[0];
  EXPECT_EQ(lines[1], "OK pong");
  // Nothing was synthesized for the poisoned block.
  EXPECT_EQ(server.synthesizer().current_metrics().requests, 0u);
}

TEST(Server, ClientDisconnectMidBatchIsSilentAndClean) {
  synthesis_server server{quick_options()};
  // EOF arrives between a BATCH header and its END: no reply is owed, the
  // daemon survives, and a fresh session works.
  const auto out = run_session(server, "BATCH\nstp 2 8\n");
  EXPECT_EQ(out, "");
  EXPECT_EQ(server.synthesizer().current_metrics().requests, 0u);
  EXPECT_EQ(run_session(server, "PING\n"), "OK pong\n");
}

TEST(Server, TimeoutExpiryYieldsErrTimeout) {
  synthesis_server server{quick_options()};
  // A nanosecond budget on a non-degenerate function expires at the first
  // engine poll.
  const auto out = run_session(server, "SYNTH stp 4 0x8ff8 0.000000001\n");
  EXPECT_EQ(out, "ERR timeout\n");
  EXPECT_EQ(server.counters().timeouts, 1u);
}

TEST(Server, PerRequestTimeoutIsClampedToTheServerCap) {
  auto opts = quick_options();
  opts.max_timeout_seconds = 1e-9;
  synthesis_server server{opts};
  // The client asks for an unlimited budget; the cap turns it into an
  // immediate timeout instead of an unbounded synthesis.
  const auto out = run_session(server, "SYNTH stp 4 0x8ff8 0\n");
  EXPECT_EQ(out, "ERR timeout\n");
}

TEST(Server, ConcurrentClientsOnOneClassShareSingleFlight) {
  synthesis_server server{quick_options()};
  pipe_session a{server};
  pipe_session b{server};

  const auto f = truth_table::from_hex(4, "0x8ff8");
  line_client::synth_reply reply_a;
  line_client::synth_reply reply_b;
  std::string raw_a;
  std::string raw_b;
  std::thread ta{[&] {
    reply_a = a.client().synth(engine::stp, f);
    raw_a = a.client().last_raw();
  }};
  std::thread tb{[&] {
    reply_b = b.client().synth(engine::stp, f);
    raw_b = b.client().last_raw();
  }};
  ta.join();
  tb.join();

  ASSERT_TRUE(reply_a.ok);
  ASSERT_TRUE(reply_b.ok);
  // Byte-identical replies modulo the per-request id tag: same cached
  // canonical result, same rewrite.
  const auto strip_id = [](std::string raw) {
    const auto pos = raw.find(" id=");
    if (pos != std::string::npos) {
      raw.erase(pos, raw.find('\n', pos) - pos);
    }
    return raw;
  };
  EXPECT_EQ(strip_id(raw_a), strip_id(raw_b));
  EXPECT_FALSE(raw_a.empty());
  EXPECT_NE(reply_a.request_id, 0u);
  EXPECT_NE(reply_b.request_id, 0u);
  EXPECT_NE(reply_a.request_id, reply_b.request_id);

  // Exactly one synthesis ran; the second client was served from the
  // ready entry or waited on the in-flight one.
  const auto cache = server.synthesizer().cache_stats();
  EXPECT_EQ(cache.misses, 1u);
  EXPECT_GE(cache.hits + cache.inflight_waits, 1u);
  const auto stats = a.client().stats_json();
  EXPECT_NE(stats.find("\"misses\":1"), std::string::npos) << stats;

  a.client().quit();
  b.client().quit();
  a.finish();
  b.finish();
}

TEST(Server, SaveLoadRoundTripCarriesEngineMetadata) {
  temp_file file{"server_cache_meta.txt"};
  {
    synthesis_server server{quick_options()};
    const auto out = run_session(
        server, "SYNTH stp 4 0x8ff8\nSAVE " + file.path() + "\n");
    EXPECT_NE(out.find("OK saved 1"), std::string::npos) << out;
  }
  // The persisted file records the engine per entry.
  {
    std::ifstream is{file.path()};
    std::string content{std::istreambuf_iterator<char>{is},
                        std::istreambuf_iterator<char>{}};
    EXPECT_NE(content.find("meta engine=stp"), std::string::npos)
        << content;
  }
  // Same-engine daemon: the entry is trusted and serves hits.
  {
    synthesis_server server{quick_options()};
    const auto out = run_session(
        server, "LOAD " + file.path() + "\nSYNTH stp 4 0x8ff8\n");
    EXPECT_NE(out.find("OK loaded 1 skipped 0"), std::string::npos) << out;
    EXPECT_EQ(server.synthesizer().current_metrics().cache_misses, 0u);
    EXPECT_EQ(server.synthesizer().current_metrics().cache_hits, 1u);
  }
  // Different-engine daemon: the entry is skipped, not served blindly.
  {
    auto opts = quick_options();
    opts.default_engine = engine::bms;
    synthesis_server server{opts};
    const auto out = run_session(server, "LOAD " + file.path() + "\n");
    EXPECT_NE(out.find("OK loaded 0 skipped 1"), std::string::npos) << out;
  }
}

TEST(Server, LoadSkipsFailuresRecordedUnderSmallerBudgets) {
  temp_file file{"server_cache_budget.txt"};
  {
    // Hand-craft a cache file: one timeout entry recorded under a 1 ms
    // budget, one success entry.  Only the success survives warming into
    // a daemon with a larger budget.
    stpes::service::cache_entry timed_out;
    timed_out.function = truth_table::from_hex(4, "0x8ff8");
    timed_out.result.outcome = stpes::synth::status::timeout;
    timed_out.meta = stpes::service::entry_meta{"stp", 0.001};

    stpes::service::cache_entry success;
    stpes::chain::boolean_chain c{2};
    c.set_output(c.add_step(0x8, 0, 1));
    success.function = c.simulate();
    success.result.outcome = stpes::synth::status::success;
    success.result.optimum_gates = 1;
    success.result.chains = {c};
    success.meta = stpes::service::entry_meta{"stp", 0.001};

    stpes::service::save_cache_file(file.path(), {timed_out, success});
  }
  synthesis_server server{quick_options()};  // 60 s default budget
  const auto out = run_session(server, "LOAD " + file.path() + "\n");
  EXPECT_NE(out.find("OK loaded 1 skipped 1"), std::string::npos) << out;
}

TEST(Server, CorruptCacheFileYieldsErrNotCrash) {
  temp_file file{"server_cache_corrupt.txt"};
  {
    std::ofstream os{file.path()};
    os << "stpes-chains v999\n";
  }
  synthesis_server server{quick_options()};
  const auto out = run_session(server, "LOAD " + file.path() + "\nPING\n");
  const auto lines = split_lines(out);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0].rfind("ERR ", 0), 0u) << lines[0];
  EXPECT_EQ(lines[1], "OK pong");
}

TEST(Server, StatsComeInTextAndJson) {
  synthesis_server server{quick_options()};
  pipe_session s{server};
  ASSERT_TRUE(s.client().ping());
  const auto text = s.client().stats_text();
  ASSERT_FALSE(text.empty());
  EXPECT_EQ(text[0].rfind("sessions", 0), 0u) << text[0];
  const auto json = s.client().stats_json();
  EXPECT_NE(json.find("\"server\":{"), std::string::npos) << json;
  EXPECT_NE(json.find("\"synthesis\":{"), std::string::npos) << json;
  EXPECT_NE(json.find("\"cache\":{"), std::string::npos) << json;
  s.client().quit();
}

TEST(Server, CancelStopsAnInFlightBatch) {
  synthesis_server server{quick_options()};  // 60 s per-request budget
  pipe_session worker{server};
  pipe_session controller{server};

  // Hard 6-input functions (cache-bypass path, one engine run each) under
  // a 60 s budget: without CANCEL this batch would hold the session for
  // minutes.  The controller connection cancels from the outside — the
  // protocol is synchronous per session, so CANCEL can never be issued on
  // the worker's own connection.
  const auto functions = stpes::workload::pdsd_functions(6, 3, 7);
  std::vector<std::pair<engine, truth_table>> requests;
  requests.reserve(functions.size());
  for (const auto& f : functions) {
    requests.emplace_back(engine::stp, f);
  }

  std::vector<line_client::synth_reply> replies;
  std::atomic<bool> batch_done{false};
  std::thread runner{[&] {
    replies = worker.client().batch(requests);
    batch_done.store(true, std::memory_order_release);
  }};

  // Keep cancelling until the batch returns: each CANCEL flips every
  // in-flight flag and invalidates the queue, so the loop is guaranteed
  // to terminate regardless of how the submissions interleave with it.
  while (!batch_done.load(std::memory_order_acquire)) {
    controller.client().cancel();
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  runner.join();

  ASSERT_EQ(replies.size(), requests.size());
  for (const auto& r : replies) {
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_TRUE(r.outcome == stpes::synth::status::timeout ||
                r.outcome == stpes::synth::status::success);
  }
  // At least one job was actually interrupted (PDSD6 cannot finish in the
  // few milliseconds before the first CANCEL lands).
  EXPECT_GE(server.synthesizer().current_metrics().cancelled, 1u);
  EXPECT_GE(server.counters().cancels, 1u);

  worker.client().quit();
  controller.client().quit();
  worker.finish();
  controller.finish();
}

TEST(Server, OverloadShedsWithBusyRetryAfter) {
  auto opts = quick_options();
  opts.num_threads = 1;
  opts.max_pending_jobs = 1;
  opts.overload_retry_ms = 250;
  synthesis_server server{opts};
  pipe_session worker{server};
  pipe_session extra{server};
  pipe_session controller{server};

  // One hard 6-input function saturates the single worker thread.
  const auto hard = stpes::workload::pdsd_functions(6, 3, 1).front();
  line_client::synth_reply worker_reply;
  std::thread runner{[&] {
    worker_reply = worker.client().synth(engine::stp, hard);
  }};
  while (server.synthesizer().pending_jobs() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // The admission queue (bound 1) is full: the next request is shed with
  // the configured retry hint instead of queueing behind the long job.
  const auto shed = extra.client().synth(
      engine::stp, truth_table::from_hex(2, "8"));
  EXPECT_TRUE(shed.busy);
  EXPECT_FALSE(shed.ok);
  EXPECT_EQ(shed.retry_after_ms, 250u);
  EXPECT_GE(server.counters().busy, 1u);

  while (server.synthesizer().pending_jobs() > 0) {
    controller.client().cancel();
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  runner.join();

  // Once the queue drains, the same session is served normally again.
  const auto ok = extra.client().synth(
      engine::stp, truth_table::from_hex(2, "8"));
  EXPECT_TRUE(ok.ok) << ok.error;

  worker.client().quit();
  extra.client().quit();
  controller.client().quit();
  worker.finish();
  extra.finish();
  controller.finish();
}

TEST(Server, SessionQuotaRejectsPastTheLimit) {
  auto opts = quick_options();
  opts.max_session_requests = 2;
  synthesis_server server{opts};
  const auto out = run_session(server,
                               "SYNTH stp 2 8\n"
                               "SYNTH stp 2 6\n"
                               "SYNTH stp 2 8\n"
                               "PING\n");
  const auto lines = split_lines(out);
  std::size_t err_at = 0;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (lines[i].rfind("ERR quota-exceeded", 0) == 0) {
      err_at = i;
    }
  }
  ASSERT_GT(err_at, 0u) << out;
  // Non-synthesis verbs are not metered and the session stays open.
  EXPECT_EQ(lines.back(), "OK pong");
  EXPECT_EQ(server.counters().quota_rejections, 1u);
  EXPECT_EQ(server.synthesizer().current_metrics().requests, 2u);

  // A BATCH block is charged by body size: 3 requests overrun a fresh
  // session's quota of 2 up front, before any synthesis runs.
  const auto out2 = run_session(server,
                                "BATCH\nstp 2 8\nstp 2 6\nstp 2 9\nEND\n");
  EXPECT_EQ(split_lines(out2).front().rfind("ERR quota-exceeded", 0), 0u)
      << out2;
  EXPECT_EQ(server.synthesizer().current_metrics().requests, 2u);
}

TEST(Server, ReloadSwapsTheCacheInPlace) {
  temp_file file{"server_reload.txt"};
  synthesis_server server{quick_options()};

  // Synthesize two classes, persist them, then synthesize a third class
  // (3-var: every nontrivial 2-var function is NPN-equivalent to AND or
  // XOR, both already resident).
  auto out = run_session(
      server, "SYNTH stp 2 8\nSYNTH stp 2 6\nSAVE " + file.path() + "\n");
  EXPECT_NE(out.find("OK saved 2"), std::string::npos) << out;
  run_session(server, "SYNTH stp 3 80\n");
  EXPECT_EQ(server.synthesizer().cache_stats().size, 3u);

  // RELOAD drops the resident three and warms the saved two.
  out = run_session(server, "RELOAD " + file.path() + "\n");
  EXPECT_NE(out.find("OK reloaded 2 skipped 0 cleared 3"),
            std::string::npos)
      << out;
  EXPECT_EQ(server.synthesizer().cache_stats().size, 2u);

  // An absent file reads as an empty cache file (matching LOAD), so the
  // swap still happens and leaves the cache empty.
  out = run_session(server, "RELOAD " + file.path() + ".missing\n");
  EXPECT_EQ(split_lines(out).front().rfind("OK reloaded 0 skipped 0", 0),
            0u)
      << out;
  EXPECT_EQ(server.synthesizer().cache_stats().size, 0u);
}

TEST(Server, CancelByIdStopsOnlyThatRequest) {
  auto opts = quick_options();
  opts.num_threads = 4;
  synthesis_server server{opts};
  pipe_session victim{server};
  pipe_session survivor{server};
  pipe_session controller{server};

  // Two hard 6-input functions (cache-bypass, one engine run each) on
  // separate sessions; each gets its own server-assigned request id.
  const auto hard = stpes::workload::pdsd_functions(6, 3, 2);
  line_client::synth_reply victim_reply;
  line_client::synth_reply survivor_reply;
  // Register the victim first and capture its id while it is the only
  // active request — starting both SYNTHs concurrently would race for the
  // lower id, and cancelling the wrong one silently passes the victim.
  std::thread victim_runner{[&] {
    victim_reply = victim.client().synth(engine::stp, hard[0], 60.0);
  }};
  std::vector<std::uint64_t> ids;
  while ((ids = server.synthesizer().active_request_ids()).empty()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const auto victim_id = ids.front();
  std::thread survivor_runner{[&] {
    survivor_reply = survivor.client().synth(engine::stp, hard[1], 2.0);
  }};

  // Cancel only once the survivor is in flight too, so "the other request
  // keeps running" is actually exercised (the victim's 60 s budget means
  // it cannot have finished on its own by then).
  while (server.synthesizer().active_request_ids().size() < 2) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(controller.client().cancel(victim_id), 1u);

  victim_runner.join();
  survivor_runner.join();

  // The victim came back as a timeout long before its 60 s budget; the
  // survivor ran to its own conclusion (success or its 2 s timeout).
  EXPECT_FALSE(victim_reply.ok);
  EXPECT_EQ(victim_reply.error, "timeout");
  EXPECT_TRUE(survivor_reply.ok || survivor_reply.error == "timeout");
  EXPECT_GE(server.synthesizer().current_metrics().cancelled, 1u);

  victim.client().quit();
  survivor.client().quit();
  controller.client().quit();
  victim.finish();
  survivor.finish();
  controller.finish();
}

TEST(Server, RepliesCarryTheRequestId) {
  synthesis_server server{quick_options()};
  pipe_session s{server};
  const auto r1 = s.client().synth(engine::stp,
                                   truth_table::from_hex(2, "8"));
  const auto r2 = s.client().synth(engine::stp,
                                   truth_table::from_hex(2, "6"));
  ASSERT_TRUE(r1.ok);
  ASSERT_TRUE(r2.ok);
  EXPECT_NE(r1.request_id, 0u);
  EXPECT_GT(r2.request_id, r1.request_id);
  const auto batch = s.client().batch(
      {{engine::stp, truth_table::from_hex(2, "9")}});
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_GT(batch[0].request_id, r2.request_id);
  s.client().quit();
}

TEST(Server, FailpointVerbDrivesTheRegistry) {
  synthesis_server server{quick_options()};
  if (!stpes::util::failpoints_compiled_in()) {
    const auto out = run_session(server, "FAILPOINT LIST\n");
    EXPECT_EQ(split_lines(out).front().rfind("ERR failpoints not", 0), 0u)
        << out;
    GTEST_SKIP() << "failpoints compiled out";
  }
  stpes::util::failpoint_registry::instance().clear_all();

  // SET arms a point; the next SAVE hits it and reports the injection.
  temp_file file{"server_failpoint.txt"};
  auto out = run_session(server,
                         "FAILPOINT SET chain_io.save.open once\n"
                         "SAVE " + file.path() + "\n"
                         "SAVE " + file.path() + "\n");
  auto lines = split_lines(out);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0].rfind("OK failpoint chain_io.save.open", 0), 0u);
  EXPECT_EQ(lines[1].rfind("ERR failpoint 'chain_io.save.open'", 0), 0u)
      << lines[1];
  EXPECT_EQ(lines[2].rfind("OK saved", 0), 0u) << lines[2];  // once = spent

  // LIST shows the armed point with its hit count, CLEAR disarms.
  out = run_session(server, "FAILPOINT LIST\nFAILPOINT CLEAR\n");
  EXPECT_NE(out.find("chain_io.save.open"), std::string::npos) << out;
  EXPECT_NE(out.find("OK failpoints cleared"), std::string::npos) << out;

  // Malformed specs are rejected without arming anything.
  out = run_session(server, "FAILPOINT SET x every=0\n");
  EXPECT_EQ(split_lines(out).front().rfind("ERR bad failpoint spec", 0), 0u)
      << out;
  stpes::util::failpoint_registry::instance().clear_all();
}

TEST(Server, UnixListenerShedsIdleSessionsWithErrAndCountsThem) {
  auto opts = quick_options();
  opts.idle_timeout_seconds = 0.2;
  synthesis_server server{opts};
  const std::string path =
      "/tmp/stpes_idle_" + std::to_string(::getpid()) + ".sock";
  stpes::server::unix_socket_server transport{server, path};
  std::thread accept_thread{[&transport] { transport.run(); }};

  {
    stpes::server::connection conn{stpes::server::endpoint::parse(path),
                                    2000};
    EXPECT_TRUE(conn.client().ping());  // live traffic, then silence
    std::string line;
    ASSERT_TRUE(std::getline(conn.stream(), line));
    EXPECT_EQ(line, "ERR idle-timeout");
    EXPECT_FALSE(std::getline(conn.stream(), line))
        << "expected EOF after the shed";
  }
  EXPECT_EQ(server.counters().idle_timeouts, 1u);

  transport.stop();
  accept_thread.join();
}

TEST(Server, ShutdownDrainsEverySession) {
  synthesis_server server{quick_options()};
  // SHUTDOWN answers, then ends its own session: the trailing PING is
  // never processed.
  const auto out = run_session(server, "SHUTDOWN\nPING\n");
  EXPECT_EQ(out, "OK shutting-down\n");
  EXPECT_TRUE(server.shutdown_requested());
  EXPECT_TRUE(server.draining());
  // New sessions on a draining server exit immediately.
  EXPECT_EQ(run_session(server, "PING\n"), "");
}

TEST(Server, DrainFinishesTheInFlightRequest) {
  synthesis_server server{quick_options()};
  pipe_session s{server};

  // Fire a request, then drain while it is (likely) in flight.  Two legal
  // outcomes: the request was already being handled, so its reply arrives
  // complete; or the drain won the race and the session closed before
  // reading it (clean EOF, no partial reply).  Either way no bytes are
  // truncated and the session thread exits.
  std::thread drainer{[&server] { server.begin_drain(); }};
  bool got_reply = false;
  try {
    const auto reply = s.client().synth(
        engine::stp, truth_table::from_hex(4, "0x8ff8"));
    got_reply = true;
    ASSERT_TRUE(reply.ok) << reply.error;
    EXPECT_EQ(reply.outcome, stpes::synth::status::success);
    EXPECT_GT(reply.chains.size(), 0u);
  } catch (const std::runtime_error&) {
    // Drain closed the session before the request was read.
    EXPECT_TRUE(s.client().last_raw().empty()) << s.client().last_raw();
  }
  drainer.join();
  s.finish();  // session thread must have exited by drain or EOF
  EXPECT_TRUE(server.draining());
  if (got_reply) {
    EXPECT_GE(server.synthesizer().current_metrics().requests, 1u);
  }
}

}  // namespace
