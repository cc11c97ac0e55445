/// \file chaos_test.cpp
/// \brief Failpoint-driven chaos: the daemon under an injected fault storm.
///
/// Drives SYNTH/BATCH/SAVE/LOAD traffic over real pipe sessions while
/// failpoints inject cache-insert failures, thread-pool submission
/// failures, torn file writes, and a truncated client connection.  The
/// invariants under fire:
///
///   * every reply is well-formed (OK / ERR / BUSY head, counted payload),
///   * the session and the daemon survive every injected fault,
///   * the cache file on disk is never torn — a SAVE either lands whole
///     or not at all (verified by a final *strict* load),
///   * after the storm, with failpoints cleared, the daemon serves
///     normally.
///
/// Trigger periods are fixed (`every=N` counts evaluations), so a given
/// request sequence replays the same faults deterministically.  Each
/// iteration is kept small on purpose: CI repeats the whole suite with
/// `--gtest_repeat=100` under TSan, so per-run seconds multiply by 100.
/// All test names start with `Chaos` so the CI filter can target them.

#include <gtest/gtest.h>

#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "server/client.hpp"
#include "server/server.hpp"
#include "server/socket_server.hpp"
#include "service/chain_io.hpp"
#include "util/failpoint.hpp"

#include "pipe_session.hpp"

namespace {

using stpes::core::engine;
using stpes::server::server_options;
using stpes::server::synthesis_server;
using stpes::test_support::pipe_session;
using stpes::tt::truth_table;
using stpes::util::failpoint_registry;
using stpes::util::failpoints_compiled_in;

class temp_file {
public:
  explicit temp_file(const std::string& name)
      : path_(::testing::TempDir() + name) {}
  ~temp_file() { std::remove(path_.c_str()); }
  [[nodiscard]] const std::string& path() const { return path_; }

private:
  std::string path_;
};

/// Small 2–4-variable functions: enough NPN classes to churn the cache,
/// cheap enough that one iteration stays in test-suite time.
std::vector<truth_table> chaos_functions() {
  std::vector<truth_table> fns;
  for (const char* hex : {"8", "6", "9", "e", "1"}) {
    fns.push_back(truth_table::from_hex(2, hex));
  }
  for (const char* hex : {"80", "96", "e8", "17", "69"}) {
    fns.push_back(truth_table::from_hex(3, hex));
  }
  for (const char* hex : {"8000", "6996", "8778"}) {
    fns.push_back(truth_table::from_hex(4, hex));
  }
  return fns;
}

class Chaos : public ::testing::Test {
protected:
  void SetUp() override {
    if (!failpoints_compiled_in()) {
      GTEST_SKIP() << "failpoints compiled out (STPES_FAILPOINTS=OFF)";
    }
    // The daemon ignores SIGPIPE (stpes_serve_main); the server runs
    // in-process here, so the test harness must do the same or a reply to
    // an abandoned client kills the whole binary.
    std::signal(SIGPIPE, SIG_IGN);
    failpoint_registry::instance().clear_all();
  }
  void TearDown() override {
    if (failpoints_compiled_in()) {
      failpoint_registry::instance().clear_all();
    }
  }
};

TEST_F(Chaos, ChaosFaultStormNeverKillsTheDaemonOrTearsTheCache) {
  server_options opts;
  opts.default_timeout_seconds = 5.0;
  opts.num_threads = 2;
  synthesis_server server{opts};
  temp_file cache_file{"chaos_cache.txt"};

  // The storm: periodic faults at every instrumented seam.  Periods are
  // mutually prime-ish so the combinations vary across the run.
  auto& reg = failpoint_registry::instance();
  ASSERT_TRUE(reg.set("shard_cache.insert", "every=3"));
  ASSERT_TRUE(reg.set("thread_pool.submit", "every=5"));
  ASSERT_TRUE(reg.set("chain_io.save.write", "every=2,errno=ENOSPC"));
  ASSERT_TRUE(reg.set("chain_io.save.rename", "once"));

  const auto fns = chaos_functions();
  pipe_session session{server};
  std::size_t ok_replies = 0;
  std::size_t err_replies = 0;

  for (std::size_t round = 0; round < 3; ++round) {
    // SYNTH each function; a submit-failpoint round-trips as a failure
    // result (ERR), never as a hung or half-written reply.
    for (const auto& f : fns) {
      const auto r = session.client().synth(engine::stp, f);
      EXPECT_FALSE(r.busy);
      if (r.ok) {
        EXPECT_NE(r.request_id, 0u);
        ++ok_replies;
      } else {
        EXPECT_FALSE(r.error.empty());
        ++err_replies;
      }
    }
    // One BATCH over everything: counted reply, one result per request.
    std::vector<std::pair<engine, truth_table>> batch;
    batch.reserve(fns.size());
    for (const auto& f : fns) {
      batch.emplace_back(engine::stp, f);
    }
    const auto replies = session.client().batch(batch);
    ASSERT_EQ(replies.size(), batch.size());

    // SAVE under write/rename faults: may fail (ERR), must never tear.
    try {
      session.client().save(cache_file.path());
    } catch (const std::runtime_error&) {
      // Injected ENOSPC / rename failure — the ERR path.
    }
    // LOAD whatever landed: lenient about damaged entries by design, and
    // with atomic saves there are none.
    try {
      session.client().load(cache_file.path());
    } catch (const std::runtime_error&) {
    }
    // The daemon still answers between rounds.
    ASSERT_TRUE(session.client().ping());
  }
  EXPECT_GT(ok_replies, 0u);

  // Clients that vanish mid-request: one dies inside a BATCH body (no
  // END ever arrives), one dies mid-line (no terminating newline).  The
  // daemon must shrug both off.
  {
    pipe_session truncated{server};
    truncated.raw_out() << "BATCH\nstp 2 0x8\n";
    truncated.abandon();

    pipe_session half{server};
    half.raw_out() << "SYNTH stp 2";  // severed before the newline
    half.abandon();
  }

  // Storm over: clear every failpoint, the daemon serves normally and the
  // file on disk (if any SAVE landed) passes the *strict* loader — a torn
  // write would throw here.
  reg.clear_all();
  ASSERT_TRUE(session.client().ping());
  const auto r = session.client().synth(engine::stp, fns.front());
  EXPECT_TRUE(r.ok) << r.error;
  EXPECT_NO_THROW({
    const auto entries =
        stpes::service::load_cache_file(cache_file.path());
    (void)entries;
  });

  session.client().quit();
  session.finish();
}

TEST_F(Chaos, ChaosSocketReadFaultEndsOnlyThatSession) {
  server_options opts;
  opts.default_timeout_seconds = 5.0;
  opts.num_threads = 2;
  synthesis_server server{opts};

  // Every 4th fd read dies with ECONNRESET: sessions drop like real
  // clients vanishing.  The server object must stay serviceable for new
  // sessions throughout.
  auto& reg = failpoint_registry::instance();
  ASSERT_TRUE(reg.set("fd_stream.read", "every=4,errno=ECONNRESET"));

  const auto and2 = truth_table::from_hex(2, "8");
  std::size_t served = 0;
  for (int i = 0; i < 6; ++i) {
    pipe_session s{server};
    try {
      const auto r = s.client().synth(engine::stp, and2);
      if (r.ok) {
        ++served;
      }
    } catch (const std::runtime_error&) {
      // The injected read fault surfaced as EOF mid-session.
    }
    s.finish();
  }
  reg.clear_all();

  // With the fault gone, a fresh session works.
  pipe_session s{server};
  const auto r = s.client().synth(engine::stp, and2);
  EXPECT_TRUE(r.ok) << r.error;
  s.client().quit();
  s.finish();
}

TEST_F(Chaos, ChaosWriteFaultDropsTheSessionNotTheDaemon) {
  server_options opts;
  opts.default_timeout_seconds = 5.0;
  opts.num_threads = 2;
  synthesis_server server{opts};

  auto& reg = failpoint_registry::instance();
  ASSERT_TRUE(reg.set("fd_stream.write", "every=3,errno=EPIPE"));

  const auto and2 = truth_table::from_hex(2, "8");
  for (int i = 0; i < 4; ++i) {
    pipe_session s{server};
    try {
      (void)s.client().synth(engine::stp, and2);
      (void)s.client().synth(engine::stp, and2);
    } catch (const std::runtime_error&) {
      // Broken-pipe injection: the reply never arrived.
    }
    s.finish();
  }
  reg.clear_all();

  pipe_session s{server};
  EXPECT_TRUE(s.client().ping());
  s.client().quit();
  s.finish();
}

TEST_F(Chaos, ChaosAcceptFaultsDelayButNeverDropConnections) {
  server_options opts;
  opts.default_timeout_seconds = 5.0;
  opts.num_threads = 2;
  synthesis_server server{opts};
  const std::string socket_path =
      "/tmp/stpes_chaos_accept_" + std::to_string(::getpid()) + ".sock";
  stpes::server::unix_socket_server transport{server, socket_path};
  std::thread accept_thread{[&] { transport.run(); }};

  // `every=2` fires on every second accept attempt; the un-accepted
  // connection stays in the listen backlog and the next poll round picks
  // it up, so clients only see added latency.  (`always` would starve the
  // backlog and busy-poll — the seam models transient ECONNABORTED/EMFILE
  // faults, not a dead listener.)
  auto& reg = failpoint_registry::instance();
  ASSERT_TRUE(reg.set("socket_server.accept", "every=2,errno=ECONNABORTED"));

  const auto and2 = truth_table::from_hex(2, "8");
  const auto ep = stpes::server::endpoint::parse(socket_path);
  for (int i = 0; i < 4; ++i) {
    stpes::server::connection conn{ep, 2000};
    const auto r = conn.client().synth(engine::stp, and2);
    EXPECT_TRUE(r.ok) << r.error;
    EXPECT_TRUE(conn.client().ping());
    conn.client().quit();
  }
  EXPECT_GE(reg.hits("socket_server.accept"), 1u);
  reg.clear_all();

  // With the fault cleared the listener serves normally.
  {
    stpes::server::connection conn{ep, 2000};
    EXPECT_TRUE(conn.client().ping());
    conn.client().quit();
  }
  transport.stop();
  accept_thread.join();
}

TEST_F(Chaos, ChaosOverloadStormShedsInsteadOfQueueing) {
  server_options opts;
  opts.default_timeout_seconds = 5.0;
  opts.num_threads = 1;
  opts.max_pending_jobs = 2;
  synthesis_server server{opts};

  // Submission faults + a tiny admission bound: every reply must still be
  // one of OK, ERR, or BUSY — never a hang, never a malformed head.
  auto& reg = failpoint_registry::instance();
  ASSERT_TRUE(reg.set("thread_pool.submit", "every=4"));

  const auto fns = chaos_functions();
  pipe_session s{server};
  std::size_t busy = 0;
  for (const auto& f : fns) {
    const auto r = s.client().synth(engine::stp, f);
    if (r.busy) {
      ++busy;
      EXPECT_GT(r.retry_after_ms, 0u);
    }
  }
  // Shedding is load-dependent; what is guaranteed is well-formed replies
  // (checked above) and a live daemon.
  (void)busy;
  reg.clear_all();
  EXPECT_TRUE(s.client().ping());
  s.client().quit();
  s.finish();
}

}  // namespace
