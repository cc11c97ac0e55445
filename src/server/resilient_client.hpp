/// \file resilient_client.hpp
/// \brief A client that turns transient faults into retries, not errors.
///
/// A `connection` (client.hpp) assumes a healthy transport: one broken
/// read throws and the session is gone.  `resilient_client` keeps only the
/// retry machinery on top of it that a caller facing a real network needs
/// (connects and reads are already bounded by the connection's deadlines,
/// so a blackholed daemon costs milliseconds, not forever):
///
///   * automatic reconnect with capped exponential backoff and
///     *deterministic* jitter: `backoff_ms(attempt)` is a pure function of
///     the policy seed and the attempt index, so tests assert the exact
///     schedule and two clients with different seeds never thundering-herd
///     in sync;
///   * `BUSY retry-after <ms>` honored as the backoff floor — the daemon's
///     hint can only lengthen a wait, never shorten it below the schedule;
///   * idempotent retry semantics: the daemon's verbs are either pure
///     reads (PING/STATS) or cache-convergent (a SYNTH retried after a
///     dropped reply re-derives the same chain from the warm cache), so a
///     request whose reply was lost is safe to re-send.  Every retry is
///     counted in `metrics()` — nothing loops silently.
///
/// When every attempt is exhausted the last failure surfaces as
/// `transport_error`; a BUSY reply that survives all retries is returned
/// as-is (shedding is an answer, not a fault).  The routing tier
/// (`route::router`) runs one of these per backend per session and adds
/// consistent-hash failover on top.

#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "server/client.hpp"
#include "util/rng.hpp"

namespace stpes::server {

/// Knobs for the retry/backoff loop.  Defaults suit a LAN daemon; tests
/// shrink everything to milliseconds.
struct retry_policy {
  /// Total tries per request (1 = no retry).
  unsigned max_attempts = 4;
  unsigned connect_timeout_ms = 2000;
  /// Per-reply read deadline; 0 = wait forever (not recommended — a
  /// blackholed daemon would pin the caller).
  unsigned io_timeout_ms = 30000;
  /// Backoff schedule: min(base << attempt, max) plus deterministic
  /// jitter of up to half that value, derived from `jitter_seed` and the
  /// attempt index only.
  unsigned base_backoff_ms = 10;
  unsigned max_backoff_ms = 2000;
  std::uint64_t jitter_seed = 0x5eedULL;
};

/// What the client did to get answers.  Plain counters — one owner
/// thread per client; the router aggregates snapshots across sessions.
struct client_metrics {
  std::uint64_t connects = 0;      ///< successful fresh connects
  std::uint64_t reconnects = 0;    ///< successful connects after a drop
  std::uint64_t retries = 0;       ///< requests re-sent after a fault
  std::uint64_t busy_backoffs = 0;  ///< BUSY replies waited out
  std::uint64_t io_timeouts = 0;   ///< reads cut by the poll deadline
  std::uint64_t failures = 0;      ///< requests that exhausted retries
  std::uint64_t backoff_ms_total = 0;  ///< total time spent backing off
};

class resilient_client {
public:
  explicit resilient_client(endpoint ep, retry_policy policy = {})
      : endpoint_(std::move(ep)), policy_(policy) {}

  ~resilient_client() { disconnect(); }

  resilient_client(const resilient_client&) = delete;
  resilient_client& operator=(const resilient_client&) = delete;

  /// The deterministic backoff before retry number `attempt` (0-based):
  /// exponential, capped, plus seeded jitter.  Pure function — exposed so
  /// tests pin the schedule and `retry_hint` computations reuse it.
  [[nodiscard]] unsigned backoff_ms(unsigned attempt) const {
    const unsigned shift = attempt < 16 ? attempt : 16;
    std::uint64_t base = static_cast<std::uint64_t>(policy_.base_backoff_ms)
                         << shift;
    if (base > policy_.max_backoff_ms) {
      base = policy_.max_backoff_ms;
    }
    util::rng jitter{policy_.jitter_seed ^
                     (0x9E3779B97F4A7C15ULL * (attempt + 1))};
    const std::uint64_t spread = base / 2;
    return static_cast<unsigned>(
        base + (spread > 0 ? jitter.next_below(spread + 1) : 0));
  }

  /// `SYNTH` with retry/reconnect/backoff; single- and multi-output.
  /// Throws `transport_error` only after every attempt failed.
  line_client::synth_reply synth(
      core::engine engine, const tt::truth_table& function,
      std::optional<double> timeout_seconds = std::nullopt) {
    return with_retry([&](line_client& c) {
      return c.synth(engine, function, timeout_seconds);
    });
  }
  line_client::synth_reply synth(
      core::engine engine, const std::vector<tt::truth_table>& functions,
      std::optional<double> timeout_seconds = std::nullopt) {
    return with_retry([&](line_client& c) {
      return c.synth(engine, functions, timeout_seconds);
    });
  }

  /// One raw request line, one `line_client`-parsed synth reply — the
  /// router's forwarding primitive (the request is already serialized).
  line_client::synth_reply forward_synth(const std::string& request_line) {
    return with_retry(
        [&](line_client& c) { return c.forward_synth(request_line); });
  }

  /// `PING` with retry; a shed (BUSY) ping backs off like any other
  /// request.  False only when attempts ran out.
  bool ping() {
    try {
      return with_retry([&](line_client& c) {
        auto r = c.ping_reply();
        if (!r.ok && !r.busy) {
          // An unexpected reply line is a protocol fault, not a BUSY:
          // treat like a transport error so the retry loop reconnects.
          throw std::runtime_error{"unexpected ping reply: " + r.error};
        }
        return r;
      }).ok;
    } catch (const transport_error&) {
      return false;
    }
  }

  /// `STATS JSON` with retry.
  std::string stats_json() {
    std::string payload;
    with_retry([&](line_client& c) {
      payload = c.stats_json();
      line_client::synth_reply r;
      r.ok = true;
      return r;
    });
    return payload;
  }

  [[nodiscard]] const client_metrics& metrics() const { return metrics_; }

  /// Raw bytes of the last complete reply on the current connection
  /// (empty when disconnected) — relays re-frame these verbatim.
  [[nodiscard]] const std::string& last_raw() const {
    static const std::string empty;
    return conn_.has_value() ? conn_->client().last_raw() : empty;
  }

  [[nodiscard]] const endpoint& target() const { return endpoint_; }
  [[nodiscard]] bool connected() const { return conn_.has_value(); }

  void disconnect() { conn_.reset(); }

private:
  void ensure_connected() {
    if (conn_.has_value()) {
      return;
    }
    conn_.emplace(endpoint_, policy_.connect_timeout_ms,
                  policy_.io_timeout_ms);
    if (ever_connected_) {
      ++metrics_.reconnects;
    } else {
      ++metrics_.connects;
      ever_connected_ = true;
    }
  }

  void backoff(unsigned attempt) {
    const unsigned ms = backoff_ms(attempt);
    metrics_.backoff_ms_total += ms;
    std::this_thread::sleep_for(std::chrono::milliseconds(ms));
  }

  /// BUSY honored as a floor: wait the *longer* of the daemon's hint and
  /// the schedule, so an overloaded daemon is never hammered faster than
  /// it asked for.
  void backoff_busy(unsigned attempt, unsigned retry_after_ms) {
    unsigned ms = backoff_ms(attempt);
    if (retry_after_ms > ms) {
      ms = retry_after_ms;
    }
    ++metrics_.busy_backoffs;
    metrics_.backoff_ms_total += ms;
    std::this_thread::sleep_for(std::chrono::milliseconds(ms));
  }

  template <typename Op>
  line_client::synth_reply with_retry(Op&& op) {
    std::string last_failure = "no attempts configured";
    line_client::synth_reply last_busy;
    bool saw_busy = false;
    const unsigned attempts = policy_.max_attempts == 0
                                  ? 1
                                  : policy_.max_attempts;
    for (unsigned attempt = 0; attempt < attempts; ++attempt) {
      if (attempt > 0) {
        ++metrics_.retries;
      }
      try {
        ensure_connected();
        auto reply = op(conn_->client());
        if (reply.busy) {
          saw_busy = true;
          last_busy = reply;
          if (attempt + 1 < attempts) {
            backoff_busy(attempt, reply.retry_after_ms);
          }
          continue;
        }
        return reply;
      } catch (const std::exception& e) {
        // Any transport-layer failure (connect refused, EOF mid-reply,
        // read deadline) lands here: drop the connection, back off,
        // reconnect on the next attempt.  SYNTH is cache-convergent, so
        // re-sending after a dropped reply is safe by construction.
        if (conn_.has_value() && conn_->stream().timed_out()) {
          ++metrics_.io_timeouts;
          last_failure = std::string{"read timeout: "} + e.what();
        } else {
          last_failure = e.what();
        }
        disconnect();
        if (attempt + 1 < attempts) {
          backoff(attempt);
        }
      }
    }
    if (saw_busy) {
      // Every attempt was shed: surface the daemon's answer (with its
      // hint) instead of inventing an error — the caller decides whether
      // to degrade or fail over.
      return last_busy;
    }
    ++metrics_.failures;
    throw transport_error{endpoint_.to_string() + ": " + last_failure};
  }

  endpoint endpoint_;
  retry_policy policy_;
  client_metrics metrics_;
  std::optional<connection> conn_;
  bool ever_connected_ = false;
};

}  // namespace stpes::server
