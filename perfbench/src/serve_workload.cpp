/// \file serve_workload.cpp
/// \brief cuts_serve: a seeded stream of 4-input cut functions served by an
///        in-process `server::synthesis_server` over a Unix socket, plus
///        the serving-layer measurements every traced run reports.

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "chain/transform.hpp"
#include "engine_layers.hpp"
#include "route/router.hpp"
#include "server/fd_stream.hpp"
#include "server/resilient_client.hpp"
#include "server/server.hpp"
#include "server/socket_server.hpp"
#include "service/batch_synthesizer.hpp"
#include "service/chain_io.hpp"
#include "tt/npn.hpp"
#include "workloads.hpp"

namespace perfbench {

using stpes::chain::boolean_chain;
using stpes::tt::truth_table;

namespace {

/// Client connections of the stream and worker threads of the server.
constexpr unsigned kConnections = 2;
constexpr unsigned kServerThreads = 2;
/// Requests of the cache-warming prefix sent during set-up.
constexpr std::uint64_t kWarmupRequests = 1000;
/// Socket names, relative: the process works inside its private run
/// directory (main.cpp), so concurrent runs never share a socket.
constexpr const char* kServerSocket = "serve.sock";

struct cut_pool {
  /// The 63 NPN4 classes with a 0-4 gate optimum, canonical
  /// representatives, in reference order (= Zipf rank order).
  std::vector<ref_entry> classes;
  std::vector<double> cdf;  ///< Zipf(1) over ranks, cumulative
  std::vector<stpes::tt::npn_transform> transforms;
};

cut_pool load_cut_pool(const run_options& opts) {
  cut_pool p;
  p.classes = load_reference(opts.ref_dir + "/cuts_serve.ref");
  if (p.classes.size() != 63) {
    throw std::runtime_error{"cuts_serve reference must hold 63 classes"};
  }
  for (const auto& e : p.classes) {
    if (e.function.num_vars() != 4 || e.gates > 4 ||
        stpes::tt::exact_npn_canonize(e.function).canonical != e.function) {
      throw std::runtime_error{"cuts_serve reference entry " +
                               e.function.to_hex() +
                               " is not a canonical NPN4 class of <= 4 gates"};
    }
  }
  double total = 0.0;
  for (std::size_t r = 0; r < p.classes.size(); ++r) {
    total += 1.0 / static_cast<double>(r + 1);
    p.cdf.push_back(total);
  }
  for (auto& c : p.cdf) {
    c /= total;
  }
  p.transforms = stpes::tt::all_npn_transforms(4);
  return p;
}

struct cut_request {
  std::size_t cls = 0;
  truth_table function;
};

/// Request `i` of the stream: a Zipf-drawn class under a uniformly random
/// NPN transform, a pure function of (seed, i).
cut_request make_request(const cut_pool& p, std::uint64_t seed,
                         std::uint64_t i) {
  const std::uint64_t h = mix64(mix64(seed) + i);
  const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
  const auto it = std::lower_bound(p.cdf.begin(), p.cdf.end(), u);
  cut_request r;
  r.cls = std::min<std::size_t>(static_cast<std::size_t>(it - p.cdf.begin()),
                                p.cdf.size() - 1);
  const auto& t = p.transforms[mix64(h) % p.transforms.size()];
  r.function = stpes::tt::apply_npn_transform(p.classes[r.cls].function, t);
  return r;
}

/// A session host behind a Unix listener on its own accept thread.
class listening {
public:
  listening(std::unique_ptr<stpes::server::session_host> host,
            const std::string& path)
      : host_(std::move(host)),
        listener_(std::make_unique<stpes::server::unix_socket_server>(*host_,
                                                                      path)),
        thread_([this] { listener_->run(); }) {}
  ~listening() { stop(); }
  listening(const listening&) = delete;
  listening& operator=(const listening&) = delete;

  /// Stops accepting, drains every session and joins its threads.
  void stop() {
    if (listener_) {
      listener_->stop();
      thread_.join();
      listener_.reset();
      host_.reset();
    }
  }
private:
  std::unique_ptr<stpes::server::session_host> host_;
  std::unique_ptr<stpes::server::unix_socket_server> listener_;
  std::thread thread_;
};

std::unique_ptr<listening> start_server(const std::string& path) {
  stpes::server::server_options o;
  o.num_threads = kServerThreads;
  o.default_timeout_seconds = kOpDeadlineSeconds;
  o.max_timeout_seconds = kOpDeadlineSeconds;
  o.drain_grace_seconds = 1.0;
  return std::make_unique<listening>(
      std::make_unique<stpes::server::synthesis_server>(o), path);
}

std::unique_ptr<listening> start_router(const std::string& path,
                                        const std::string& backend) {
  stpes::route::router_options o;
  o.backends = {"unix:" + backend};
  o.probe_interval_ms = 0;  // passive health only: no background traffic
  o.drain_grace_seconds = 1.0;
  return std::make_unique<listening>(
      std::make_unique<stpes::route::router>(o), path);
}

/// Highest resident set sampled every 10 ms while alive.
class rss_sampler {
public:
  rss_sampler()
      : thread_([this] {
          while (!stop_.load(std::memory_order_acquire)) {
            peak_ = std::max(peak_, current_rss_mb());
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
          }
        }) {}
  ~rss_sampler() { finish(); }
  rss_sampler(const rss_sampler&) = delete;
  rss_sampler& operator=(const rss_sampler&) = delete;

  /// Stops sampling and returns the peak in MiB.
  double finish() {
    if (thread_.joinable()) {
      stop_.store(true, std::memory_order_release);
      thread_.join();
      peak_ = std::max(peak_, current_rss_mb());
    }
    return peak_;
  }

private:
  std::atomic<bool> stop_{false};
  double peak_ = 0.0;
  std::thread thread_;
};

/// One client connection speaking the line protocol.
class connection {
public:
  explicit connection(const std::string& path) {
    stpes::server::endpoint ep;
    ep.host_or_path = path;
    fd_ = stpes::server::connect_endpoint(ep, 5000);
    io_ = std::make_unique<stpes::server::fd_iostream>(
        fd_, static_cast<int>(kOpDeadlineSeconds * 2000));
  }
  ~connection() {
    io_.reset();
    ::close(fd_);
  }
  connection(const connection&) = delete;
  connection& operator=(const connection&) = delete;

  struct reply {
    std::string error;  ///< ERR/BUSY/closed text; empty on success
    unsigned gates = 0;
    std::vector<boolean_chain> chains;
    std::size_t bytes = 0;
  };

  reply synth(const truth_table& f) {
    *io_ << "SYNTH stp 4 " << f.to_hex() << '\n' << std::flush;
    reply r;
    std::string head;
    if (!std::getline(*io_, head)) {
      r.error = "connection closed";
      return r;
    }
    r.bytes = head.size() + 1;
    std::istringstream is{head};
    std::string kw, status;
    std::size_t count = 0;
    if (!(is >> kw >> status >> r.gates >> count) || kw != "OK") {
      r.error = head;
      return r;
    }
    r.chains.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      std::string line;
      if (!std::getline(*io_, line)) {
        r.error = "connection closed mid-reply";
        return r;
      }
      r.bytes += line.size() + 1;
      r.chains.push_back(stpes::service::parse_chain(line));
    }
    if (status != "success") {
      r.error = status;
    }
    return r;
  }

  std::string stats_json() {
    *io_ << "STATS JSON\n" << std::flush;
    std::string head, body;
    std::getline(*io_, head);
    std::getline(*io_, body);
    return body;
  }

private:
  int fd_ = -1;
  std::unique_ptr<stpes::server::fd_iostream> io_;
};

/// Counts one reply in `out`: failed on ERR, BUSY or a broken connection,
/// incorrect when its chains do not answer `f` as `ref` says.
void record_reply(const truth_table& f, const connection::reply& rep,
                  const ref_entry& ref, report& out) {
  ++out.attempted;
  if (!rep.error.empty()) {
    out.fail(f.to_hex() + ": " + rep.error);
  } else if (const auto err = check_chains(f, rep.gates, rep.chains, ref);
             !err.empty()) {
    out.incorrect(err);
  }
}

/// First integer after `"key":` in a JSON text (0 when absent).
std::uint64_t json_count(const std::string& json, const std::string& key) {
  const auto at = json.find("\"" + key + "\":");
  return at == std::string::npos
             ? 0
             : std::stoull(json.substr(at + key.size() + 3));
}

struct cache_counts {
  std::uint64_t hits = 0, misses = 0, synth_runs = 0;
};

cache_counts read_cache_counts(const std::string& path) {
  connection c{path};
  const auto json = c.stats_json();
  return {json_count(json, "cache_hits"), json_count(json, "cache_misses"),
          json_count(json, "synth_runs")};
}

/// Canonical optimum chains of every class (what the server caches).
using class_chains = std::vector<std::vector<boolean_chain>>;

struct stream_stats {
  std::uint64_t done = 0;
  std::vector<double> rtt;
  std::vector<double> done_at;  ///< completion times, from the phase start
  std::vector<double> canon;
  std::vector<double> rewrite;
  std::uint64_t bytes = 0;
  double elapsed = 0.0;
};

/// Drives requests [first, first + count) — or, with count == 0, as many
/// as fit in `seconds` — over `connections` closed-loop connections and
/// checks every reply against the reference of its class.  With a tracer
/// each request is a span holding its round trip and, when `replay` is
/// given, replays of `tt::exact_npn_canonize` and
/// `chain::apply_inverse_npn_to_chain` on the request.
stream_stats run_stream(const std::string& path, const cut_pool& pool,
                        std::uint64_t seed, std::uint64_t first,
                        std::uint64_t count, double seconds, report& out,
                        tracer* trace = nullptr,
                        const class_chains* replay = nullptr,
                        unsigned connections = kConnections) {
  std::atomic<std::uint64_t> next{first};
  std::mutex merge_mutex;
  stream_stats total;
  const double t0 = now_s();
  const auto client = [&] {
    stream_stats local;
    tracer local_trace;
    report local_out;
    try {
      connection conn{path};
      for (;;) {
        const std::uint64_t i = next.fetch_add(1);
        if (count != 0 ? i >= first + count : now_s() - t0 >= seconds) {
          break;
        }
        const auto req = make_request(pool, seed, i);
        connection::reply rep;
        if (trace != nullptr) {
          scoped_span op{local_trace, "request", i};
          {
            scoped_span s{local_trace, "rtt", i, op.id()};
            rep = conn.synth(req.function);
          }
          if (replay != nullptr) {
            stpes::tt::npn_canonization canon;
            {
              scoped_span s{local_trace, "npn_canon", i, op.id()};
              canon = stpes::tt::exact_npn_canonize(req.function);
              local.canon.push_back(s.close());
            }
            scoped_span s{local_trace, "rewrite", i, op.id()};
            for (const auto& c : (*replay)[req.cls]) {
              (void)stpes::chain::apply_inverse_npn_to_chain(c,
                                                            canon.transform);
            }
            local.rewrite.push_back(s.close());
          }
        } else {
          const double s = now_s();
          rep = conn.synth(req.function);
          const double e = now_s();
          local.rtt.push_back(e - s);
          local.done_at.push_back(e - t0);
        }
        ++local.done;
        local.bytes += rep.bytes;
        record_reply(req.function, rep, pool.classes[req.cls], local_out);
      }
    } catch (const std::exception& e) {
      // A broken connection or reply ends this client as one failed op.
      ++local_out.attempted;
      local_out.fail(std::string{"client: "} + e.what());
    }
    std::lock_guard<std::mutex> lock{merge_mutex};
    total.done += local.done;
    total.bytes += local.bytes;
    const auto append = [](std::vector<double>& to,
                           const std::vector<double>& from) {
      to.insert(to.end(), from.begin(), from.end());
    };
    append(total.rtt, local.rtt);
    append(total.done_at, local.done_at);
    append(total.canon, local.canon);
    append(total.rewrite, local.rewrite);
    if (trace != nullptr) {
      trace->merge(local_trace);
    }
    out.merge(local_out);
  };
  std::vector<std::thread> clients;
  for (unsigned c = 0; c < connections; ++c) {
    clients.emplace_back(client);
  }
  for (auto& t : clients) {
    t.join();
  }
  total.elapsed = now_s() - t0;
  return total;
}

/// Solves every class once (the chains the server rewrites per request);
/// traced solves also feed the engine-layer metrics.
class_chains solve_classes(const cut_pool& pool, report& out,
                           tracer* trace = nullptr,
                           engine_layers* layers = nullptr) {
  class_chains chains;
  for (std::size_t c = 0; c < pool.classes.size(); ++c) {
    const auto& e = pool.classes[c];
    const auto r = trace != nullptr
                       ? traced_solve(e.function, *trace, c, *layers)
                       : solve_all_optima(e.function);
    record(e.function, r, e, out);
    chains.push_back(r.chains);
  }
  return chains;
}

/// The traced stream plus the single-caller service and routing
/// measurements, all on slices of the stream starting at `first`.
/// Returns the traced stream's throughput.
double serving_trace(const std::string& path, const cut_pool& pool, const class_chains& chains,
                     std::uint64_t seed, std::uint64_t first,
                     std::uint64_t requests, tracer& trace, report& out) {
  // Traced stream: canonization and rewrite replays, reply sizes, and the
  // server's own cache counters over exactly this slice.
  const auto before = read_cache_counts(path);
  const auto s = run_stream(path, pool, seed, first, requests, 0.0, out,
                            &trace, &chains);
  const auto after = read_cache_counts(path);
  first += requests;

  // batch_synthesizer::run({req}) on a warmed synthesizer, no transport,
  // one caller; handoff = run - canonization - rewrite of the same request.
  const std::uint64_t slice = std::max<std::uint64_t>(100, requests / 4);
  std::vector<double> run_s, handoff_s;
  {
    stpes::service::batch_options o;
    o.num_threads = kServerThreads;
    o.timeout_seconds = kOpDeadlineSeconds;
    stpes::service::batch_synthesizer synth{o};
    std::vector<truth_table> reps;
    for (const auto& e : pool.classes) {
      reps.push_back(e.function);
    }
    (void)synth.run(reps);
    for (std::uint64_t i = first; i < first + slice; ++i) {
      const auto req = make_request(pool, seed, i);
      double t = now_s();
      const auto canon = stpes::tt::exact_npn_canonize(req.function);
      const double canon_s = now_s() - t;
      t = now_s();
      for (const auto& c : chains[req.cls]) {
        (void)stpes::chain::apply_inverse_npn_to_chain(c, canon.transform);
      }
      const double rewrite_s = now_s() - t;
      stpes::service::batch_request br;
      br.function = req.function;
      scoped_span span{trace, "service_run", i};
      const auto r = synth.run({br});
      const double run = span.close();
      run_s.push_back(run);
      handoff_s.push_back(run - canon_s - rewrite_s);
      record(req.function, r.results.front(), pool.classes[req.cls], out);
    }
  }
  first += slice;

  // Round trips and the routing hop: the same requests direct and through
  // a router whose only backend is this server, alternating, one
  // connection each, so a round trip never waits behind another request
  // (the stream's own round trips, on one pinned CPU, hold the other
  // connection's service time).
  std::vector<double> direct_s, routed_s;
  {
    const std::string route_path = "route.sock";
    auto router = start_router(route_path, path);
    {
      connection direct{path};
      connection routed{route_path};
      for (std::uint64_t i = first; i < first + slice; ++i) {
        const auto req = make_request(pool, seed, i);
        for (auto* c : {&direct, &routed}) {
          scoped_span span{trace, c == &direct ? "rtt_direct" : "rtt_routed",
                           i};
          const auto rep = c->synth(req.function);
          (c == &direct ? direct_s : routed_s).push_back(span.close());
          record_reply(req.function, rep, pool.classes[req.cls], out);
        }
      }
    }
    router->stop();
  }

  const double rtt_p50 = median(direct_s);
  const double run_p50 = median(run_s);
  const auto lookups = (after.hits - before.hits) + (after.misses - before.misses);
  out.add("tt.npn_canon_s.p50", median(s.canon), "s");
  out.add("chain.rewrite_s.p50", median(s.rewrite), "s");
  out.add("service.run_s.p50", run_p50, "s");
  out.add("service.handoff_s.p50", median(handoff_s), "s");
  out.add("service.cache_hit_ratio",
          lookups == 0 ? 0.0
                       : static_cast<double>(after.hits - before.hits) /
                             static_cast<double>(lookups),
          "ratio");
  out.add("service.synth_runs",
          static_cast<double>(after.synth_runs - before.synth_runs), "count");
  out.add("server.rtt_s.p50", rtt_p50, "s");
  out.add("server.transport_s.p50", rtt_p50 - run_p50, "s");
  out.add("server.reply_bytes",
          static_cast<double>(s.bytes) / static_cast<double>(std::max<std::uint64_t>(1, s.done)),
          "bytes");
  out.add("route.hop_s.p50", median(routed_s) - median(direct_s), "s");
  out.notes.push_back("serving layers: " + std::to_string(s.done) +
                      " traced requests, " + std::to_string(slice) +
                      " service runs, " + std::to_string(slice) +
                      " direct/routed pairs");
  return static_cast<double>(s.done) / s.elapsed;
}


}  // namespace

void measure_serving_layers(const run_options& opts, std::size_t requests,
                            tracer& trace, report& out) {
  const auto pool = load_cut_pool(opts);
  const auto chains = solve_classes(pool, out);
  const std::string path = kServerSocket;
  auto server = start_server(path);
  {
    // Warm the cache with every class once, so the slice below is all
    // hits and its counts are exact.
    connection c{path};
    for (const auto& e : pool.classes) {
      record_reply(e.function, c.synth(e.function), e, out);
    }
  }
  (void)serving_trace(path, pool, chains, opts.seed, 0, requests, trace,
                      out);
  server->stop();
}

report run_serve_workload(const run_options& opts, tracer& trace) {
  report out;
  const std::string path = kServerSocket;
  cut_pool pool;
  std::unique_ptr<listening> server;
  // Set-up: load the pool, start the server, and warm its cache with the
  // stream prefix over one connection, so the prefix's misses synthesize
  // one at a time and the set-up work is the same in every run.
  const auto set_up = [&] {
    const double t0 = now_s();
    pool = load_cut_pool(opts);
    server = start_server(path);
    (void)run_stream(path, pool, opts.seed, 0, kWarmupRequests, 0.0, out,
                     nullptr, nullptr, 1);
    return now_s() - t0;
  };
  std::vector<double> setup_times{set_up()};

  if (!opts.trace) {
    // The serving footprint: freed set-up memory is handed back first, then
    // the resident set is sampled through the timed phase.  (The process
    // high-water mark would mostly say which of the two pool threads'
    // allocator arenas happened to keep the warm-up's synthesis memory:
    // 14-18 MB from run to run.)
    ::malloc_trim(0);
    const auto before = read_cache_counts(path);
    rss_sampler sampler;
    const auto s = run_stream(path, pool, opts.seed, kWarmupRequests, 0,
                              opts.seconds, out);
    const double rss = sampler.finish();
    const auto after = read_cache_counts(path);
    server->stop();
    for (int rep = 1; rep < kSetupRepeats; ++rep) {
      setup_times.push_back(set_up());
      server->stop();
    }
    // Round trips are sub-millisecond and six threads share one CPU, so a
    // scheduler burst moves single windows: report window medians.
    const auto w = windowed_medians(s.done_at, s.rtt, s.elapsed, 1.0);
    out.add("setup_s", median(setup_times), "s");
    out.add("throughput_ops_s", w.throughput, "1/s");
    out.add("latency_s.p50", w.p50, "s");
    out.add("latency_s.p90", w.p90, "s");
    out.add("latency_s.p99", w.p99, "s");
    out.add("peak_rss_mb", rss, "MB");
    out.notes.push_back(
        "latency samples: " + std::to_string(s.rtt.size()) + " requests in " +
        std::to_string(w.windows) + " windows of 1 s over " +
        std::to_string(s.elapsed) + " s (whole-phase throughput " +
        std::to_string(static_cast<double>(s.done) / s.elapsed) +
        "/s, p99 " + std::to_string(quantile(s.rtt, 0.99)) +
        " s); cache misses in the timed phase: " +
        std::to_string(after.misses - before.misses));
    return out;
  }

  // Traced run: fixed request slices sized by --seconds.  The untraced
  // slice gives the reference throughput for the overhead ratio.
  engine_layers layers;
  const auto chains = solve_classes(pool, out, &trace, &layers);
  add_engine_layer_metrics(layers, out);
  const auto requests = static_cast<std::uint64_t>(opts.seconds * 400.0);
  const auto plain = run_stream(path, pool, opts.seed, kWarmupRequests,
                                requests, 0.0, out);
  const double traced_throughput =
      serving_trace(path, pool, chains, opts.seed, kWarmupRequests + requests,
                    requests, trace, out);
  server->stop();
  out.add("trace.overhead_ratio",
          traced_throughput / (static_cast<double>(plain.done) / plain.elapsed),
          "ratio");
  return out;
}

}  // namespace perfbench
