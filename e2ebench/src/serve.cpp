// serve_mixed: the shipped serve path. A Server listens on a Unix socket with
// 2 workers (run_threads 1) and persistence plus the journal on fresh files
// each round. A closed loop of one client connection sends requests with no
// think time — an `rdse request` caller waits for its reply. With one
// request in flight, the process's CPU time across a call is that request's
// cost, which is what the gated figures measure. The stream
// draws, with Zipf-like popularity, from 200 distinct explore requests
// (motion at 5000 iterations, synthetic:120 at 2000): more than the
// 128-entry cache holds, so hits (protocol, cache, server) and misses (queue,
// annealer, whole-database persist rewrite, journal fsyncs) interleave and
// evictions happen. The large-graph sched path is bypassed.
//
// The popularity exponent is taken from measured request traffic: Breslau,
// Cao, Fan, Phillips and Shenker, "Web Caching and Zipf-like Distributions:
// Evidence and Implications" (IEEE INFOCOM 1999), fit the requests of six
// web-proxy traces with Zipf-like distributions of exponent 0.64-0.83. No
// trace of rdse serve traffic exists; the benchmark uses 0.8, inside that
// range. The equal motion/synthetic mix is an assumption, not a measurement:
// the two request families get the same share, and they alternate so that
// every seed asks for the same mix of cheap and expensive work.

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "arch/architecture.hpp"
#include "baseline/mapper.hpp"
#include "core/sweep_engine.hpp"
#include "explore_job.hpp"
#include "layers.hpp"
#include "model/registry.hpp"
#include "serve/cache.hpp"
#include "serve/journal.hpp"
#include "serve/persist.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace e2e {

namespace {

using rdse::JsonValue;

constexpr int kMotionKeys = 100;
constexpr int kSyntheticKeys = 100;
/// Requests per round: enough for 12 samples beyond each round's p99.
constexpr std::size_t kStreamLength = 1'200;
constexpr double kZipfExponent = 0.8;
constexpr std::uint64_t kRankStreamSeed = 0x5E4E'0001;
constexpr unsigned kWorkers = 2;
/// Work requests' annealing budgets (iters, warmup).
constexpr std::int64_t kMotionIters = 5'000, kMotionWarmup = 500;
constexpr std::int64_t kSynthIters = 2'000, kSynthWarmup = 200;
/// In-process probe sample sizes (traced runs).
constexpr int kPersistSamples = 10;
constexpr int kJournalSamples = 50;
/// Misses of the stream re-run as traced explore jobs (traced runs).
constexpr std::size_t kExploreSamples = 4;

struct PoolEntry {
  std::string line;
  std::int64_t iterations = 0;  ///< annealing iterations of a fresh run
};

struct Inputs {
  std::vector<PoolEntry> pool;
  std::vector<std::size_t> stream;  ///< pool indices, in request order
};

Inputs make_inputs(std::uint64_t seed) {
  rdse::Rng rng(rdse::split_stream_seed(seed, 0x5E4E));
  Inputs in;
  const auto add = [&](const char* model, std::int64_t iters,
                       std::int64_t warmup) {
    const std::uint64_t s = 1 + rng.uniform_u64(1'000'000'000ULL);
    in.pool.push_back({explore_request_line(model, iters, warmup, s),
                       iters + warmup});
  };
  for (int i = 0; i < kMotionKeys; ++i) {
    add("motion", kMotionIters, kMotionWarmup);
  }
  for (int i = 0; i < kSyntheticKeys; ++i) {
    add("synthetic:120", kSynthIters, kSynthWarmup);
  }
  // The two models alternate, each with its own Zipf ranking. The seed
  // decides which key holds which popularity rank; the sequence of ranks is
  // drawn from a fixed stream, so every seed sends the same number of
  // distinct keys and meets the same hits, misses and evictions. Drawn per
  // seed, the misses per round varied by ~7% (IQR/median) between seeds,
  // and requests per second with them.
  static_assert(kMotionKeys == kSyntheticKeys);
  std::vector<std::size_t> by_rank[2];
  for (int m = 0; m < 2; ++m) {
    for (int k = 0; k < kMotionKeys; ++k) {
      by_rank[m].push_back(m * kMotionKeys + k);
    }
    rng.shuffle(by_rank[m]);
  }
  std::vector<double> weights(kMotionKeys);
  for (std::size_t k = 0; k < weights.size(); ++k) {
    weights[k] = 1.0 / std::pow(static_cast<double>(k + 1), kZipfExponent);
  }
  rdse::Rng rank_rng(kRankStreamSeed);
  for (std::size_t i = 0; i < kStreamLength; ++i) {
    in.stream.push_back(by_rank[i % 2][rank_rng.weighted_index(weights)]);
  }
  return in;
}

/// One persistent NDJSON client connection.
class Connection {
 public:
  explicit Connection(const std::string& path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0) {
      throw rdse::Error("socket: " + std::string(std::strerror(errno)));
    }
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof addr.sun_path) {
      ::close(fd_);
      throw rdse::Error("socket path too long: " + path);
    }
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof addr) != 0) {
      const int err = errno;
      ::close(fd_);
      throw rdse::Error("connect " + path + ": " + std::strerror(err));
    }
  }
  ~Connection() { ::close(fd_); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Send one request line, return the response line.
  std::string call(const std::string& line) {
    const std::string out = line + '\n';
    for (std::size_t sent = 0; sent < out.size();) {
      const ssize_t n =
          ::send(fd_, out.data() + sent, out.size() - sent, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) {
        throw rdse::Error("send: " + std::string(std::strerror(errno)));
      }
      sent += static_cast<std::size_t>(n);
    }
    for (;;) {
      if (const auto nl = buf_.find('\n'); nl != std::string::npos) {
        std::string response = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        return response;
      }
      char chunk[8192];
      const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) throw rdse::Error("connection closed before a response");
      buf_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string buf_;
};

/// A Server answering on its socket from a background thread; stopped and
/// joined on destruction.
class RunningServer {
 public:
  explicit RunningServer(rdse::serve::ServerConfig config)
      : path_(config.socket_path), server_(std::move(config)) {
    thread_ = std::thread([this] {
      try {
        server_.run();
      } catch (const std::exception& e) {
        error_ = e.what();
      }
    });
  }
  ~RunningServer() { stop(); }
  RunningServer(const RunningServer&) = delete;
  RunningServer& operator=(const RunningServer&) = delete;

  /// Block until the socket answers a ping; throws after 10 s. Sleeps
  /// briefly between tries, so the wait adds no CPU time of its own.
  void wait_ready() {
    const std::int64_t deadline = now_ns() + 10'000'000'000;
    while (now_ns() < deadline) {
      try {
        Connection c(path_);
        if (c.call(R"({"op": "ping"})").rfind("{\"ok\": true", 0) == 0) return;
      } catch (const rdse::Error&) {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    }
    stop();  // joined: error_ is safe to read
    throw rdse::Error("serve: server did not come up: " + error_);
  }

  void stop() {
    if (!thread_.joinable()) return;
    server_.request_stop();
    thread_.join();
  }

 private:
  std::string path_;
  rdse::serve::Server server_;
  std::string error_;  ///< written by the thread, read only after join
  std::thread thread_;
};

struct Rec {
  std::int64_t latency_ns = 0;
  std::int64_t cpu_ns = 0;  ///< the process's CPU time across the call
  std::string response;
};

/// The result payload embedded verbatim in a success response.
std::optional<std::string> payload_of(const std::string& response) {
  static constexpr std::string_view kMarker = "\"result\": ";
  const auto at = response.find(kMarker);
  if (response.rfind("{\"ok\": true", 0) != 0 || at == std::string::npos ||
      response.back() != '}') {
    return std::nullopt;
  }
  const std::size_t from = at + kMarker.size();
  return response.substr(from, response.size() - 1 - from);
}

bool is_cached(const std::string& response) {
  return response.find("\"cached\": true") != std::string::npos;
}

std::int64_t status_int(const JsonValue& status, const char* group,
                        const char* field) {
  return status.at("result").at(group).at(field).as_int();
}

void remove_files(const std::vector<std::string>& paths) {
  std::error_code ec;
  for (const std::string& p : paths) {
    std::filesystem::remove(p, ec);
    std::filesystem::remove(p + ".tmp", ec);
  }
}

/// Per-key reference payloads and makespans shared by every check.
struct KeyBook {
  std::vector<std::string> payload;          ///< empty until first seen
  std::vector<std::optional<double>> makespan_ms;

  explicit KeyBook(std::size_t keys) : payload(keys), makespan_ms(keys) {}

  /// False when the payload differs from the key's earlier bytes.
  bool check(std::size_t key, const std::string& bytes) {
    if (payload[key].empty()) {
      payload[key] = bytes;
      makespan_ms[key] =
          JsonValue::parse(bytes).at("best").at("makespan_ms").as_number();
      return true;
    }
    return payload[key] == bytes;
  }
};

struct ServeTotals {
  std::int64_t hits = 0;
  std::int64_t work = 0;
  std::int64_t rejected = 0;
  std::vector<double> evictions;  ///< per round
};

/// Re-run explore requests as traced explore jobs — what the anneal
/// mapper runs for a miss — and set the explore per-layer metrics. Each
/// job's best makespan must equal the served payload's.
void probe_explore_requests(
    const std::vector<std::string>& lines,
    const std::map<std::string, std::string>& payloads, const Options& o,
    Result& res, Tracer& tracer) {
  SampledPhases phases;
  ExploreCounts counts;
  std::vector<double> wall_ms;
  std::vector<double> write_ms;
  const std::string result_path = o.workdir + "/serve-explore-result.json";
  for (std::size_t k = 0; k < lines.size(); ++k) {
    const rdse::serve::Request r =
        rdse::serve::parse_request(JsonValue::parse(lines[k]));
    const rdse::ModelSpec model = rdse::load_model_spec(r.model);
    JobSpec js;
    js.tg = &model.app.graph;
    js.model = model.app.name;
    js.clbs = r.clbs;
    js.tr_per_clb = model.tr_per_clb;
    js.bus_bytes_per_second = model.bus_bytes_per_second;
    js.seed = r.seed;
    js.iterations = r.iterations;
    js.warmup = r.warmup;
    SpanBuffer spans;
    JobTracing jt;
    jt.spans = &spans;
    jt.job = (1ULL << 41) + k;
    jt.sample_every = 1;
    jt.setup_probes = true;
    const JobOutcome out = run_job(js, jt, result_path);
    tracer.merge(spans);
    res.attempt();
    std::string why = check_run(model.app.graph, out.run);
    if (why.empty()) why = check_written(result_path, model.app.graph, out.run);
    const auto it = payloads.find(lines[k]);
    if (why.empty() &&
        (it == payloads.end() ||
         rdse::to_ms(out.run.best_metrics.makespan) !=
             JsonValue::parse(it->second).at("best").at("makespan_ms").as_number())) {
      why = "makespan differs from the served result";
    }
    if (!why.empty()) res.wrong("explore request " + lines[k] + ": " + why);
    phases.add(out.sampled);
    counts.add(out);
    wall_ms.push_back(out.wall_s * 1e3);
    write_ms.push_back(out.write_s * 1e3);
  }
  const std::vector<Span> all = tracer.spans();
  emit_explore_layers(res, all, phases, counts);
  res.set("core.run_wall_ms", median(wall_ms));
  res.set("core.result_write_ms", median(write_ms));
}

}  // namespace

std::string explore_request_line(const std::string& model, std::int64_t iters,
                                 std::int64_t warmup, std::uint64_t seed) {
  return R"({"op": "explore", "model": ")" + model + R"(", "iters": )" +
         std::to_string(iters) + R"(, "warmup": )" + std::to_string(warmup) +
         R"(, "seed": )" + std::to_string(seed) + "}";
}

ServeProbe probe_serve_layers(const std::vector<std::string>& lines,
                              const Options& o, Result& res, Tracer& tracer,
                              const ServeLatencies* socket) {
  SpanBuffer spans;
  const std::uint64_t probe_job = 1ULL << 40;
  std::map<std::string, std::string> payloads;  // per distinct line
  std::vector<std::string> distinct;            // first-seen order
  // Records a response; false when it carried no payload.
  const auto record = [&](const std::string& line, const std::string& response,
                          const char* where) {
    res.attempt();
    const auto payload = payload_of(response);
    if (!payload) {
      res.refused(std::string(where) + ": " + response);
      return false;
    }
    const auto [it, fresh] = payloads.emplace(line, *payload);
    if (fresh) distinct.push_back(line);
    if (!fresh && it->second != *payload) {
      res.wrong(std::string(where) + ": payload differs from the earlier "
                "result of its request");
    }
    return true;
  };

  // Serial replay through an in-process service: handle() latency, and
  // counters that are exact because nothing runs concurrently.
  std::vector<double> handle_hit_us;
  {
    rdse::serve::ServiceConfig sc;
    sc.workers = kWorkers;
    sc.run_threads = 1;
    sc.persist_path = o.workdir + "/probe.cachedb";
    sc.journal_path = o.workdir + "/probe.journal";
    remove_files({sc.persist_path, sc.journal_path});
    rdse::serve::ExplorationService svc(sc);
    for (std::size_t i = 0; i < lines.size(); ++i) {
      const std::int64_t ts = now_ns();
      const auto handled = svc.handle(lines[i]);
      const std::int64_t te = now_ns();
      spans.add("serve.handle", kNoParent, probe_job + i, ts, te);
      if (record(lines[i], handled.response, "in-process request") &&
          is_cached(handled.response)) {
        handle_hit_us.push_back(static_cast<double>(te - ts) * 1e-3);
      }
    }
    const rdse::serve::ServiceStats st = svc.stats();
    res.set("count.cache_hits", static_cast<double>(st.cache.hits));
    res.set("count.cache_misses", static_cast<double>(st.cache.misses));
    res.set("count.cache_evictions", static_cast<double>(st.cache.evictions));
    res.set("count.persist_saves", static_cast<double>(st.persist_saves));
    res.set("count.journal_appends", static_cast<double>(st.journal.appends));
    if (st.persist_saves != st.cache.misses ||
        st.journal.appends != 3 * st.cache.misses ||
        st.cache.hits + st.cache.misses != lines.size()) {
      res.wrong("in-process serve counters do not add up");
    }
    const auto work = static_cast<std::int64_t>(st.cache.hits + st.cache.misses);
    const Ratio hit_ratio{static_cast<std::int64_t>(st.cache.hits), work};
    const Ratio rejected_ratio{static_cast<std::int64_t>(st.rejected), work};
    res.set("serve.hit_ratio", hit_ratio.value());
    res.set("serve.evictions", static_cast<double>(st.cache.evictions));
    res.set("serve.rejected_ratio", rejected_ratio.value());
    res.note("in-process serve replay: hit_ratio = " + hit_ratio.describe() +
             ", rejected_ratio = " + rejected_ratio.describe());
  }
  remove_files({o.workdir + "/probe.cachedb", o.workdir + "/probe.journal"});

  // Protocol and cache: parse + canonical key, then the LRU lookup/insert
  // sequence the service performs, on a private cache.
  std::vector<double> protocol_us;
  std::vector<double> lookup_us;
  rdse::serve::SolutionCache cache(rdse::serve::ServiceConfig{}.cache_capacity);
  for (std::size_t i = 0; i < lines.size(); ++i) {
    std::int64_t ts = now_ns();
    const rdse::serve::Request request =
        rdse::serve::parse_request(JsonValue::parse(lines[i]));
    const std::string canonical = rdse::serve::canonical_key(request);
    std::int64_t te = now_ns();
    spans.add("serve.protocol", kNoParent, probe_job + i, ts, te);
    protocol_us.push_back(static_cast<double>(te - ts) * 1e-3);
    ts = now_ns();
    const bool hit = cache.lookup(canonical).has_value();
    te = now_ns();
    spans.add("serve.cache_lookup", kNoParent, probe_job + i, ts, te);
    lookup_us.push_back(static_cast<double>(te - ts) * 1e-3);
    const auto payload = payloads.find(lines[i]);
    if (!hit && payload != payloads.end()) cache.insert(canonical, payload->second);
  }

  // Storage: the whole-database rewrite a fresh result triggers, and the
  // journal's fsync'd appends.
  std::vector<double> persist_ms;
  const std::string db_path = o.workdir + "/probe-save.cachedb";
  const auto entries = cache.export_entries();
  for (int k = 0; k < kPersistSamples; ++k) {
    const std::int64_t ts = now_ns();
    const bool ok = rdse::serve::save_cache_db(db_path, entries);
    const std::int64_t te = now_ns();
    spans.add("serve.persist_save", kNoParent, probe_job, ts, te);
    if (!ok) res.refused("serve probe: save_cache_db failed");
    persist_ms.push_back(static_cast<double>(te - ts) * 1e-6);
  }
  std::vector<double> journal_us;
  const std::string journal_path = o.workdir + "/probe-append.journal";
  remove_files({db_path, journal_path});
  {
    rdse::serve::WorkJournal journal(journal_path);
    for (int k = 0; k < kJournalSamples; ++k) {
      const std::string key = rdse::serve::canonical_key(rdse::serve::parse_request(
          JsonValue::parse(lines[static_cast<std::size_t>(k) % lines.size()])));
      const std::int64_t ts = now_ns();
      const bool ok = journal.append("accepted", key);
      const std::int64_t te = now_ns();
      spans.add("serve.journal_append", kNoParent, probe_job, ts, te);
      if (!ok) res.refused("serve probe: journal append failed");
      journal_us.push_back(static_cast<double>(te - ts) * 1e-3);
    }
  }
  remove_files({journal_path});

  // Execution alone: the service's explore path (registry model, mapper,
  // platform, one-thread SweepEngine) for every distinct request.
  std::map<std::string, double> execute_ms;  // per distinct line
  double engine_s = 0.0;                     // SweepEngine calls
  double mapper_s = 0.0;                     // their runs' own walls
  for (std::size_t k = 0; k < distinct.size(); ++k) {
    const rdse::serve::Request r =
        rdse::serve::parse_request(JsonValue::parse(distinct[k]));
    const std::int64_t ts = now_ns();
    const rdse::ModelSpec model = rdse::load_model_spec(r.model);
    rdse::MapperConfig mc;
    mc.seed = r.seed;
    mc.iterations = r.iterations;
    mc.warmup_iterations = r.warmup;
    mc.schedule = r.schedule;
    mc.batch = r.batch;
    const auto mapper = rdse::make_mapper(r.mapper);
    const rdse::Architecture arch = rdse::make_cpu_fpga_architecture(
        r.clbs, model.tr_per_clb, model.bus_bytes_per_second);
    const std::int64_t t_engine = now_ns();
    const auto results = rdse::SweepEngine(1).run_mapper_many(
        *mapper, model.app.graph, arch, mc, r.runs);
    const std::int64_t te = now_ns();
    engine_s += static_cast<double>(te - t_engine) * 1e-9;
    for (const rdse::MapperResult& m : results) mapper_s += m.wall_seconds;
    spans.add("serve.execute", kNoParent, probe_job + k, ts, te);
    execute_ms[distinct[k]] = static_cast<double>(te - ts) * 1e-6;
    res.attempt();
    if (rdse::to_ms(results.front().best_metrics.makespan) !=
        JsonValue::parse(payloads.at(distinct[k]))
            .at("best").at("makespan_ms").as_number()) {
      res.wrong("serve probe: direct execution differs from the served result");
    }
  }

  // Client latencies over the socket: the caller's, or one connection
  // replaying the lines against a fresh Server.
  ServeLatencies own;
  if (socket == nullptr) {
    rdse::serve::ServerConfig cfg;
    cfg.socket_path = o.workdir + "/probe.sock";
    cfg.service.workers = kWorkers;
    cfg.service.run_threads = 1;
    cfg.service.persist_path = o.workdir + "/probe-sock.cachedb";
    cfg.service.journal_path = o.workdir + "/probe-sock.journal";
    const std::vector<std::string> files = {
        cfg.socket_path, cfg.service.persist_path, cfg.service.journal_path};
    remove_files(files);
    {
      RunningServer server(cfg);
      server.wait_ready();
      Connection conn(cfg.socket_path);
      for (std::size_t i = 0; i < lines.size(); ++i) {
        const std::int64_t ts = now_ns();
        const std::string response = conn.call(lines[i]);
        const std::int64_t te = now_ns();
        spans.add("serve.request", kNoParent, probe_job + i, ts, te);
        if (record(lines[i], response, "socket request")) {
          const double ms = static_cast<double>(te - ts) * 1e-6;
          if (is_cached(response)) {
            own.hit_ms.push_back(ms);
          } else {
            own.misses.push_back({lines[i], ms});
          }
        }
      }
      (void)Connection(cfg.socket_path).call(R"({"op": "shutdown"})");
    }
    remove_files(files);
    socket = &own;
  }
  tracer.merge(spans);

  // Each socket miss is matched with the execution time of its own request,
  // so the wait is taken per request, not from medians of different mixes.
  const double persist = median(persist_ms);
  const double append = median(journal_us);
  std::vector<double> miss_execute_ms;
  std::vector<double> queue_wait_ms;
  for (const auto& [line, ms] : socket->misses) {
    const auto it = execute_ms.find(line);
    if (it == execute_ms.end()) continue;  // refused in process: counted
    miss_execute_ms.push_back(it->second);
    queue_wait_ms.push_back(ms - it->second - persist - 3 * append * 1e-3);
  }
  const double handle_hit = median(handle_hit_us);
  res.set("serve.protocol_us", median(protocol_us));
  res.set("serve.cache_lookup_us", median(lookup_us));
  res.set("serve.handle_hit_us", handle_hit);
  res.set("serve.socket_us", median(socket->hit_ms) * 1e3 - handle_hit);
  res.set("serve.execute_ms", median(miss_execute_ms));
  res.set("serve.persist_save_ms", persist);
  res.set("serve.journal_append_us", append);
  res.set("serve.queue_wait_ms", median(queue_wait_ms));
  return {payloads, mapper_s / engine_s};
}

void run_serve(const Options& o, Result& res, Tracer& tracer) {
  const Inputs in = make_inputs(o.seed);
  const std::size_t n = in.stream.size();
  KeyBook book(in.pool.size());
  E2EAcc plain;
  E2EAcc traced;
  HostSpeed speed;
  speed.sample();
  ServeTotals totals;
  ServeLatencies traced_socket;
  std::vector<double> plain_hit_ms;
  std::vector<double> plain_miss_ms;

  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(o.seconds * 1e9);
  const int min_rounds = o.trace ? 2 : 1;
  for (int round = 0; round < min_rounds || now_ns() < deadline; ++round) {
    const bool traced_round = o.trace && round % 2 == 1;
    E2EAcc& acc = traced_round ? traced : plain;
    const std::string stem = o.workdir + "/serve-" + std::to_string(round);
    rdse::serve::ServerConfig cfg;
    cfg.socket_path = stem + ".sock";
    cfg.service.workers = kWorkers;
    cfg.service.run_threads = 1;
    cfg.service.persist_path = stem + ".cachedb";
    cfg.service.journal_path = stem + ".journal";
    const std::vector<std::string> files = {
        cfg.socket_path, cfg.service.persist_path, cfg.service.journal_path};
    remove_files(files);

    reset_peak_rss();
    const std::int64_t c_setup = process_cpu_ns();
    std::optional<RunningServer> server(std::in_place, cfg);
    server->wait_ready();
    acc.add_setups({static_cast<double>(process_cpu_ns() - c_setup) * 1e-9});

    // The closed loop: one connection, each request sent when the previous
    // reply has arrived.
    std::vector<Rec> recs;
    recs.reserve(n);
    std::string client_error;
    SpanBuffer spans;
    const std::uint64_t job_base = static_cast<std::uint64_t>(round) * n;
    const std::int64_t t0 = now_ns();
    try {
      Connection conn(cfg.socket_path);
      for (std::size_t i = 0; i < n; ++i) {
        const std::int64_t cs = process_cpu_ns();
        const std::int64_t ts = now_ns();
        std::string response = conn.call(in.pool[in.stream[i]].line);
        const std::int64_t te = now_ns();
        const std::int64_t ce = process_cpu_ns();
        if (traced_round) {
          spans.add("serve.request", kNoParent, job_base + i, ts, te);
        }
        recs.push_back({te - ts, ce - cs, std::move(response)});
      }
    } catch (const std::exception& e) {
      client_error = e.what();
    }
    const double stream_s = static_cast<double>(now_ns() - t0) * 1e-9;
    tracer.merge(spans);

    std::optional<JsonValue> status;
    try {
      status = JsonValue::parse(
          Connection(cfg.socket_path).call(R"({"op": "status"})"));
      (void)Connection(cfg.socket_path).call(R"({"op": "shutdown"})");
    } catch (const std::exception& e) {
      res.wrong(std::string("serve_mixed: status/shutdown failed: ") +
                e.what());
    }
    server.reset();
    acc.rss_mb.push_back(peak_rss_mb());
    remove_files(files);

    // Check every response and the server's own counters.
    const std::int64_t answered = static_cast<std::int64_t>(recs.size());
    std::int64_t hits = 0;
    std::vector<double> round_iters;
    std::vector<std::vector<double>> round_cpu_ms;  // one piece a request
    std::vector<double> round_ms;
    if (!client_error.empty()) {
      res.refused("serve_mixed client: " + client_error);
    }
    for (std::size_t i = 0; i < recs.size(); ++i) {
      const Rec& r = recs[i];
      res.attempt();
      const std::size_t key = in.stream[i];
      const auto payload = payload_of(r.response);
      if (!payload) {
        res.refused("serve_mixed request " + std::to_string(i) + ": " +
                    r.response);
        continue;
      }
      if (!book.check(key, *payload)) {
        res.wrong("serve_mixed request " + std::to_string(i) +
                  ": payload differs from the earlier result of its key");
      }
      const double ms = static_cast<double>(r.latency_ns) * 1e-6;
      round_ms.push_back(ms);
      round_cpu_ms.push_back({static_cast<double>(r.cpu_ns) * 1e-6});
      const bool hit = is_cached(r.response);
      hits += hit ? 1 : 0;
      round_iters.push_back(
          hit ? 0.0 : static_cast<double>(in.pool[key].iterations));
      if (!traced_round) {
        (hit ? plain_hit_ms : plain_miss_ms).push_back(ms);
      } else if (hit) {
        traced_socket.hit_ms.push_back(ms);
      } else {
        traced_socket.misses.push_back({in.pool[key].line, ms});
      }
    }
    // Requests never sent because the client failed count as failed too.
    for (std::int64_t i = answered; i < static_cast<std::int64_t>(n); ++i) {
      res.attempt();
      res.refused("serve_mixed request not answered");
    }
    if (status) {
      const std::int64_t s_hits = status_int(*status, "cache", "hits");
      const std::int64_t s_misses = status_int(*status, "cache", "misses");
      const std::int64_t saves = status_int(*status, "persist", "saves");
      const std::int64_t appends = status_int(*status, "journal", "appends");
      const std::int64_t rejected = status_int(*status, "requests", "rejected");
      if (s_hits + s_misses != answered || s_hits != hits) {
        res.wrong("serve_mixed status: hits " + std::to_string(s_hits) +
                  " + misses " + std::to_string(s_misses) +
                  " do not match the work requests answered");
      }
      // A refused request was looked up (a miss) but never executed.
      const std::int64_t fresh = s_misses - rejected;
      if (saves != fresh || appends != 3 * fresh) {
        res.wrong("serve_mixed status: persist saves " + std::to_string(saves) +
                  " / journal appends " + std::to_string(appends) +
                  " do not match " + std::to_string(fresh) + " fresh results");
      }
      totals.hits += s_hits;
      totals.work += s_hits + s_misses;
      totals.rejected += rejected;
      totals.evictions.push_back(
          static_cast<double>(status_int(*status, "cache", "evictions")));
    }
    // A round with a failed request (counted above) adds no samples.
    if (round_cpu_ms.size() == n) acc.add_round(round_cpu_ms, round_iters);
    speed.sample();
    acc.wall_ops_per_s.push_back(static_cast<double>(n) / stream_s);
    acc.wall_p50_ms.push_back(median(round_ms));
  }

  // Quality sentinel: per model, the mean best makespan over the stream's
  // distinct keys; then the mean of the two models.
  double sum_of_means = 0.0;
  for (int m = 0; m < 2; ++m) {
    double sum_ms = 0.0;
    int keys = 0;
    for (int k = 0; k < kMotionKeys; ++k) {
      if (const auto& ms = book.makespan_ms[m * kMotionKeys + k]) {
        sum_ms += *ms;
        ++keys;
      }
    }
    sum_of_means += keys > 0 ? sum_ms / keys : 0.0;
  }
  plain.best_makespan_ms = sum_of_means / 2;
  traced.best_makespan_ms = plain.best_makespan_ms;

  const E2E pe = summarize(plain);
  emit_e2e(res, pe, speed, "request");
  const Tail hit_tail = tail_percentile(plain_hit_ms, 99.0);
  char line[256];
  std::snprintf(line, sizeof line,
                "serve_mixed wall clock, not gated: hit_p%g_ms = %.4f over "
                "%zu hits; miss_p50_ms = %.3f over %zu misses",
                hit_tail.level, hit_tail.value, hit_tail.samples,
                median(plain_miss_ms), plain_miss_ms.size());
  res.note(line);
  res.note("serve_mixed: " + std::to_string(in.pool.size()) + " keys, " +
           std::to_string(n) + " requests per round, one client connection");
  if (!o.trace) return;
  emit_overhead(res, summarize(traced), pe, speed);

  // The serve layers in process, on the same stream; their payloads must
  // match the socket results byte for byte.
  std::vector<std::string> lines;
  for (const std::size_t key : in.stream) lines.push_back(in.pool[key].line);
  const ServeProbe probe =
      probe_serve_layers(lines, o, res, tracer, &traced_socket);
  const auto& payloads = probe.payloads;
  std::vector<std::string> explore_lines;
  for (std::size_t key = 0; key < in.pool.size(); ++key) {
    const auto it = payloads.find(in.pool[key].line);
    if (it == payloads.end()) continue;
    if (!book.check(key, it->second)) {
      res.wrong("serve_mixed: in-process payload differs from the socket "
                "result of its key");
    }
  }
  // The miss path below the service: the first distinct requests of the
  // stream re-run as traced explore jobs.
  for (const std::string& line : lines) {
    if (explore_lines.size() == kExploreSamples) break;
    if (std::find(explore_lines.begin(), explore_lines.end(), line) ==
        explore_lines.end()) {
      explore_lines.push_back(line);
    }
  }
  probe_explore_requests(explore_lines, payloads, o, res, tracer);
  res.set("core.sweep_efficiency", probe.sweep_efficiency);
  res.note("core.sweep_efficiency = summed mapper run walls / summed "
           "one-thread SweepEngine call walls over the executed requests");

  // The ratios of the socket rounds replace the in-process replay's.
  const Ratio hit_ratio{totals.hits, totals.work};
  const Ratio rejected_ratio{totals.rejected, totals.work};
  res.set("serve.hit_ratio", hit_ratio.value());
  res.note("serve.hit_ratio = " + hit_ratio.describe());
  res.set("serve.evictions", median(totals.evictions));
  res.set("serve.rejected_ratio", rejected_ratio.value());
  res.note("serve.rejected_ratio = " + rejected_ratio.describe());
}

}  // namespace e2e
