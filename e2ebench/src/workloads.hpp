#pragma once
/// \file workloads.hpp
/// \brief The benchmark's workloads. Each runs rounds of identical,
/// seed-determined work until `seconds` have passed, checks every output,
/// and fills the end-to-end metrics (--trace 0) or, alternating untraced
/// and traced rounds, the per-layer metrics and the tracing overhead
/// (--trace 1).

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "report.hpp"
#include "spans.hpp"

namespace e2e {

/// Spans kept per run; a merge that would exceed it is dropped whole.
inline constexpr std::size_t kSpanCapacity = 1'500'000;

/// The paper's Fig. 3 device-size sweep on the motion-detection model.
void run_fig3(const Options& options, Result& result, Tracer& tracer);
/// Mixed explore traffic against `rdse serve` over a Unix socket.
void run_serve(const Options& options, Result& result, Tracer& tracer);

/// One explore request line of the serve protocol (anneal mapper, default
/// platform).
[[nodiscard]] std::string explore_request_line(const std::string& model,
                                               std::int64_t iters,
                                               std::int64_t warmup,
                                               std::uint64_t seed);

/// Client-side latencies over the serve socket, in ms.
struct ServeLatencies {
  std::vector<double> hit_ms;
  /// Each miss with its request line.
  std::vector<std::pair<std::string, double>> misses;
};

/// The serve layers measured one at a time on a request stream (repeats
/// allowed), in traced runs of every workload: a serial replay through an
/// in-process ExplorationService (handle() latency and exact cache, persist
/// and journal counters), parse + canonical key, the cache's LRU sequence,
/// save_cache_db, journal appends and the bare mapper run of each distinct
/// request, matched with its socket misses for the queue wait. `socket` gives
/// the client latencies over the socket; when null the stream is also
/// replayed over one connection to a fresh Server. Sets every serve.*
/// metric and the serve count.* metrics.
struct ServeProbe {
  /// The payload per distinct request line (byte-equal across every
  /// response of it, or the run is marked wrong).
  std::map<std::string, std::string> payloads;
  /// The service's one-thread SweepEngine: summed mapper run walls / summed
  /// engine call walls over the executed requests.
  double sweep_efficiency = 0.0;
};
ServeProbe probe_serve_layers(const std::vector<std::string>& lines,
                              const Options& options, Result& result,
                              Tracer& tracer, const ServeLatencies* socket);

}  // namespace e2e
