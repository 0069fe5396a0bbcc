#pragma once
/// \file layers.hpp
/// \brief Per-layer metrics of exploration jobs, from their spans and the
/// counters the program exposes (move_stats, incremental_stats).

#include <cstdint>
#include <span>

#include "explore_job.hpp"
#include "report.hpp"
#include "sched/incremental_eval.hpp"

namespace e2e {

/// Deterministic counters summed over a fixed set of jobs.
struct ExploreCounts {
  std::int64_t drawn = 0;
  std::int64_t evaluated = 0;
  std::int64_t accepted = 0;
  std::int64_t probes = 0;
  std::int64_t relaxed_nodes = 0;
  std::int64_t seq_edges_added = 0;
  std::int64_t seq_edges_kept = 0;
  std::int64_t seq_edges_removed = 0;
  std::int64_t bounds_reused = 0;
  std::int64_t bounds_computed = 0;
  std::int64_t clbs_reused = 0;
  std::int64_t clbs_computed = 0;

  void add(const JobOutcome& job);
  friend bool operator==(const ExploreCounts&, const ExploreCounts&) = default;
};

/// Set the setup, sched and core/anneal per-layer metrics and the exact
/// counts; ratios are also noted with their bases.
void emit_explore_layers(Result& result, std::span<const Span> spans,
                         const SampledPhases& phases,
                         const ExploreCounts& counts);

}  // namespace e2e
