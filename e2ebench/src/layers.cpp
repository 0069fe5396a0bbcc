#include "layers.hpp"

#include <cstring>
#include <string>
#include <vector>

#include "core/problem.hpp"

namespace e2e {

void ExploreCounts::add(const JobOutcome& job) {
  for (const rdse::MoveClassStats& m : job.run.move_stats) {
    drawn += m.drawn;
    evaluated += m.evaluated;
    accepted += m.accepted;
  }
  if (!job.inc) return;
  const rdse::IncrementalEvalStats& s = *job.inc;
  probes += s.relax.probes;
  relaxed_nodes += s.relax.relaxed_nodes;
  seq_edges_added += s.seq_edges_added;
  seq_edges_kept += s.seq_edges_kept;
  seq_edges_removed += s.seq_edges_removed;
  bounds_reused += s.bounds_reused;
  bounds_computed += s.bounds_computed;
  clbs_reused += s.clbs_reused;
  clbs_computed += s.clbs_computed;
}

namespace {

/// Median duration in ms of the spans named `name` (0 when there are none).
double median_span_ms(std::span<const Span> spans, const char* name) {
  std::vector<double> ms;
  for (const Span& s : spans) {
    if (std::strcmp(s.name, name) == 0) {
      ms.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-6);
    }
  }
  return median(std::move(ms));
}

double per(std::int64_t num, std::int64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

void ratio(Result& result, const char* name, Ratio r) {
  result.set(name, r.value());
  result.note(std::string(name) + " = " + r.describe());
}

}  // namespace

void emit_explore_layers(Result& result, std::span<const Span> spans,
                         const SampledPhases& p, const ExploreCounts& c) {
  static constexpr const char* kSetupLayers[][2] = {
      {"core.explorer_build_ms", "core.explorer_build"},
      {"mapping.initial_solution_ms", "mapping.initial_solution"},
      {"core.problem_build_ms", "core.problem_build"},
      {"mapping.search_graph_build_ms", "mapping.search_graph_build"},
      {"graph.topo_ms", "graph.topo"},
      {"graph.longest_path_ms", "graph.longest_path"},
      {"sched.full_eval_ms", "sched.full_eval"},
      {"sched.reset_ms", "sched.reset"},
  };
  for (const auto& [metric, span] : kSetupLayers) {
    result.set(metric, median_span_ms(spans, span));
  }

  const std::int64_t sched_ns =
      p.stage_ns + p.reconcile_ns + p.context_ns + p.relax_ns;
  result.set("sched.eval_ns", per(sched_ns, p.evals));
  result.set("sched.stage_ns", per(p.stage_ns, p.evals));
  result.set("sched.reconcile_ns", per(p.reconcile_ns, p.evals));
  result.set("sched.context_ns", per(p.context_ns, p.evals));
  result.set("sched.relax_ns", per(p.relax_ns, p.evals));
  result.set("sched.relaxed_nodes_per_eval", per(c.relaxed_nodes, c.probes));
  result.set("sched.seq_edges_added_per_eval",
             per(c.seq_edges_added, c.probes));
  result.note("sched per-eval counts over the " + std::to_string(c.probes) +
              " candidates probed by the counted jobs (feasible or cyclic);"
              " phase times over " + std::to_string(p.evals) +
              " probes in sampled chunks");
  ratio(result, "sched.seq_diff_hit_rate",
        {c.seq_edges_kept, c.seq_edges_kept + c.seq_edges_removed});
  ratio(result, "sched.bounds_reuse_rate",
        {c.bounds_reused, c.bounds_reused + c.bounds_computed});
  ratio(result, "sched.clbs_reuse_rate",
        {c.clbs_reused, c.clbs_reused + c.clbs_computed});

  result.set("core.propose_ns", per(p.propose_ns, p.propose_calls));
  result.set("core.accept_ns", per(p.accept_ns, p.accept_calls));
  result.set("core.reject_ns", per(p.reject_ns, p.reject_calls));
  result.set("core.snapshot_best_ns", per(p.snapshot_ns, p.snapshot_calls));
  result.set("core.move_gen_ns", per(p.propose_ns - sched_ns, p.propose_calls));
  const auto layers = layer_times(spans);
  const auto chunk = layers.find("anneal.chunk");
  result.set("anneal.self_ns",
             chunk == layers.end() ? 0.0
                                   : per(chunk->second.self_ns, p.iterations));
  result.note("core/anneal per-call times over " +
              std::to_string(p.iterations) + " sampled iterations");
  ratio(result, "core.evaluated_ratio", {c.evaluated, c.drawn});
  ratio(result, "core.accept_ratio", {c.accepted, c.evaluated});

  result.set("count.evaluated_moves", static_cast<double>(c.evaluated));
  result.set("count.relaxed_nodes", static_cast<double>(c.relaxed_nodes));
  result.set("count.seq_edges_added", static_cast<double>(c.seq_edges_added));
}

}  // namespace e2e
