#pragma once
/// \file explore_job.hpp
/// \brief One exploration job driven through rdse's public API, with its
/// set-up, annealing and result write timed separately.
///
/// The job runs what Explorer::run runs — architecture, Explorer,
/// initial_solution, DseProblem, then the annealing engine — but from the
/// outside, so set-up ends visibly before the first annealing iteration and
/// a traced job can wrap the DseProblem in a timing AnnealProblem that the
/// AnnealEngine drives. Results are bit-identical to Explorer::run for the
/// same seed (the fig3_sweep traced rounds check this against the sweep
/// engine's runs).

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/explorer.hpp"
#include "spans.hpp"

namespace e2e {

struct JobSpec {
  const rdse::TaskGraph* tg = nullptr;
  std::string model;  ///< name recorded in the result document
  std::int32_t clbs = 0;
  rdse::TimeNs tr_per_clb = 0;
  std::int64_t bus_bytes_per_second = 0;
  std::uint64_t seed = 1;
  std::int64_t iterations = 0;
  std::int64_t warmup = 0;
};

struct JobTracing {
  SpanBuffer* spans = nullptr;  ///< null: untraced job
  std::uint64_t job = 0;
  /// Record per-move spans (and the sched micro-profile) on every k-th
  /// engine chunk; 0 records none.
  int sample_every = 0;
  /// Time the set-up layers one by one (search graph, topo order, longest
  /// path, full evaluation, incremental reset) on the initial solution.
  bool setup_probes = false;
};

/// Annealing iterations per CPU-timed piece of an untraced job (about half
/// a millisecond on the motion-detection model).
inline constexpr std::int64_t kCpuPiece = 1024;

/// Layer timings summed over the sampled chunks of a traced job.
struct SampledPhases {
  std::int64_t iterations = 0;
  std::int64_t propose_calls = 0, propose_ns = 0;
  std::int64_t accept_calls = 0, accept_ns = 0;
  std::int64_t reject_calls = 0, reject_ns = 0;
  std::int64_t snapshot_calls = 0, snapshot_ns = 0;
  std::int64_t evals = 0;  ///< candidates the incremental evaluator probed
  std::int64_t stage_ns = 0, reconcile_ns = 0, context_ns = 0, relax_ns = 0;

  void add(const SampledPhases& o);
};

struct JobOutcome {
  rdse::RunResult run;       ///< best solution/architecture/metrics, counters
  double setup_s = 0.0;      ///< application -> first annealing iteration
  double anneal_s = 0.0;
  double write_s = 0.0;      ///< 0 when no result path was given
  double wall_s = 0.0;       ///< setup + anneal + write
  /// CPU time of the job's thread for set-up, and for set-up plus
  /// annealing (the probes and the result write excluded).
  double setup_cpu_s = 0.0;
  double cpu_s = 0.0;
  /// Untraced jobs: the set-up's, then each kCpuPiece-iteration annealing
  /// piece's CPU time in ms, in order. The same job splits the same way
  /// every time it runs.
  std::vector<double> pieces_cpu_ms;
  std::optional<rdse::IncrementalEvalStats> inc;
  SampledPhases sampled;
};

/// Run the job; writes the rdse.explore.v1-shaped result document to
/// `result_path` when it is non-empty. `setup_only` stops after set-up (only
/// `setup_s` and `setup_cpu_s` are filled).
[[nodiscard]] JobOutcome run_job(const JobSpec& spec, const JobTracing& tracing,
                                 const std::string& result_path,
                                 bool setup_only = false);

/// Empty when the run's best solution validates and re-scores, with the
/// full Evaluator on its best architecture, to exactly the reported
/// metrics; otherwise what differs.
[[nodiscard]] std::string check_run(const rdse::TaskGraph& tg,
                                    const rdse::RunResult& run);

/// Empty when the result document at `path` parses and carries the run's
/// best makespan and solution.
[[nodiscard]] std::string check_written(const std::string& path,
                                        const rdse::TaskGraph& tg,
                                        const rdse::RunResult& run);

}  // namespace e2e
