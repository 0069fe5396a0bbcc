// fig3_sweep: the paper's own experiment. The device-size sweep over the 13
// Fig. 3 sizes on the 28-task motion-detection model at the paper's budget,
// R runs per point on a 2-thread SweepEngine. Evaluation of a 28-task graph
// is nearly free, so move generation, the annealing loop and the sweep
// engine's parallelism dominate. The first, untimed round runs the sweep
// through the SweepEngine; the timed rounds run the same runs on an equal
// pool through the benchmark's job, which reads each run's CPU time piece by
// piece on its own thread, and must reproduce the engine's results.

#include <array>
#include <optional>
#include <string>
#include <vector>

#include "core/sweep_engine.hpp"
#include "explore_job.hpp"
#include "layers.hpp"
#include "model/registry.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

namespace e2e {

namespace {

constexpr std::array<std::int32_t, 13> kSizes = {
    100, 200, 400, 600, 800, 1000, 1500, 2000, 3000, 4000, 5000, 7000, 10000};
/// 104 runs per round, each with its own seed. A short round repeats each
/// piece of work more often in a run, and the least of more repeats varies
/// less with the host's load: with 416 runs per round, ops_per_cpu_s of ten
/// seeds spread 0.10 (IQR/median) against 0.03.
constexpr int kRunsPerPoint = 8;
constexpr unsigned kThreads = 2;
constexpr std::int64_t kIterations = 20'000;
constexpr std::int64_t kWarmup = 1'200;
/// Traced rounds record per-move spans on every 8th engine chunk of the
/// first run of each point; a span per move of every run would outgrow the
/// span store within a few rounds.
constexpr int kSampleEvery = 8;

}  // namespace

void run_fig3(const Options& o, Result& res, Tracer& tracer) {
  const rdse::ModelSpec model = rdse::load_model_spec("motion");
  const rdse::TaskGraph& tg = model.app.graph;
  rdse::ExplorerConfig cfg;
  cfg.seed = 1 + rdse::split_stream_seed(o.seed, 0xF163) % 1'000'000'000ULL;
  cfg.iterations = kIterations;
  cfg.warmup_iterations = kWarmup;
  cfg.record_trace = false;
  rdse::SweepSpec spec =
      rdse::device_size_sweep(kSizes, model.tr_per_clb,
                              model.bus_bytes_per_second, cfg, kRunsPerPoint,
                              model.app.deadline);
  // Point p runs seeds cfg.seed + p * R .. + R - 1, so no two runs of the
  // sweep share a seed.
  for (std::size_t p = 0; p < spec.points.size(); ++p) {
    spec.points[p].config.seed = cfg.seed + p * kRunsPerPoint;
  }
  const rdse::SweepEngine engine(kThreads);
  constexpr std::size_t kRuns = kSizes.size() * kRunsPerPoint;

  const auto job_spec = [&](std::size_t point, std::uint64_t seed) {
    JobSpec js;
    js.tg = &tg;
    js.model = model.app.name;
    js.clbs = kSizes[point];
    js.tr_per_clb = model.tr_per_clb;
    js.bus_bytes_per_second = model.bus_bytes_per_second;
    js.seed = seed;
    js.iterations = kIterations;
    js.warmup = kWarmup;
    return js;
  };

  E2EAcc plain;
  E2EAcc traced;
  HostSpeed speed;
  // 104 runs per round: p90 has 10 beyond it, p95 only 5.
  plain.tail_max_level = traced.tail_max_level = 90.0;
  SampledPhases phases;
  std::optional<ExploreCounts> counts;
  std::vector<double> efficiency;
  std::vector<double> plain_run_ms;
  std::vector<double> write_ms;
  std::uint64_t next_job = 0;
  const auto result_path_of = [&](std::size_t point) {
    return o.workdir + "/fig3-result-" + std::to_string(point) + ".json";
  };

  // The run's time includes the untimed first round.
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(o.seconds * 1e9);

  // Untimed first round, which also warms up: the sweep as the paper's
  // experiment runs it, through the SweepEngine. Its best makespans are
  // the reference every timed round must reproduce.
  std::vector<rdse::TimeNs> reference(kRuns);
  {
    const std::int64_t t0 = now_ns();
    const rdse::SweepResult sweep = engine.run(tg, spec);
    const double sweep_s = static_cast<double>(now_ns() - t0) * 1e-9;
    double sum_wall_s = 0.0;
    for (std::size_t i = 0; i < kRuns; ++i) {
      const rdse::RunResult& run =
          sweep.points[i / kRunsPerPoint].runs[i % kRunsPerPoint];
      res.attempt();
      if (const std::string why = check_run(tg, run); !why.empty()) {
        res.wrong("fig3_sweep engine run " + std::to_string(i) + ": " + why);
      }
      reference[i] = run.best_metrics.makespan;
      sum_wall_s += run.wall_seconds;
    }
    efficiency.push_back(sum_wall_s / (kThreads * sweep_s));
  }
  speed.sample();

  const int min_rounds = o.trace ? 2 : 1;
  for (int round = 0; round < min_rounds || now_ns() < deadline; ++round) {
    const bool traced_round = o.trace && round % 2 == 1;
    E2EAcc& acc = traced_round ? traced : plain;

    // Set-up samples: one exploration set-up per device size.
    SpanBuffer setup_spans;
    std::vector<double> setup_cpu_s;
    for (std::size_t p = 0; p < kSizes.size(); ++p) {
      JobTracing jt;
      if (traced_round) {
        jt.spans = &setup_spans;
        jt.job = next_job++;
      }
      setup_cpu_s.push_back(
          run_job(job_spec(p, cfg.seed + p), jt, "", true).setup_cpu_s);
    }
    acc.add_setups(setup_cpu_s);
    tracer.merge(setup_spans);

    reset_peak_rss();
    std::vector<rdse::RunResult> runs(kRuns);
    std::vector<std::vector<double>> run_pieces_ms(kRuns);
    const std::int64_t t0 = now_ns();
    if (!traced_round) {
      // The sweep's runs as the engine shards them, on an equal-sized pool,
      // each through the job that reads its CPU time piece by piece on the
      // thread that runs it.
      std::vector<JobOutcome> outs(kRuns);
      {
        rdse::ThreadPool pool(kThreads);
        pool.parallel_for_index(kRuns, [&](std::size_t i) {
          const std::size_t p = i / kRunsPerPoint;
          outs[i] = run_job(
              job_spec(p, spec.points[p].config.seed + i % kRunsPerPoint),
              JobTracing{}, "");
        });
      }
      for (std::size_t i = 0; i < kRuns; ++i) {
        run_pieces_ms[i] = std::move(outs[i].pieces_cpu_ms);
        runs[i] = std::move(outs[i].run);
      }
    } else {
      // The same sweep through the instrumented job on an equal-sized pool.
      std::vector<JobOutcome> outs(kRuns);
      const std::uint64_t base_job = next_job;
      next_job += kRuns;
      {
        rdse::ThreadPool pool(kThreads);
        pool.parallel_for_index(kRuns, [&](std::size_t i) {
          const std::size_t p = i / kRunsPerPoint;
          const std::size_t r = i % kRunsPerPoint;
          SpanBuffer spans;
          JobTracing jt;
          jt.spans = &spans;
          jt.job = base_job + i;
          if (r == 0) {
            jt.sample_every = kSampleEvery;
            jt.setup_probes = true;
          }
          const std::string result_path =
              r == 0 ? result_path_of(p) : std::string();
          outs[i] = run_job(job_spec(p, spec.points[p].config.seed + r), jt,
                            result_path);
          tracer.merge(spans);
        });
      }
      ExploreCounts round_counts;
      for (std::size_t p = 0; p < kSizes.size(); ++p) {
        const std::size_t i = p * kRunsPerPoint;  // run 0 wrote its result
        write_ms.push_back(outs[i].write_s * 1e3);
        if (const std::string why =
                check_written(result_path_of(p), tg, outs[i].run);
            !why.empty()) {
          res.wrong("fig3_sweep run " + std::to_string(i) + ": " + why);
        }
      }
      for (std::size_t i = 0; i < kRuns; ++i) {
        phases.add(outs[i].sampled);
        round_counts.add(outs[i]);
        run_pieces_ms[i] = {outs[i].cpu_s * 1e3};
        runs[i] = std::move(outs[i].run);
      }
      if (!counts) {
        counts = round_counts;
      } else if (!(*counts == round_counts)) {
        res.wrong("fig3_sweep: exact counters differ between traced rounds");
      }
    }
    const double round_s = static_cast<double>(now_ns() - t0) * 1e-9;
    acc.rss_mb.push_back(peak_rss_mb());

    double sum_wall_s = 0.0;
    double sum_makespan_ms = 0.0;
    std::vector<double> run_ms;
    std::vector<double> run_iters;
    for (std::size_t i = 0; i < kRuns; ++i) {
      const rdse::RunResult& run = runs[i];
      res.attempt();
      if (const std::string why = check_run(tg, run); !why.empty()) {
        res.wrong("fig3_sweep run " + std::to_string(i) + ": " + why);
      }
      if (reference[i] != run.best_metrics.makespan) {
        res.wrong("fig3_sweep run " + std::to_string(i) +
                  ": best makespan differs from the engine's (same seed)");
      }
      sum_wall_s += run.wall_seconds;
      run_iters.push_back(static_cast<double>(run.anneal.iterations_run));
      sum_makespan_ms += rdse::to_ms(run.best_metrics.makespan);
      run_ms.push_back(run.wall_seconds * 1e3);
    }
    acc.add_round(run_pieces_ms, run_iters);
    if (!traced_round) {
      plain_run_ms.insert(plain_run_ms.end(), run_ms.begin(), run_ms.end());
      efficiency.push_back(sum_wall_s / (kThreads * round_s));
    }
    acc.wall_ops_per_s.push_back(static_cast<double>(kRuns) / round_s);
    acc.wall_p50_ms.push_back(median(run_ms));
    acc.best_makespan_ms = sum_makespan_ms / static_cast<double>(kRuns);
    speed.sample();
  }

  const E2E pe = summarize(plain);
  emit_e2e(res, pe, speed, "exploration");
  res.note("fig3_sweep: " + std::to_string(plain.rounds) +
           " timed untraced sweeps of " + std::to_string(kRuns) + " runs (" +
           std::to_string(kSizes.size()) + " sizes x " +
           std::to_string(kRunsPerPoint) + " runs, " +
           std::to_string(kThreads) + " threads)");
  if (!o.trace) return;
  emit_overhead(res, summarize(traced), pe, speed);
  const std::vector<Span> spans = tracer.spans();
  emit_explore_layers(res, spans, phases, *counts);
  res.set("core.sweep_efficiency", median(efficiency));
  res.note("core.sweep_efficiency = sum of run walls / (" +
           std::to_string(kThreads) + " threads x sweep wall), median of " +
           std::to_string(efficiency.size()) +
           " untraced sweeps (the first through the SweepEngine, the rest "
           "through its job body on an equal pool)");
  res.set("core.run_wall_ms", median(plain_run_ms));
  res.set("core.result_write_ms", median(write_ms));

  // The serve layers on this workload's own requests: four explorations at
  // the sweep's budget, each asked four times.
  std::vector<std::string> lines;
  for (int rep = 0; rep < 4; ++rep) {
    for (std::uint64_t k = 0; k < 4; ++k) {
      lines.push_back(explore_request_line(model.app.name, kIterations,
                                           kWarmup, cfg.seed + k));
    }
  }
  (void)probe_serve_layers(lines, o, res, tracer, nullptr);
}

}  // namespace e2e
