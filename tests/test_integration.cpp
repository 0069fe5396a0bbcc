/// End-to-end integration tests: full pipeline on the paper benchmark and
/// on synthetic applications, cross-checking explorer, baselines, timeline
/// and reports against each other.

#include <gtest/gtest.h>

#include "baseline/genetic.hpp"
#include "baseline/random_search.hpp"
#include "core/explorer.hpp"
#include "mapping/validation.hpp"
#include "model/generators.hpp"
#include "model/motion_detection.hpp"
#include "sched/timeline.hpp"

namespace rdse {
namespace {

TEST(Integration, PaperPipelineEndToEnd) {
  const Application app = make_motion_detection_app();
  Architecture arch = make_cpu_fpga_architecture(
      2000, kMotionDetectionTrPerClb, kMotionDetectionBusRate);

  Explorer explorer(app.graph, arch);
  ExplorerConfig config;
  config.seed = 2;
  config.iterations = 12'000;
  config.warmup_iterations = 1'200;
  const RunResult r = explorer.run(config);

  // The solution is structurally valid ...
  require_valid(app.graph, r.best_architecture, r.best_solution);
  // ... meets the paper's real-time constraint ...
  EXPECT_LE(r.best_metrics.makespan, app.deadline);
  // ... has a consistent timeline (bus serialization only adds time) ...
  const Timeline tl =
      build_timeline(app.graph, r.best_architecture, r.best_solution);
  EXPECT_GE(tl.makespan, r.best_metrics.makespan);
  EXPECT_LE(tl.makespan, r.best_metrics.makespan * 2);
  // ... and the warm-up phase shows no systematic improvement while the
  // cooled phase ends far below the warm-up average (Fig. 2 behaviour).
  double warm_sum = 0.0;
  int warm_n = 0;
  for (const TraceRow& row : r.trace.rows()) {
    if (row.warmup) {
      warm_sum += row.cost;
      ++warm_n;
    }
  }
  ASSERT_GT(warm_n, 0);
  const double warm_avg = warm_sum / warm_n;
  EXPECT_GT(warm_avg, 40.0);  // random region
  EXPECT_LT(to_ms(r.best_metrics.makespan), warm_avg * 0.6);
}

TEST(Integration, SaBeatsOrMatchesGaAndIsFasterPerEvaluation) {
  const Application app = make_motion_detection_app();
  Architecture arch = make_cpu_fpga_architecture(
      2000, kMotionDetectionTrPerClb, kMotionDetectionBusRate);

  Explorer explorer(app.graph, arch);
  ExplorerConfig sa_config;
  sa_config.seed = 3;
  sa_config.iterations = 15'000;
  sa_config.warmup_iterations = 1'000;
  sa_config.record_trace = false;
  const RunResult sa = explorer.run(sa_config);

  GeneticPartitioner ga(app.graph, arch);
  GaConfig ga_config;
  ga_config.seed = 3;
  ga_config.population = 100;
  ga_config.generations = 40;
  const MapperResult gr = ga.run(ga_config);

  // §5 comparison direction: concurrent exploration >= staged exploration.
  EXPECT_LE(to_ms(sa.best_metrics.makespan), gr.best_cost_ms * 1.05);
  // Both massively beat software-only execution.
  EXPECT_LT(gr.best_cost_ms, 40.0);
  EXPECT_LT(to_ms(sa.best_metrics.makespan), 40.0);
}

TEST(Integration, DeviceSweepHasPaperShape) {
  // Fig. 3 qualitative shape on a compressed sweep: the mid-range device
  // is at least as good as both the tiny and the huge device, and context
  // counts decrease with size.
  const Application app = make_motion_detection_app();
  double tiny_ms = 0, mid_ms = 0, huge_ms = 0;
  double tiny_ctx = 0, huge_ctx = 0;
  for (const std::int32_t clbs : {150, 800, 10'000}) {
    Architecture arch = make_cpu_fpga_architecture(
        clbs, kMotionDetectionTrPerClb, kMotionDetectionBusRate);
    Explorer explorer(app.graph, arch);
    ExplorerConfig config;
    config.seed = 5;
    config.iterations = 6'000;
    config.warmup_iterations = 600;
    config.record_trace = false;
    const auto results = explorer.run_many(config, 3);
    const RunAggregate agg = Explorer::aggregate(results, app.deadline);
    if (clbs == 150) {
      tiny_ms = agg.mean_makespan_ms;
      tiny_ctx = agg.mean_contexts;
    } else if (clbs == 800) {
      mid_ms = agg.mean_makespan_ms;
    } else {
      huge_ms = agg.mean_makespan_ms;
      huge_ctx = agg.mean_contexts;
    }
  }
  EXPECT_LE(mid_ms, tiny_ms + 1e-9);
  EXPECT_LE(mid_ms, huge_ms + 5.0);  // plateau may sit slightly above
  EXPECT_GT(tiny_ctx, huge_ctx);
}

TEST(Integration, SyntheticApplicationsExploreCleanly) {
  AppGenParams params;
  params.dag.node_count = 30;
  params.dag.max_width = 4;
  params.hw_capable_fraction = 0.8;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    Rng rng(seed);
    const Application app = random_application(params, rng);
    Architecture arch =
        make_cpu_fpga_architecture(1'000, from_us(20.0), 50'000'000);
    Explorer explorer(app.graph, arch);
    ExplorerConfig config;
    config.seed = seed;
    config.iterations = 4'000;
    config.warmup_iterations = 400;
    config.record_trace = false;
    const RunResult r = explorer.run(config);
    require_valid(app.graph, r.best_architecture, r.best_solution);
    EXPECT_LE(r.best_metrics.makespan, app.graph.total_sw_time());
  }
}

TEST(Integration, QualityImprovesWithIterationBudget) {
  // The designer-facing knob of the abstract: more optimization time,
  // better (or equal) solutions — averaged over seeds.
  const Application app = make_motion_detection_app();
  Architecture arch = make_cpu_fpga_architecture(
      2000, kMotionDetectionTrPerClb, kMotionDetectionBusRate);
  Explorer explorer(app.graph, arch);
  auto mean_at = [&](std::int64_t iters) {
    ExplorerConfig config;
    config.seed = 100;
    config.iterations = iters;
    config.warmup_iterations = 300;
    config.record_trace = false;
    const auto results = explorer.run_many(config, 4);
    return Explorer::aggregate(results, 0).mean_makespan_ms;
  };
  const double lo = mean_at(300);
  const double hi = mean_at(8'000);
  EXPECT_LE(hi, lo + 1e-9);
}

}  // namespace
}  // namespace rdse
