/// Tests for the DseProblem cost model and the Explorer facade, including
/// paper-anchored integration checks on the motion-detection benchmark.

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "core/explorer.hpp"
#include "core/report.hpp"
#include "mapping/validation.hpp"
#include "model/motion_detection.hpp"

namespace rdse {
namespace {

class ExplorerFixture : public ::testing::Test {
 protected:
  ExplorerFixture()
      : app(make_motion_detection_app()),
        arch(make_cpu_fpga_architecture(2000, kMotionDetectionTrPerClb,
                                        kMotionDetectionBusRate)) {}
  Application app;
  Architecture arch;
};

TEST_F(ExplorerFixture, DseProblemInitialCostMatchesEvaluator) {
  const Solution init = Solution::all_software(app.graph, 0);
  DseProblem problem(app.graph, arch, init);
  EXPECT_DOUBLE_EQ(problem.cost(), 76.4);
  EXPECT_EQ(problem.current_metrics().makespan, from_ms(76.4));
}

TEST_F(ExplorerFixture, DseProblemRejectsInvalidInitial) {
  Solution broken(app.graph.task_count());  // all unassigned
  EXPECT_THROW(DseProblem(app.graph, arch, broken), Error);
}

TEST_F(ExplorerFixture, CostWeightsBlendPriceAndPenalty) {
  const Solution init = Solution::all_software(app.graph, 0);
  CostWeights weights;
  weights.time_weight = 0.0;
  weights.price_weight = 1.0;
  weights.deadline = from_ms(40.0);
  weights.deadline_penalty_per_ms = 10.0;
  DseProblem problem(app.graph, arch, init, MoveConfig{}, weights);
  // price: cpu 100 + fpga (50 + 0.05*2000 = 150) = 250;
  // penalty: (76.4 - 40) * 10 = 364.
  EXPECT_NEAR(problem.cost(), 250.0 + 364.0, 1e-9);
}

TEST_F(ExplorerFixture, ProposalsAreStatisticallySane) {
  const Solution init = Solution::all_software(app.graph, 0);
  DseProblem problem(app.graph, arch, init);
  Rng rng(5);
  int feasible = 0;
  for (int i = 0; i < 2'000; ++i) {
    if (problem.propose(rng)) {
      ++feasible;
      if (rng.bernoulli(0.5)) problem.accept(); else problem.reject();
    }
  }
  EXPECT_GT(feasible, 200);
  const auto& stats = problem.move_stats();
  std::int64_t drawn = 0;
  for (const auto& s : stats) drawn += s.drawn;
  EXPECT_EQ(drawn, 2'000);
  require_valid(app.graph, problem.current_architecture(),
                problem.current_solution());
}

TEST_F(ExplorerFixture, RunProducesValidImprovedSolution) {
  Explorer explorer(app.graph, arch);
  ExplorerConfig config;
  config.seed = 11;
  config.iterations = 3'000;
  config.warmup_iterations = 300;
  const RunResult r = explorer.run(config);
  require_valid(app.graph, r.best_architecture, r.best_solution);
  EXPECT_LT(r.best_metrics.makespan, r.initial_metrics.makespan);
  EXPECT_LE(r.best_metrics.makespan, from_ms(76.4));
  EXPECT_GT(r.wall_seconds, 0.0);
}

TEST_F(ExplorerFixture, DeterministicPerSeed) {
  Explorer explorer(app.graph, arch);
  ExplorerConfig config;
  config.seed = 21;
  config.iterations = 1'500;
  config.warmup_iterations = 200;
  const RunResult a = explorer.run(config);
  const RunResult b = explorer.run(config);
  EXPECT_EQ(a.best_metrics.makespan, b.best_metrics.makespan);
  EXPECT_EQ(a.best_solution, b.best_solution);
  EXPECT_EQ(a.anneal.accepted, b.anneal.accepted);
}

TEST_F(ExplorerFixture, MeetsPaperConstraintAt2000Clbs) {
  // §5: the 40 ms constraint is satisfied with a 2000-CLB device, final
  // solutions land well below it (the paper reports 18.1 ms).
  Explorer explorer(app.graph, arch);
  ExplorerConfig config;
  config.seed = 1;
  config.iterations = 15'000;
  config.warmup_iterations = 1'200;
  const RunResult r = explorer.run(config);
  EXPECT_LE(r.best_metrics.makespan, app.deadline);
  EXPECT_LT(r.best_metrics.makespan, from_ms(30.0));
  EXPECT_GE(r.best_metrics.makespan, from_ms(10.0));
}

TEST_F(ExplorerFixture, TraceCoversWarmupAndCooling) {
  Explorer explorer(app.graph, arch);
  ExplorerConfig config;
  config.seed = 31;
  config.iterations = 500;
  config.warmup_iterations = 100;
  const RunResult r = explorer.run(config);
  EXPECT_EQ(r.trace.size(), 600u);
  EXPECT_TRUE(r.trace.at(0).warmup);
  EXPECT_FALSE(r.trace.rows().back().warmup);
  // During warm-up, temperature is infinite.
  EXPECT_TRUE(std::isinf(r.trace.at(5).temperature));
}

TEST_F(ExplorerFixture, TraceStrideDownsamples) {
  Explorer explorer(app.graph, arch);
  ExplorerConfig config;
  config.seed = 31;
  config.iterations = 1'000;
  config.warmup_iterations = 0;
  config.trace_stride = 10;
  const RunResult r = explorer.run(config);
  EXPECT_EQ(r.trace.size(), 100u);
}

TEST_F(ExplorerFixture, RunManyAggregates) {
  Explorer explorer(app.graph, arch);
  ExplorerConfig config;
  config.seed = 41;
  config.iterations = 1'200;
  config.warmup_iterations = 200;
  config.record_trace = false;
  const auto results = explorer.run_many(config, 4);
  ASSERT_EQ(results.size(), 4u);
  const RunAggregate agg = Explorer::aggregate(results, app.deadline);
  EXPECT_EQ(agg.runs, 4);
  EXPECT_GE(agg.best_makespan_ms, 0.0);
  EXPECT_LE(agg.best_makespan_ms, agg.mean_makespan_ms);
  EXPECT_LE(agg.mean_makespan_ms, agg.worst_makespan_ms);
  EXPECT_GE(agg.deadline_hit_rate, 0.0);
  EXPECT_LE(agg.deadline_hit_rate, 1.0);
}

TEST_F(ExplorerFixture, AllSoftwareInitSupported) {
  Explorer explorer(app.graph, arch);
  ExplorerConfig config;
  config.seed = 51;
  config.init = InitKind::kAllSoftware;
  config.iterations = 500;
  config.warmup_iterations = 0;
  const RunResult r = explorer.run(config);
  EXPECT_EQ(r.initial_metrics.makespan, from_ms(76.4));
  EXPECT_EQ(r.initial_metrics.hw_tasks, 0);
}

TEST_F(ExplorerFixture, AdaptiveMoveMixRuns) {
  Explorer explorer(app.graph, arch);
  ExplorerConfig config;
  config.seed = 61;
  config.iterations = 2'000;
  config.warmup_iterations = 200;
  config.adaptive_move_mix = true;
  const RunResult r = explorer.run(config);
  require_valid(app.graph, r.best_architecture, r.best_solution);
  EXPECT_LT(r.best_metrics.makespan, r.initial_metrics.makespan);
}

TEST_F(ExplorerFixture, ArchitectureExplorationCreatesResources) {
  Architecture minimal{Bus(kMotionDetectionBusRate)};
  minimal.add_processor("cpu0");
  Explorer explorer(app.graph, minimal);
  ExplorerConfig config;
  config.seed = 71;
  config.iterations = 8'000;
  config.warmup_iterations = 500;
  config.init = InitKind::kAllSoftware;
  config.moves.p_zero = 0.05;
  config.cost.time_weight = 0.0;
  config.cost.price_weight = 1.0;
  config.cost.deadline = app.deadline;
  config.cost.deadline_penalty_per_ms = 100.0;
  config.record_trace = false;
  const RunResult r = explorer.run(config);
  require_valid(app.graph, r.best_architecture, r.best_solution);
  // To satisfy the deadline the system must have grown beyond one CPU.
  EXPECT_GT(r.best_architecture.resource_count(), 1u);
  EXPECT_LE(r.best_metrics.makespan, app.deadline);
}

TEST_F(ExplorerFixture, ReportsRenderWithoutError) {
  Explorer explorer(app.graph, arch);
  ExplorerConfig config;
  config.seed = 81;
  config.iterations = 800;
  config.warmup_iterations = 100;
  const RunResult r = explorer.run(config);
  std::ostringstream os;
  print_run_report(os, app.graph, r);
  const std::string report = os.str();
  EXPECT_NE(report.find("exploration report"), std::string::npos);
  EXPECT_NE(report.find("makespan"), std::string::npos);
  EXPECT_NE(report.find("cpu0"), std::string::npos);
  EXPECT_NE(report.find("move class"), std::string::npos);
}

TEST_F(ExplorerFixture, TraceCsvRoundTrip) {
  Trace trace;
  for (int i = 0; i < 10; ++i) {
    TraceRow row;
    row.iteration = i;
    row.cost = 10.0 - i;
    row.best = 10.0 - i;
    row.n_contexts = i % 3;
    trace.add(row);
  }
  const std::string csv = trace.to_csv();
  EXPECT_NE(csv.find("iteration,cost"), std::string::npos);
  EXPECT_EQ(trace.downsample(5).size(), 5u);
  EXPECT_EQ(trace.downsample(100).size(), 10u);
  EXPECT_EQ(trace.downsample(5).rows().back().iteration, 9);
  EXPECT_THROW((void)trace.downsample(1), Error);
}

TEST(BatchedProbes, PinnedToTheCopyBasedPath) {
  // Best-of-K stages every probe in place on the committed solution, rolls
  // it back before the next draw and replays the winner from its saved
  // generator state. These constants were recorded from the copy-based
  // path it replaced (a fresh candidate copy per probe, the winner's copy
  // kept aside): best makespan and per-class counters must not move, for
  // K = 2 and 8, with and without the adaptive mix, and with architecture
  // moves (p_zero > 0, which stage m3/m4 on a candidate architecture).
  struct Case {
    int batch;
    bool adaptive;
    double p_zero;
    TimeNs best;
    std::array<std::array<std::int64_t, 5>, kMoveKindCount> stats;
  };
  const std::vector<Case> cases = {
      {2, false, 0.0, 20590365,
       {{{2385, 2103, 192, 90, 60},
         {4726, 96, 3660, 970, 321},
         {0, 0, 0, 0, 0},
         {0, 0, 0, 0, 0},
         {1321, 503, 0, 818, 456},
         {368, 14, 335, 19, 18}}}},
      {2, true, 0.0, 19503202,
       {{{2447, 2229, 133, 85, 70},
         {3751, 70, 2903, 778, 269},
         {0, 0, 0, 0, 0},
         {0, 0, 0, 0, 0},
         {1808, 688, 0, 1120, 566},
         {794, 124, 621, 49, 40}}}},
      {8, false, 0.0, 19903719,
       {{{10040, 9414, 443, 183, 84},
         {18394, 305, 14393, 3696, 779},
         {0, 0, 0, 0, 0},
         {0, 0, 0, 0, 0},
         {5296, 1561, 0, 3735, 1457},
         {1470, 37, 1367, 66, 31}}}},
      {8, true, 0.0, 19569956,
       {{{8516, 8065, 310, 141, 63},
         {16029, 248, 12484, 3297, 746},
         {0, 0, 0, 0, 0},
         {0, 0, 0, 0, 0},
         {8361, 2357, 0, 6004, 2284},
         {2294, 76, 2078, 140, 61}}}},
      {8, true, 0.05, 2041787,
       {{{5437, 5412, 13, 12, 5},
         {3555, 541, 52, 2962, 574},
         {10465, 10330, 1, 134, 52},
         {358, 0, 0, 358, 54},
         {13453, 57, 0, 13396, 3604},
         {1932, 1932, 0, 0, 0}}}},
  };
  const Application app = make_motion_detection_app();
  const Explorer explorer(
      app.graph, make_cpu_fpga_architecture(400, kMotionDetectionTrPerClb,
                                            kMotionDetectionBusRate));
  for (const Case& c : cases) {
    ExplorerConfig config;
    config.seed = 7;
    config.iterations = 4000;
    config.warmup_iterations = 400;
    config.batch = c.batch;
    config.adaptive_move_mix = c.adaptive;
    config.moves.p_zero = c.p_zero;
    config.record_trace = false;
    const RunResult r = explorer.run(config);
    const std::string where = "K " + std::to_string(c.batch) + ", mix " +
                              std::to_string(c.adaptive) + ", p_zero " +
                              std::to_string(c.p_zero);
    EXPECT_EQ(r.best_metrics.makespan, c.best) << where;
    for (std::size_t k = 0; k < kMoveKindCount; ++k) {
      const MoveClassStats& s = r.move_stats[k];
      const std::array<std::int64_t, 5> got = {
          s.drawn, s.null_draws, s.infeasible, s.evaluated, s.accepted};
      EXPECT_EQ(got, c.stats[k])
          << where << ", " << to_string(static_cast<MoveKind>(k));
    }
  }
}

TEST(ExplorerGuards, RequiresProcessor) {
  const Application app = make_motion_detection_app();
  Architecture no_cpu{Bus(1'000)};
  no_cpu.add_reconfigurable("fpga0", 100, 10);
  EXPECT_THROW(Explorer(app.graph, no_cpu), Error);
}

}  // namespace
}  // namespace rdse
