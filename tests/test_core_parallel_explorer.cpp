/// Tests for the replica-exchange parallel explorer: determinism across
/// thread counts, equivalence with the serial Explorer when exchange is
/// disabled, solution quality at equal move budget, and report aggregation.

#include <gtest/gtest.h>

#include <sstream>

#include "core/parallel_explorer.hpp"
#include "core/report.hpp"
#include "mapping/validation.hpp"
#include "model/motion_detection.hpp"

namespace rdse {
namespace {

class ParallelExplorerFixture : public ::testing::Test {
 protected:
  ParallelExplorerFixture()
      : app(make_motion_detection_app()),
        arch(make_cpu_fpga_architecture(2000, kMotionDetectionTrPerClb,
                                        kMotionDetectionBusRate)) {}

  ParallelExplorerConfig small_config() const {
    ParallelExplorerConfig config;
    config.seed = 7;
    config.replicas = 4;
    config.iterations = 1'000;
    config.warmup_iterations = 150;
    config.exchange_interval = 250;
    return config;
  }

  Application app;
  Architecture arch;
};

TEST_F(ParallelExplorerFixture, ReplicaSeedsAreDistinctStreams) {
  const std::uint64_t a = ParallelExplorer::replica_seed(1, 0);
  const std::uint64_t b = ParallelExplorer::replica_seed(1, 1);
  const std::uint64_t c = ParallelExplorer::replica_seed(2, 0);
  EXPECT_NE(a, b);
  EXPECT_NE(a, c);
  EXPECT_NE(b, c);
  // Stable function of (seed, replica).
  EXPECT_EQ(a, ParallelExplorer::replica_seed(1, 0));
}

TEST_F(ParallelExplorerFixture, RunProducesValidSolutionAndOutcomes) {
  ParallelExplorer explorer(app.graph, arch);
  const ParallelRunResult r = explorer.run(small_config());
  require_valid(app.graph, r.best.best_architecture, r.best.best_solution);
  ASSERT_EQ(r.replicas.size(), 4u);
  EXPECT_GE(r.best_replica, 0);
  EXPECT_LT(r.best_replica, 4);
  EXPECT_GT(r.wall_seconds, 0.0);
  for (const ReplicaOutcome& rep : r.replicas) {
    EXPECT_EQ(rep.anneal.iterations_run, 1'150);
    EXPECT_GE(rep.best_cost, r.replicas[r.best_replica].best_cost);
    EXPECT_LE(rep.best_metrics.makespan, from_ms(76.4));
  }
  // The facade view mirrors the winning replica.
  EXPECT_EQ(r.best.best_metrics.makespan,
            r.replicas[r.best_replica].best_metrics.makespan);
}

TEST_F(ParallelExplorerFixture, BitIdenticalAcrossThreadCounts) {
  ParallelExplorer explorer(app.graph, arch);
  ParallelExplorerConfig config = small_config();
  config.replicas = 8;
  config.record_trace = true;
  config.trace_stride = 50;

  std::vector<ParallelRunResult> results;
  for (const unsigned threads : {1u, 2u, 8u}) {
    config.threads = threads;
    results.push_back(explorer.run(config));
  }
  const ParallelRunResult& ref = results.front();
  for (std::size_t i = 1; i < results.size(); ++i) {
    const ParallelRunResult& got = results[i];
    EXPECT_EQ(got.best_replica, ref.best_replica);
    EXPECT_EQ(got.adoptions, ref.adoptions);
    EXPECT_EQ(got.exchange_rounds, ref.exchange_rounds);
    EXPECT_EQ(got.best.best_solution, ref.best.best_solution);
    EXPECT_EQ(got.best.best_metrics.makespan, ref.best.best_metrics.makespan);
    ASSERT_EQ(got.replicas.size(), ref.replicas.size());
    for (std::size_t r = 0; r < ref.replicas.size(); ++r) {
      EXPECT_EQ(got.replicas[r].best_cost, ref.replicas[r].best_cost);
      EXPECT_EQ(got.replicas[r].anneal.accepted,
                ref.replicas[r].anneal.accepted);
      EXPECT_EQ(got.replicas[r].adoptions, ref.replicas[r].adoptions);
      const Trace& got_trace = got.replicas[r].trace;
      const Trace& ref_trace = ref.replicas[r].trace;
      ASSERT_EQ(got_trace.size(), ref_trace.size());
      for (std::size_t i = 0; i < ref_trace.size(); ++i) {
        const TraceRow& a = got_trace.at(i);
        const TraceRow& b = ref_trace.at(i);
        EXPECT_EQ(a.iteration, b.iteration) << r << ':' << i;
        EXPECT_EQ(a.cost, b.cost) << r << ':' << i;
        EXPECT_EQ(a.best, b.best) << r << ':' << i;
        EXPECT_EQ(a.temperature, b.temperature) << r << ':' << i;
        EXPECT_EQ(a.n_contexts, b.n_contexts) << r << ':' << i;
        EXPECT_EQ(a.accepted, b.accepted) << r << ':' << i;
        EXPECT_EQ(a.warmup, b.warmup) << r << ':' << i;
      }
    }
  }
}

TEST_F(ParallelExplorerFixture, NoExchangeReproducesSerialExplorerPerReplica) {
  ParallelExplorer parallel(app.graph, arch);
  ParallelExplorerConfig config = small_config();
  config.replicas = 3;
  config.exchange_interval = 0;  // plain multi-start
  const ParallelRunResult pr = parallel.run(config);

  Explorer serial(app.graph, arch);
  for (int r = 0; r < 3; ++r) {
    ExplorerConfig sc;
    sc.seed = ParallelExplorer::replica_seed(config.seed, r);
    sc.iterations = config.iterations;
    sc.warmup_iterations = config.warmup_iterations;
    sc.record_trace = false;
    const RunResult sr = serial.run(sc);
    EXPECT_EQ(pr.replicas[r].best_metrics.makespan, sr.best_metrics.makespan)
        << "replica " << r;
    EXPECT_EQ(pr.replicas[r].anneal.accepted, sr.anneal.accepted)
        << "replica " << r;
    EXPECT_EQ(pr.replicas[r].anneal.best_cost, sr.anneal.best_cost)
        << "replica " << r;
  }
  EXPECT_EQ(pr.adoptions, 0);
  EXPECT_EQ(pr.exchange_rounds, 0);
}

TEST_F(ParallelExplorerFixture, ExchangeSpreadsGoodSolutions) {
  ParallelExplorer explorer(app.graph, arch);
  ParallelExplorerConfig config;
  config.seed = 3;
  config.replicas = 6;
  config.iterations = 2'000;
  config.warmup_iterations = 200;
  config.exchange_interval = 200;
  // A mixed ladder: greedy replicas exploit what Lam replicas discover.
  config.replica_schedules = {ScheduleKind::kModifiedLam,
                              ScheduleKind::kLamDelosme,
                              ScheduleKind::kGreedy};
  const ParallelRunResult r = explorer.run(config);
  EXPECT_GT(r.exchange_rounds, 0);
  EXPECT_GT(r.adoptions, 0);
  EXPECT_EQ(r.replicas[0].schedule, ScheduleKind::kModifiedLam);
  EXPECT_EQ(r.replicas[2].schedule, ScheduleKind::kGreedy);
  EXPECT_EQ(r.replicas[3].schedule, ScheduleKind::kModifiedLam);
  require_valid(app.graph, r.best.best_architecture, r.best.best_solution);
}

TEST_F(ParallelExplorerFixture, EightReplicasMatchSerialAtEqualBudget) {
  // Acceptance criterion: 8 replicas splitting the serial move budget reach
  // a best cost no worse than one serial run. The parallel side actually
  // spends slightly *fewer* moves (its warm-ups are shorter), so the
  // comparison is conservative.
  const std::int64_t total_budget = 64'000;

  Explorer serial(app.graph, arch);
  ExplorerConfig sc;
  sc.seed = 1;
  sc.iterations = total_budget;
  sc.warmup_iterations = 1'200;
  sc.record_trace = false;
  const RunResult sr = serial.run(sc);

  ParallelExplorer parallel(app.graph, arch);
  ParallelExplorerConfig pc;
  pc.seed = 1;
  pc.replicas = 8;
  pc.warmup_iterations = 150;
  // 8 x (150 + 7'850) = 64'000 moves vs the serial 65'200.
  pc.iterations = (total_budget - 8 * pc.warmup_iterations) / 8;
  pc.exchange_interval = 500;
  // Tempering ladder: Lam replicas explore, greedy replicas exploit what
  // the leader broadcasts.
  pc.replica_schedules = {ScheduleKind::kModifiedLam, ScheduleKind::kGreedy};
  const ParallelRunResult pr = parallel.run(pc);

  EXPECT_LE(pr.replicas[pr.best_replica].best_cost, sr.anneal.best_cost);
  EXPECT_LE(pr.best.best_metrics.makespan, sr.best_metrics.makespan);
  EXPECT_LE(pr.best.best_metrics.makespan, app.deadline);
}

TEST_F(ParallelExplorerFixture, TracesAggregateAcrossReplicas) {
  ParallelExplorer explorer(app.graph, arch);
  ParallelExplorerConfig config = small_config();
  config.record_trace = true;
  const ParallelRunResult r = explorer.run(config);
  for (const ReplicaOutcome& rep : r.replicas) {
    EXPECT_EQ(rep.trace.size(), 1'150u);
    EXPECT_TRUE(rep.trace.at(0).warmup);
    EXPECT_FALSE(rep.trace.rows().back().warmup);
  }
  const Trace merged = r.merged_trace();
  EXPECT_EQ(merged.size(), 4u * 1'150u);
  // Sorted by iteration: each iteration appears once per replica.
  EXPECT_EQ(merged.at(0).iteration, 0);
  EXPECT_EQ(merged.at(3).iteration, 0);
  EXPECT_EQ(merged.at(4).iteration, 1);
  EXPECT_EQ(merged.rows().back().iteration, 1'149);
}

TEST_F(ParallelExplorerFixture, ParallelReportRenders) {
  ParallelExplorer explorer(app.graph, arch);
  const ParallelRunResult r = explorer.run(small_config());
  std::ostringstream os;
  print_parallel_report(os, app.graph, r);
  const std::string report = os.str();
  EXPECT_NE(report.find("parallel exploration report"), std::string::npos);
  EXPECT_NE(report.find("replica"), std::string::npos);
  EXPECT_NE(report.find("adoptions"), std::string::npos);
  // The winner is flagged and the serial report is embedded.
  EXPECT_NE(report.find(" *"), std::string::npos);
  EXPECT_NE(report.find("exploration report"), std::string::npos);
  EXPECT_NE(report.find("makespan"), std::string::npos);
}

TEST_F(ParallelExplorerFixture, SingleReplicaDegeneratesToSerial) {
  ParallelExplorer parallel(app.graph, arch);
  ParallelExplorerConfig config = small_config();
  config.replicas = 1;
  const ParallelRunResult pr = parallel.run(config);
  EXPECT_EQ(pr.adoptions, 0);
  EXPECT_EQ(pr.best_replica, 0);

  Explorer serial(app.graph, arch);
  ExplorerConfig sc;
  sc.seed = ParallelExplorer::replica_seed(config.seed, 0);
  sc.iterations = config.iterations;
  sc.warmup_iterations = config.warmup_iterations;
  const RunResult sr = serial.run(sc);
  EXPECT_EQ(pr.best.best_metrics.makespan, sr.best_metrics.makespan);
  EXPECT_EQ(pr.best.best_solution, sr.best_solution);
}

TEST_F(ParallelExplorerFixture, GuardsRejectBadConfigs) {
  ParallelExplorer explorer(app.graph, arch);
  ParallelExplorerConfig config = small_config();
  config.replicas = 0;
  EXPECT_THROW((void)explorer.run(config), Error);
  config = small_config();
  config.iterations = -1;
  EXPECT_THROW((void)explorer.run(config), Error);
}

}  // namespace
}  // namespace rdse
