/// \file bench_components.cpp
/// \brief EXP-M1 — google-benchmark microbenchmarks of the engine's moving
/// parts: search-graph realization, full longest-path evaluation, the
/// DeltaRelaxer probe (the paper's Woodbury-style update, §4.4) and its
/// cycle gate (the §4.3 cycle test), move generation and the GA decoder.
/// Establishes that full re-evaluation at paper scale costs microseconds and
/// quantifies what the incremental path saves for localized updates. Each
/// DeltaRelaxer benchmark checks its result once against longest_path()
/// before timing and aborts on a mismatch.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>

#include "baseline/genetic.hpp"
#include "core/moves.hpp"
#include "graph/topo.hpp"
#include "model/motion_detection.hpp"
#include "sched/evaluator.hpp"
#include "sched/incremental.hpp"

using namespace rdse;

namespace {

struct Setup {
  Application app = make_motion_detection_app();
  Architecture arch = make_cpu_fpga_architecture(
      2000, kMotionDetectionTrPerClb, kMotionDetectionBusRate);
  Solution solution;

  Setup() : solution(0) {
    Rng rng(7);
    solution = Solution::random_partition(app.graph, arch, 0, 1, rng);
  }
};

Setup& setup() {
  static Setup s;
  return s;
}

void BM_SearchGraphBuild(benchmark::State& state) {
  auto& s = setup();
  for (auto _ : state) {
    benchmark::DoNotOptimize(build_search_graph(s.app.graph, s.arch,
                                                s.solution));
  }
}
BENCHMARK(BM_SearchGraphBuild);

void BM_FullEvaluation(benchmark::State& state) {
  auto& s = setup();
  const Evaluator ev(s.app.graph, s.arch);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ev.evaluate(s.solution));
  }
}
BENCHMARK(BM_FullEvaluation);

void BM_LongestPathFull(benchmark::State& state) {
  auto& s = setup();
  const SearchGraph sg = build_search_graph(s.app.graph, s.arch, s.solution);
  const WeightedDag dag{&sg.graph, sg.node_weight, sg.graph.edge_weights(),
                        sg.release};
  for (auto _ : state) {
    benchmark::DoNotOptimize(longest_path(dag));
  }
}
BENCHMARK(BM_LongestPathFull);

/// Aborts the benchmark binary: a timed engine that disagrees with the
/// reference longest path measures nothing worth reporting.
void require(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "bench_components: %s\n", what);
    std::abort();
  }
}

/// §4.4 on the code the annealer runs: one DeltaRelaxer probe of a node
/// weight change, then discard() (the rejected-move rollback).
void BM_DeltaRelaxerWeightProbe(benchmark::State& state) {
  auto& s = setup();
  const SearchGraph sg = build_search_graph(s.app.graph, s.arch, s.solution);
  const WeightedDag committed{&sg.graph, sg.node_weight,
                              sg.graph.edge_weights(), sg.release};
  std::vector<TimeNs> weight = sg.node_weight;
  weight[5] += from_us(50);
  const WeightedDag cand{&sg.graph, weight, sg.graph.edge_weights(),
                         sg.release};
  const NodeId seed = 5;
  DeltaRelaxer relaxer;
  relaxer.reset(committed);
  require(relaxer.probe(cand, {&seed, 1}, {}) == longest_path(cand).makespan,
          "DeltaRelaxer probe disagrees with longest_path");
  relaxer.discard();
  for (auto _ : state) {
    benchmark::DoNotOptimize(relaxer.probe(cand, {&seed, 1}, {}));
    relaxer.discard();
  }
}
BENCHMARK(BM_DeltaRelaxerWeightProbe);

/// §4.3 on the code the annealer runs: the cycle gate of one added edge
/// that descends across the whole committed ranking (last-ranked node ->
/// first-ranked node), so the Pearce–Kelly window spans the graph. On this
/// mapping the first node reaches the last, so what is timed is the
/// refusal of a cycle-closing move.
void BM_DeltaRelaxerCycleGate(benchmark::State& state) {
  auto& s = setup();
  const SearchGraph sg = build_search_graph(s.app.graph, s.arch, s.solution);
  const WeightedDag dag{&sg.graph, sg.node_weight, sg.graph.edge_weights(),
                        sg.release};
  const std::vector<NodeId> order = *topological_order(sg.graph);
  const NodeId src = order.back();
  const NodeId dst = order.front();
  DeltaRelaxer relaxer;
  relaxer.reset(dag);
  const auto gate = [&] {
    relaxer.begin_edit(sg.graph);
    relaxer.add_chain({&src, 1}, {&dst, 1});
    return relaxer.gate(sg.graph);
  };
  // The reference: longest_path on the edited graph throws iff it is cyclic.
  Digraph edited = sg.graph;
  edited.add_edge(src, dst);
  const std::vector<TimeNs> edge_weight(edited.edge_capacity(), 0);
  bool acyclic = true;
  try {
    (void)longest_path(
        WeightedDag{&edited, sg.node_weight, edge_weight, sg.release});
  } catch (const Error&) {
    acyclic = false;
  }
  require(gate() == acyclic, "DeltaRelaxer gate disagrees with longest_path");
  for (auto _ : state) {
    benchmark::DoNotOptimize(gate());
  }
}
BENCHMARK(BM_DeltaRelaxerCycleGate);

void BM_MoveGenerateAndEvaluate(benchmark::State& state) {
  auto& s = setup();
  const Evaluator ev(s.app.graph, s.arch);
  Rng rng(13);
  MoveConfig config;
  for (auto _ : state) {
    Architecture cand_arch = s.arch;
    Solution cand = s.solution;
    const MoveOutcome out =
        generate_move(s.app.graph, cand_arch, cand, config, rng);
    if (out.applied) {
      benchmark::DoNotOptimize(ev.evaluate(cand));
    }
  }
}
BENCHMARK(BM_MoveGenerateAndEvaluate);

void BM_RandomPartitionInit(benchmark::State& state) {
  auto& s = setup();
  Rng rng(17);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        Solution::random_partition(s.app.graph, s.arch, 0, 1, rng));
  }
}
BENCHMARK(BM_RandomPartitionInit);

void BM_GaDecode(benchmark::State& state) {
  auto& s = setup();
  GeneticPartitioner ga(s.app.graph, s.arch);
  Rng rng(19);
  const Chromosome c = ga.random_chromosome(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ga.decode(c));
  }
}
BENCHMARK(BM_GaDecode);

void BM_RngDraw(benchmark::State& state) {
  Rng rng(23);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.uniform_u64(29));
  }
}
BENCHMARK(BM_RngDraw);

}  // namespace

BENCHMARK_MAIN();
