/// Chain-diff reconciliation edge cases: the two-pointer prefix/suffix diff
/// of IncrementalEvaluator::reconcile_seq_edges must emit exactly the edges
/// of the differing window — nothing for an unchanged order, a three-edge
/// window for an adjacent swap, the whole chain for a reversal — while
/// staying bit-identical to the from-scratch Evaluator, and rollback must
/// restore the exact chain (order included) so later diffs stay local.
/// Candidates whose G' would be cyclic (§4.3) are refused before anything
/// is written: the committed graph, chains and relaxer journal stay as
/// they were — whether the precedence pre-gate (a context-order violation
/// at a touched task) or the rank gate refused them.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "core/moves.hpp"
#include "core/problem.hpp"
#include "model/generators.hpp"
#include "model/implementation.hpp"
#include "model/registry.hpp"
#include "sched/evaluator.hpp"
#include "sched/incremental_eval.hpp"
#include "util/rng.hpp"

namespace rdse {
namespace {

/// Independent tasks (no precedence edges), so every processor order is
/// feasible — reorder scenarios can permute freely.
Application independent_app(std::size_t n, std::uint64_t seed) {
  AppGenParams params;
  params.dag.node_count = n;
  params.dag.edge_probability = 0.0;
  params.dag.connect_orphans = false;
  Rng rng(seed);
  return random_application(params, rng);
}

Application chained_app(std::size_t n, std::uint64_t seed) {
  AppGenParams params;
  params.dag.node_count = n;
  params.dag.max_width = 3;
  params.dag.edge_probability = 0.3;
  Rng rng(seed);
  return random_application(params, rng);
}

struct ChainCounters {
  std::int64_t kept = 0;
  std::int64_t removed = 0;
  std::int64_t added = 0;
};

ChainCounters counters(const IncrementalEvaluator& inc) {
  const IncrementalEvalStats s = inc.stats();
  return {s.seq_edges_kept, s.seq_edges_removed, s.seq_edges_added};
}

ChainCounters delta(const ChainCounters& before,
                    const ChainCounters& after) {
  return {after.kept - before.kept, after.removed - before.removed,
          after.added - before.added};
}

void expect_matches_full(const TaskGraph& tg, const Architecture& arch,
                         const Solution& cand,
                         const std::optional<Metrics>& got) {
  const Evaluator ev(tg, arch);
  const auto want = ev.evaluate(cand);
  ASSERT_EQ(got.has_value(), want.has_value());
  if (got.has_value()) {
    EXPECT_EQ(got->makespan, want->makespan);
    EXPECT_EQ(got->comm_cross, want->comm_cross);
    EXPECT_EQ(got->sw_busy, want->sw_busy);
    EXPECT_EQ(got->hw_busy, want->hw_busy);
  }
}

TEST(ChainDiff, UnchangedOrderEmitsNoEdges) {
  const Application app = independent_app(8, 11);
  const Architecture arch =
      make_cpu_fpga_architecture(1000, from_us(10.0), 20'000'000);
  const Solution sol = Solution::all_software(app.graph, 0);

  IncrementalEvaluator inc(app.graph);
  inc.reset(arch, sol);

  Solution cand = sol;
  cand.clear_touched();
  const TaskId t = cand.processor_order(0)[3];
  cand.reposition(t, 3);  // same slot: order is untouched, journal is not

  const ChainCounters before = counters(inc);
  const auto m = inc.evaluate_candidate(arch, cand, cand.touched_resources(),
                                        cand.touched_tasks());
  ASSERT_TRUE(m.has_value());
  const ChainCounters d = delta(before, counters(inc));
  EXPECT_EQ(d.removed, 0);
  EXPECT_EQ(d.added, 0);
  EXPECT_EQ(d.kept, 7);  // the full 8-task chain matched in the prefix
  expect_matches_full(app.graph, arch, cand, m);
  inc.commit();
}

TEST(ChainDiff, AdjacentSwapMidChainRebuildsThreeEdgeWindow) {
  const Application app = independent_app(8, 23);
  const Architecture arch =
      make_cpu_fpga_architecture(1000, from_us(10.0), 20'000'000);
  const Solution sol = Solution::all_software(app.graph, 0);

  IncrementalEvaluator inc(app.graph);
  inc.reset(arch, sol);

  Solution cand = sol;
  cand.clear_touched();
  // Swap order slots 2 and 3 of the 8-task chain: edges (1,2), (2,3),
  // (3,4) become (1,3), (3,2), (2,4) — a three-edge window between the
  // one-edge prefix (0,1) and the three-edge suffix (4,5), (5,6), (6,7).
  const TaskId t = cand.processor_order(0)[2];
  cand.reposition(t, 3);

  const ChainCounters before = counters(inc);
  const auto m = inc.evaluate_candidate(arch, cand, cand.touched_resources(),
                                        cand.touched_tasks());
  ASSERT_TRUE(m.has_value());
  const ChainCounters d = delta(before, counters(inc));
  EXPECT_EQ(d.removed, 3);
  EXPECT_EQ(d.added, 3);
  EXPECT_EQ(d.kept, 4);  // prefix (0,1); suffix (4,5), (5,6), (6,7)
  expect_matches_full(app.graph, arch, cand, m);
  inc.commit();
}

TEST(ChainDiff, FullReversalRebuildsWholeChain) {
  const std::size_t n = 9;
  const Application app = independent_app(n, 37);
  const Architecture arch =
      make_cpu_fpga_architecture(1000, from_us(10.0), 20'000'000);
  const Solution sol = Solution::all_software(app.graph, 0);

  IncrementalEvaluator inc(app.graph);
  inc.reset(arch, sol);

  Solution cand = sol;
  cand.clear_touched();
  std::vector<TaskId> order(cand.processor_order(0).begin(),
                            cand.processor_order(0).end());
  for (const TaskId t : order) cand.remove_task(t);
  for (std::size_t i = 0; i < order.size(); ++i) {
    cand.insert_on_processor(order[order.size() - 1 - i], 0, i);
  }

  const ChainCounters before = counters(inc);
  const auto m = inc.evaluate_candidate(arch, cand, cand.touched_resources(),
                                        cand.touched_tasks());
  ASSERT_TRUE(m.has_value());
  const ChainCounters d = delta(before, counters(inc));
  EXPECT_EQ(d.kept, 0);  // no common prefix or suffix survives a reversal
  EXPECT_EQ(d.removed, static_cast<std::int64_t>(n - 1));
  EXPECT_EQ(d.added, static_cast<std::int64_t>(n - 1));
  expect_matches_full(app.graph, arch, cand, m);
  inc.commit();
}

TEST(ChainDiff, EmptyAndSingleTaskChains) {
  const Application app = independent_app(6, 41);
  Architecture arch =
      make_cpu_fpga_architecture(1000, from_us(10.0), 20'000'000);
  const ResourceId spare = arch.add_processor("cpu1");
  const Solution sol = Solution::all_software(app.graph, 0);

  IncrementalEvaluator inc(app.graph);
  inc.reset(arch, sol);

  // A touched resource with no tasks at all: reconcile of an empty chain
  // against an empty desired set must be a no-op.
  {
    const ChainCounters before = counters(inc);
    const ResourceId touched[] = {spare};
    const auto m = inc.evaluate_candidate(arch, sol, touched, {});
    ASSERT_TRUE(m.has_value());
    const ChainCounters d = delta(before, counters(inc));
    EXPECT_EQ(d.kept, 0);
    EXPECT_EQ(d.removed, 0);
    EXPECT_EQ(d.added, 0);
    expect_matches_full(app.graph, arch, sol, m);
    inc.commit();
  }

  // One task on the spare processor: a single-task chain has no
  // sequentialization edges in either direction of the move.
  Solution cand = sol;
  cand.clear_touched();
  const TaskId t = cand.processor_order(0)[2];
  cand.remove_task(t);
  cand.insert_on_processor(t, spare, 0);
  {
    const ChainCounters before = counters(inc);
    const auto m = inc.evaluate_candidate(
        arch, cand, cand.touched_resources(), cand.touched_tasks());
    ASSERT_TRUE(m.has_value());
    const ChainCounters d = delta(before, counters(inc));
    // Donor chain: the two edges around the removed slot collapse into one
    // bridging edge; the single-task spare chain contributes nothing.
    EXPECT_EQ(d.removed, 2);
    EXPECT_EQ(d.added, 1);
    EXPECT_EQ(d.kept, 3);  // donor prefix (0,1) + suffix (3,4), (4,5)
    expect_matches_full(app.graph, arch, cand, m);
    inc.commit();
  }
}

TEST(ChainDiff, RollbackRestoresChainOrderExactly) {
  const Application app = chained_app(12, 53);
  const Architecture arch =
      make_cpu_fpga_architecture(1200, from_us(10.0), 20'000'000);
  const Solution sol = Solution::all_software(app.graph, 0);

  IncrementalEvaluator inc(app.graph);
  inc.reset(arch, sol);

  // Stage a reorder, discard it, then re-evaluate the identical committed
  // order: the chain list must have been restored in order, so the diff
  // finds a full prefix match and emits nothing.
  Rng rng(7);
  for (int step = 0; step < 40; ++step) {
    Solution cand = sol;
    cand.clear_touched();
    const auto order = cand.processor_order(0);
    const TaskId t = order[rng.index(order.size())];
    cand.reposition(t, rng.index(order.size()));
    const auto staged = inc.evaluate_candidate(
        arch, cand, cand.touched_resources(), cand.touched_tasks());
    expect_matches_full(app.graph, arch, cand, staged);
    if (staged.has_value()) inc.discard();

    Solution same = sol;
    same.clear_touched();
    same.reposition(sol.processor_order(0)[0], 0);  // no-op touch
    const ChainCounters before = counters(inc);
    const auto m = inc.evaluate_candidate(
        arch, same, same.touched_resources(), same.touched_tasks());
    ASSERT_TRUE(m.has_value()) << "step " << step;
    const ChainCounters d = delta(before, counters(inc));
    EXPECT_EQ(d.removed, 0) << "step " << step;
    EXPECT_EQ(d.added, 0) << "step " << step;
    inc.discard();
  }
}

// ---- per-context CLB sums as deltas ----------------------------------------

TEST(ClbDeltas, MirrorAndCountersStayExactUnderRollbackChurn) {
  // The per-context CLB mirror is maintained incrementally by the move
  // mutators; a single missed update would silently skew reconfiguration
  // times. Churn through rejection-heavy annealing and audit every warm
  // slot against a from-scratch sum over the context members.
  for (std::uint64_t seed = 401; seed <= 410; ++seed) {
    const Application app = chained_app(18, seed);
    Architecture arch =
        make_cpu_fpga_architecture(700, from_us(12.0), 10'000'000);
    Rng init(seed);
    Solution initial =
        Solution::random_partition(app.graph, arch, 0, 1, init);
    DseProblem prob(app.graph, arch, initial, {}, {}, false, false);
    const TaskGraph& tg = app.graph;
    constexpr ResourceId kRc = 1;

    const auto audit_mirror = [&] {
      const Solution& cur = prob.current_solution();
      for (std::size_t c = 0; c < cur.context_count(kRc); ++c) {
        std::int32_t want = 0;
        for (TaskId t : cur.context_tasks(kRc, c)) {
          want += tg.task(t).hw.at(cur.placement(t).impl).clbs;
        }
        const std::int32_t cached = cur.context_clbs_cached(kRc, c);
        if (cached >= 0) {
          ASSERT_EQ(cached, want) << "seed " << seed << ", context " << c;
        }
        ASSERT_EQ(cur.context_clbs(tg, kRc, c), want);
      }
    };

    Rng rng(seed * 97 + 1);
    Rng coin(seed ^ 0xF00Du);
    IncrementalEvalStats last{};
    for (int i = 0; i < 400; ++i) {
      if (!prob.propose(rng)) continue;
      // Bias to rejection: the mirror must survive rollback churn.
      if (coin.bernoulli(0.3)) {
        prob.accept();
      } else {
        prob.reject();
      }
      const auto stats = prob.incremental_stats();
      ASSERT_TRUE(stats.has_value());
      // Counter lockstep: every realized context classifies its CLB sum
      // exactly once — reused or computed, never both, never neither —
      // and the counters only move forward.
      ASSERT_EQ(stats->clbs_reused + stats->clbs_computed,
                stats->bounds_reused + stats->bounds_computed)
          << "seed " << seed << ", move " << i;
      ASSERT_GE(stats->clbs_reused, last.clbs_reused);
      ASSERT_GE(stats->clbs_computed, last.clbs_computed);
      last = *stats;
      if (i % 50 == 0) audit_mirror();
    }
    audit_mirror();
    if (::testing::Test::HasFailure()) {
      FAIL() << "instance seed " << seed;
    }
  }
}

// ---- context-granular RC realization ---------------------------------------

/// G' as a sorted multiset of (src, dst, weight, kind) — independent of
/// edge ids and insertion order.
std::vector<std::tuple<NodeId, NodeId, TimeNs, SearchEdgeKind>> edge_multiset(
    const SearchGraph& sg) {
  std::vector<std::tuple<NodeId, NodeId, TimeNs, SearchEdgeKind>> out;
  for (EdgeId e = 0; e < sg.graph.edge_capacity(); ++e) {
    if (!sg.graph.edge_alive(e)) continue;
    out.emplace_back(sg.graph.edge(e).src, sg.graph.edge(e).dst,
                     sg.graph.edge_weight(e), sg.edge_kind[e]);
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// What a cyclic probe must leave exactly as it was: G''s live edge count
/// and edge capacity, and every resource's chain as (src, dst, weight) in
/// chain order.
struct CommittedChains {
  std::size_t live_edges = 0;
  std::size_t edge_capacity = 0;
  std::vector<std::vector<std::tuple<NodeId, NodeId, TimeNs>>> chains;
  bool operator==(const CommittedChains&) const = default;
};

CommittedChains committed_chains(const IncrementalEvaluator& inc,
                                 std::size_t slots) {
  const Digraph& g = inc.search_graph().graph;
  CommittedChains c;
  c.live_edges = g.edge_count();
  c.edge_capacity = g.edge_capacity();
  c.chains.resize(slots);
  for (ResourceId r = 0; r < slots; ++r) {
    for (const EdgeId e : inc.chain(r)) {
      c.chains[r].emplace_back(g.edge(e).src, g.edge(e).dst,
                               g.edge_weight(e));
    }
  }
  return c;
}

TEST(ContextRuns, HandMutatedCandidatesMatchFullEvaluation) {
  // Candidates mutated straight through the Solution mutators — several
  // per candidate, spawning, collapsing, swapping and re-implementing
  // contexts, sometimes without the task graph (the cold contexts that
  // leaves force the whole-RC fallback) — are staged, then committed or
  // discarded at random. Every evaluation must equal the full evaluator's
  // exactly — metrics, context accounting, and the realized G' itself
  // (edge multiset and releases).
  constexpr ResourceId kProc = 0;
  constexpr ResourceId kRc = 1;
  int evaluated = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const Application app = chained_app(16, seed * 3 + 1);
    const TaskGraph& tg = app.graph;
    const Architecture arch =
        make_cpu_fpga_architecture(300, from_us(10.0), 10'000'000);
    Rng init(seed);
    Solution sol = Solution::random_partition(tg, arch, kProc, kRc, init);
    IncrementalEvaluator inc(tg);
    inc.reset(arch, sol);
    const Evaluator ev(tg, arch);

    Rng rng(seed * 101);
    for (int step = 0; step < 300; ++step) {
      const std::string where =
          "seed " + std::to_string(seed) + ", step " + std::to_string(step);
      Solution cand = sol;
      cand.clear_touched();
      const TaskGraph* hint = rng.bernoulli(0.8) ? &tg : nullptr;
      for (std::size_t op = 1 + rng.index(4); op > 0; --op) {
        const auto t = static_cast<TaskId>(rng.index(tg.task_count()));
        const std::size_t n_ctx = cand.context_count(kRc);
        const std::size_t kind = rng.index(4);
        const auto draw_impl = [&] {
          return static_cast<std::uint32_t>(rng.index(tg.task(t).hw.size()));
        };
        if (kind == 0 && cand.placement(t).context >= 0) {
          cand.set_impl(t, draw_impl(), hint);
        } else if (kind == 1 && n_ctx >= 2) {
          const std::size_t a = rng.index(n_ctx - 1);
          cand.swap_contexts(kRc, a, a + 1 + rng.index(n_ctx - 1 - a));
        } else {
          cand.remove_task(t, hint);
          const std::size_t n = cand.context_count(kRc);
          const std::size_t dest = rng.index(n + 2);
          if (!tg.task(t).hw_capable() || dest > n) {
            cand.insert_on_processor(
                t, kProc, rng.index(cand.processor_order(kProc).size() + 1));
          } else {
            std::size_t ctx = dest;
            if (dest == n) {
              ctx = cand.spawn_context_after(
                  kRc, n == 0 || rng.bernoulli(0.3) ? Solution::kFront
                                                    : rng.index(n));
            }
            cand.insert_in_context(t, kRc, ctx, draw_impl(), hint);
          }
        }
      }
      const CommittedChains before = committed_chains(inc, arch.slot_count());
      const auto got = inc.evaluate_candidate(
          arch, cand, cand.touched_resources(), cand.touched_tasks());
      const auto want = ev.evaluate(cand);
      ASSERT_EQ(got.has_value(), want.has_value()) << where;
      if (!got.has_value()) {
        // Several edits per candidate: the cycle may close only after the
        // gate repaired the ranks for an earlier chain, and that repair
        // must be rolled back with nothing else written.
        EXPECT_TRUE(committed_chains(inc, arch.slot_count()) == before)
            << where;
        EXPECT_EQ(inc.relaxer().journal_size(), 0u) << where;
        continue;
      }
      ++evaluated;
      EXPECT_EQ(got->makespan, want->makespan) << where;
      EXPECT_EQ(got->init_reconfig, want->init_reconfig) << where;
      EXPECT_EQ(got->dyn_reconfig, want->dyn_reconfig) << where;
      EXPECT_EQ(got->comm_cross, want->comm_cross) << where;
      EXPECT_EQ(got->n_contexts, want->n_contexts) << where;
      EXPECT_EQ(got->clbs_loaded, want->clbs_loaded) << where;
      EXPECT_EQ(got->max_context_clbs, want->max_context_clbs) << where;
      EXPECT_EQ(got->hw_tasks, want->hw_tasks) << where;
      const SearchGraph ref = build_search_graph(tg, arch, cand);
      EXPECT_TRUE(edge_multiset(inc.search_graph()) == edge_multiset(ref))
          << where;
      EXPECT_EQ(inc.search_graph().release, ref.release) << where;
      ASSERT_FALSE(::testing::Test::HasFailure()) << where;
      if (rng.bernoulli(0.5)) {
        inc.commit();
        sol = cand;
      } else {
        inc.discard();
      }
    }
  }
  EXPECT_GT(evaluated, 500);
}

// ---- cyclic probes write nothing -------------------------------------------

void expect_all_metrics_equal(const Metrics& a, const Metrics& b,
                              const std::string& where) {
  EXPECT_EQ(a.makespan, b.makespan) << where;
  EXPECT_EQ(a.init_reconfig, b.init_reconfig) << where;
  EXPECT_EQ(a.dyn_reconfig, b.dyn_reconfig) << where;
  EXPECT_EQ(a.comm_cross, b.comm_cross) << where;
  EXPECT_EQ(a.sw_busy, b.sw_busy) << where;
  EXPECT_EQ(a.hw_busy, b.hw_busy) << where;
  EXPECT_EQ(a.n_contexts, b.n_contexts) << where;
  EXPECT_EQ(a.sw_tasks, b.sw_tasks) << where;
  EXPECT_EQ(a.hw_tasks, b.hw_tasks) << where;
  EXPECT_EQ(a.clbs_loaded, b.clbs_loaded) << where;
  EXPECT_EQ(a.max_context_clbs, b.max_context_clbs) << where;
}

const std::pair<const char*, std::int32_t> kCyclicModels[] = {
    {"motion", 100}, {"motion", 1'000}, {"motion", 10'000},
    {"synthetic:120", 2'000}};

/// Drive `tg` on `arch` through 2000 random §4.2 probes, each compared with
/// the full evaluator (same metrics, or both cyclic); every cyclic probe
/// must leave the committed G' (edge count, edge capacity, each chain),
/// the relaxer journal and everything else untouched. Returns the number
/// of cyclic probes.
int drive_cyclic_lockstep(const std::string& label, const TaskGraph& tg,
                          Architecture arch, std::uint64_t seed) {
  Rng init(seed);
  Solution sol = Solution::random_partition(tg, arch, 0, 1, init);
  IncrementalEvaluator inc(tg);
  inc.reset(arch, sol);
  const Evaluator ev(tg, arch);

  Rng rng(seed * 7 + 3);
  Rng coin(seed ^ 0xC0FFEEu);
  int probes = 0;
  int cyclic = 0;
  for (int move = 0; probes < 2'000 && move < 10'000; ++move) {
    const std::string where = label + ", move " + std::to_string(move);
    Solution cand = sol;
    cand.clear_touched();
    // p_zero = 0: no move edits the architecture.
    if (!generate_move(tg, arch, cand, MoveConfig{}, rng).applied) continue;
    ++probes;
    const CommittedChains before = committed_chains(inc, arch.slot_count());
    const IncrementalEvalStats stats_before = inc.stats();
    const auto got = inc.evaluate_candidate(
        arch, cand, cand.touched_resources(), cand.touched_tasks());
    const auto want = ev.evaluate(cand);
    EXPECT_EQ(got.has_value(), want.has_value()) << where;
    if (!got.has_value() || !want.has_value()) {
      ++cyclic;
      EXPECT_TRUE(committed_chains(inc, arch.slot_count()) == before)
          << where;
      EXPECT_EQ(inc.relaxer().journal_size(), 0u) << where;
      EXPECT_EQ(inc.stats().cyclic_unstaged, stats_before.cyclic_unstaged + 1)
          << where;
      if (::testing::Test::HasFailure()) return cyclic;
      continue;
    }
    expect_all_metrics_equal(*got, *want, where);
    if (::testing::Test::HasFailure()) return cyclic;
    if (got->makespan <= ev.evaluate(sol)->makespan || coin.bernoulli(0.3)) {
      inc.commit();
      sol = cand;
    } else {
      inc.discard();
    }
  }
  const IncrementalEvalStats s = inc.stats();
  EXPECT_GE(probes, 2'000) << label;
  EXPECT_EQ(s.cyclic_unstaged, s.relax.cyclic) << label;
  EXPECT_EQ(s.relax.cyclic, cyclic) << label;
  EXPECT_LE(s.precedence_refused, s.cyclic_unstaged) << label;
  return cyclic;
}

TEST(CyclicProbes, RefusedBeforeAnyWriteAndAgreeWithFullEvaluation) {
  // The Fig. 3 workload — motion detection from many contexts down to
  // one — and a 120-task graph.
  for (const auto& [name, clbs] : kCyclicModels) {
    const ModelSpec spec = load_model_spec(name);
    const std::string label =
        std::string(name) + " @ " + std::to_string(clbs) + " CLBs";
    const int cyclic = drive_cyclic_lockstep(
        label, spec.app.graph,
        make_cpu_fpga_architecture(clbs, spec.tr_per_clb,
                                   spec.bus_bytes_per_second),
        static_cast<std::uint64_t>(clbs) + 17);
    EXPECT_GT(cyclic, 0) << label;
    ASSERT_FALSE(::testing::Test::HasFailure()) << label;
  }
}

TEST(CyclicProbes, BatchedProblemRefusesCyclicProbesUnstaged) {
  // The same through DseProblem with best-of-8 probes, in lockstep with
  // the full-evaluation reference. A proposal whose every probe was cyclic
  // must leave G' exactly as committed; across the run every cyclic probe
  // is one refused before any write.
  for (const auto& [name, clbs] : kCyclicModels) {
    const ModelSpec spec = load_model_spec(name);
    const TaskGraph& tg = spec.app.graph;
    const Architecture arch = make_cpu_fpga_architecture(
        clbs, spec.tr_per_clb, spec.bus_bytes_per_second);
    Rng init(static_cast<std::uint64_t>(clbs) + 29);
    const Solution initial = Solution::random_partition(tg, arch, 0, 1, init);
    constexpr int kBatch = 8;
    DseProblem full(tg, arch, initial, {}, {}, false, /*full_eval=*/true,
                    kBatch);
    DseProblem inc(tg, arch, initial, {}, {}, false, /*full_eval=*/false,
                   kBatch);
    const IncrementalEvaluator* ev = inc.incremental_evaluator();
    ASSERT_NE(ev, nullptr);

    Rng r_full(static_cast<std::uint64_t>(clbs) * 11 + 5);
    Rng r_inc(static_cast<std::uint64_t>(clbs) * 11 + 5);
    Rng coin(static_cast<std::uint64_t>(clbs) ^ 0xBA7Cu);
    std::int64_t all_cyclic_proposals = 0;
    for (int step = 0; step < 300; ++step) {
      const std::string where = std::string(name) + " @ " +
                                std::to_string(clbs) + " CLBs, step " +
                                std::to_string(step);
      const CommittedChains before = committed_chains(*ev, arch.slot_count());
      const IncrementalEvalStats stats_before = ev->stats();
      const bool a = full.propose(r_full);
      const bool b = inc.propose(r_inc);
      ASSERT_EQ(a, b) << where;
      const IncrementalEvalStats s = ev->stats();
      EXPECT_EQ(s.cyclic_unstaged - stats_before.cyclic_unstaged,
                s.relax.cyclic - stats_before.relax.cyclic)
          << where;
      if (s.relax.probes > stats_before.relax.probes &&
          s.relax.cyclic - stats_before.relax.cyclic ==
              s.relax.probes - stats_before.relax.probes) {
        ++all_cyclic_proposals;
        EXPECT_FALSE(b) << where;
        EXPECT_TRUE(committed_chains(*ev, arch.slot_count()) == before)
            << where;
        EXPECT_EQ(ev->relaxer().journal_size(), 0u) << where;
      }
      ASSERT_FALSE(::testing::Test::HasFailure()) << where;
      if (!a) continue;
      ASSERT_EQ(full.candidate_cost(), inc.candidate_cost()) << where;
      if (inc.candidate_cost() <= inc.cost() || coin.bernoulli(0.3)) {
        full.accept();
        inc.accept();
        expect_all_metrics_equal(full.current_metrics(),
                                 inc.current_metrics(), where);
      } else {
        full.reject();
        inc.reject();
      }
    }
    const IncrementalEvalStats s = ev->stats();
    EXPECT_GT(s.relax.cyclic, 0) << name << " @ " << clbs;
    EXPECT_EQ(s.cyclic_unstaged, s.relax.cyclic) << name << " @ " << clbs;
    EXPECT_GT(all_cyclic_proposals, 0) << name << " @ " << clbs;
  }
}

// ---- the precedence pre-gate ----------------------------------------------

/// A 4-task chain a -> b -> c -> d on a CPU (0) and a 200-CLB FPGA (1).
/// Committed: a in context 0, b in context 1, c then d in software.
class PrecedencePreGate : public ::testing::Test {
 protected:
  static constexpr ResourceId kProc = 0;
  static constexpr ResourceId kRc = 1;

  PrecedencePreGate()
      : arch(make_cpu_fpga_architecture(200, from_us(22.5), 1'000'000)),
        sol(4),
        inc(tg) {
    for (const char* name : {"a", "b", "c", "d"}) {
      Task t;
      t.name = name;
      t.functionality = "F";
      t.sw_time = from_ms(2.0);
      t.hw = make_pareto_impls(t.sw_time, 50, 4.0, 3);
      tg.add_task(std::move(t));
    }
    tg.add_comm(a, b, 1000);
    tg.add_comm(b, c, 2000);
    tg.add_comm(c, d, 3000);
    sol.insert_in_context(
        a, kRc, sol.spawn_context_after(kRc, Solution::kFront), 0, &tg);
    sol.insert_in_context(b, kRc, sol.spawn_context_after(kRc, 0), 0, &tg);
    sol.insert_on_processor(c, kProc, 0);
    sol.insert_on_processor(d, kProc, 1);
    inc.reset(arch, sol);
  }

  /// A fresh candidate: the committed solution with an empty journal.
  Solution candidate() const {
    Solution cand = sol;
    cand.clear_touched();
    return cand;
  }

  /// Evaluate a candidate the full evaluator finds cyclic; it must be
  /// refused with nothing written, and count as one cyclic probe.
  void expect_refused_unstaged(const Solution& cand) {
    ASSERT_FALSE(Evaluator(tg, arch).evaluate(cand).has_value());
    const CommittedChains chains = committed_chains(inc, arch.slot_count());
    const std::size_t edges = inc.search_graph().graph.edge_count();
    const IncrementalEvalStats before = inc.stats();
    const auto got = inc.evaluate_candidate(
        arch, cand, cand.touched_resources(), cand.touched_tasks());
    EXPECT_FALSE(got.has_value());
    const IncrementalEvalStats after = inc.stats();
    EXPECT_EQ(inc.search_graph().graph.edge_count(), edges);
    EXPECT_TRUE(committed_chains(inc, arch.slot_count()) == chains);
    EXPECT_EQ(inc.relaxer().journal_size(), 0u);
    EXPECT_EQ(after.builds, before.builds + 1);
    EXPECT_EQ(after.relax.probes, before.relax.probes + 1);
    EXPECT_EQ(after.relax.cyclic, before.relax.cyclic + 1);
    EXPECT_EQ(after.cyclic_unstaged, after.relax.cyclic);
  }

  /// The committed state is still intact: an acyclic candidate (d moves
  /// onto the FPGA after b) evaluates exactly like the full evaluator.
  void expect_committed_state_intact() {
    Solution cand = candidate();
    cand.remove_task(d, &tg);
    cand.insert_in_context(d, kRc, cand.spawn_context_after(kRc, 1), 0, &tg);
    const auto got = inc.evaluate_candidate(
        arch, cand, cand.touched_resources(), cand.touched_tasks());
    expect_matches_full(tg, arch, cand, got);
    inc.discard();
  }

  TaskGraph tg;
  const TaskId a = 0, b = 1, c = 2, d = 3;
  Architecture arch;
  Solution sol;
  IncrementalEvaluator inc;
};

TEST_F(PrecedencePreGate, PredecessorInALaterContextIsRefused) {
  // b moves into a new context in front of a's: its predecessor a now
  // sits in a later context.
  Solution cand = candidate();
  cand.remove_task(b, &tg);
  cand.insert_in_context(
      b, kRc, cand.spawn_context_after(kRc, Solution::kFront), 0, &tg);
  ASSERT_GT(cand.placement(a).context, cand.placement(b).context);
  const IncrementalEvalStats before = inc.stats();
  expect_refused_unstaged(cand);
  const IncrementalEvalStats after = inc.stats();
  EXPECT_EQ(after.precedence_refused, 1);
  // Decided without a plan or a rank search.
  EXPECT_EQ(after.rc_probes, before.rc_probes);
  EXPECT_EQ(after.relax.rank_refreshes, before.relax.rank_refreshes);
  expect_committed_state_intact();
}

TEST_F(PrecedencePreGate, SuccessorInAnEarlierContextIsRefused) {
  // a moves into a new context after b's: its successor b now sits in an
  // earlier context.
  Solution cand = candidate();
  cand.remove_task(a, &tg);  // context 0 collapses: b is context 0
  cand.insert_in_context(a, kRc, cand.spawn_context_after(kRc, 0), 0, &tg);
  ASSERT_LT(cand.placement(b).context, cand.placement(a).context);
  expect_refused_unstaged(cand);
  EXPECT_EQ(inc.stats().precedence_refused, 1);
  EXPECT_EQ(inc.stats().rc_probes, 0);
  expect_committed_state_intact();
}

TEST_F(PrecedencePreGate, ProcessorCycleIsLeftToTheGate) {
  // d before c in the processor order closes c -> d -> c through the Esw
  // chain: no context order is violated, so the rank gate refuses it.
  Solution cand = candidate();
  cand.reposition(d, 0);
  expect_refused_unstaged(cand);
  EXPECT_EQ(inc.stats().precedence_refused, 0);
  EXPECT_EQ(inc.stats().relax.rank_refreshes, 1);
  expect_committed_state_intact();
}

}  // namespace
}  // namespace rdse
