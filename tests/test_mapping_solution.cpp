/// Tests for the Solution representation: placements, orders, contexts.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "mapping/search_graph.hpp"
#include "mapping/solution.hpp"
#include "mapping/validation.hpp"
#include "model/generators.hpp"
#include "model/motion_detection.hpp"

namespace rdse {
namespace {

Task hw_task(const std::string& name, double ms, std::int32_t clbs) {
  Task t;
  t.name = name;
  t.functionality = "F";
  t.sw_time = from_ms(ms);
  t.hw = make_pareto_impls(t.sw_time, clbs, 4.0, 3);
  return t;
}

class SolutionFixture : public ::testing::Test {
 protected:
  SolutionFixture()
      : arch(make_cpu_fpga_architecture(300, from_us(22.5), 1'000'000)) {
    for (int i = 0; i < 5; ++i) {
      tg.add_task(hw_task("t" + std::to_string(i), 1.0 + i, 50));
    }
    tg.add_comm(0, 1, 100);
    tg.add_comm(1, 2, 100);
    tg.add_comm(2, 3, 100);
    tg.add_comm(3, 4, 100);
  }
  TaskGraph tg;
  Architecture arch;
};

TEST_F(SolutionFixture, AllSoftwareTopologicalOrder) {
  const Solution sol = Solution::all_software(tg, 0);
  const auto order = sol.processor_order(0);
  ASSERT_EQ(order.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(order[i], i);
    EXPECT_EQ(sol.placement(static_cast<TaskId>(i)).resource, 0u);
  }
  sol.check_mirrors();
  require_valid(tg, arch, sol);
}

TEST_F(SolutionFixture, InsertRemoveOnProcessor) {
  Solution sol(tg.task_count());
  sol.insert_on_processor(0, 0, 0);
  sol.insert_on_processor(1, 0, 0);  // prepends
  EXPECT_EQ(sol.processor_order(0)[0], 1u);
  EXPECT_EQ(sol.order_position(0), 1u);
  sol.remove_task(1);
  EXPECT_FALSE(sol.placement(1).assigned());
  EXPECT_EQ(sol.processor_order(0).size(), 1u);
  sol.check_mirrors();
}

TEST_F(SolutionFixture, DoubleInsertThrows) {
  Solution sol(tg.task_count());
  sol.insert_on_processor(0, 0, 0);
  EXPECT_THROW(sol.insert_on_processor(0, 0, 0), Error);
}

TEST_F(SolutionFixture, ContextLifecycle) {
  Solution sol(tg.task_count());
  const std::size_t c0 = sol.spawn_context_after(1, Solution::kFront);
  EXPECT_EQ(c0, 0u);
  sol.insert_in_context(0, 1, c0, 0);
  sol.insert_in_context(1, 1, c0, 1);
  EXPECT_EQ(sol.context_count(1), 1u);
  EXPECT_EQ(sol.context_tasks(1, 0).size(), 2u);
  // 50 CLB base: impl0 = 50, impl1 = 75 (ratio 1.5).
  EXPECT_EQ(sol.context_clbs(tg, 1, 0), 50 + 75);

  // Removing the last member collapses the context.
  sol.remove_task(0);
  EXPECT_EQ(sol.context_count(1), 1u);
  sol.remove_task(1);
  EXPECT_EQ(sol.context_count(1), 0u);
  sol.check_mirrors();
}

TEST_F(SolutionFixture, ContextCollapseRenumbersPlacements) {
  Solution sol(tg.task_count());
  const std::size_t c0 = sol.spawn_context_after(1, Solution::kFront);
  const std::size_t c1 = sol.spawn_context_after(1, c0);
  sol.insert_in_context(0, 1, c0, 0);
  sol.insert_in_context(1, 1, c1, 0);
  EXPECT_EQ(sol.placement(1).context, 1);
  sol.remove_task(0);  // context 0 dies, context 1 becomes 0
  EXPECT_EQ(sol.context_count(1), 1u);
  EXPECT_EQ(sol.placement(1).context, 0);
  sol.check_mirrors();
}

TEST_F(SolutionFixture, SpawnInMiddleShiftsLaterContexts) {
  Solution sol(tg.task_count());
  const std::size_t c0 = sol.spawn_context_after(1, Solution::kFront);
  const std::size_t c1 = sol.spawn_context_after(1, c0);
  sol.insert_in_context(0, 1, c0, 0);
  sol.insert_in_context(1, 1, c1, 0);
  const std::size_t mid = sol.spawn_context_after(1, c0);
  EXPECT_EQ(mid, 1u);
  EXPECT_EQ(sol.placement(1).context, 2);  // shifted
  sol.insert_in_context(2, 1, mid, 0);
  sol.check_mirrors();
}

TEST_F(SolutionFixture, SwapContexts) {
  Solution sol(tg.task_count());
  const std::size_t c0 = sol.spawn_context_after(1, Solution::kFront);
  const std::size_t c1 = sol.spawn_context_after(1, c0);
  sol.insert_in_context(0, 1, c0, 0);
  sol.insert_in_context(1, 1, c1, 0);
  sol.swap_contexts(1, 0, 1);
  EXPECT_EQ(sol.context_tasks(1, 0)[0], 1u);
  EXPECT_EQ(sol.context_tasks(1, 1)[0], 0u);
  EXPECT_EQ(sol.placement(0).context, 1);
  EXPECT_EQ(sol.placement(1).context, 0);
  sol.check_mirrors();
}

TEST_F(SolutionFixture, RepositionWithinOrder) {
  Solution sol = Solution::all_software(tg, 0);
  sol.reposition(4, 0);
  EXPECT_EQ(sol.processor_order(0)[0], 4u);
  EXPECT_EQ(sol.order_position(4), 0u);
  sol.reposition(4, 99);  // clamped to the end
  EXPECT_EQ(sol.processor_order(0)[4], 4u);
  sol.check_mirrors();
}

TEST_F(SolutionFixture, SetImplOnlyOnRc) {
  Solution sol(tg.task_count());
  sol.insert_on_processor(0, 0, 0);
  EXPECT_THROW(sol.set_impl(0, 1), Error);
  const std::size_t c = sol.spawn_context_after(1, Solution::kFront);
  sol.insert_in_context(1, 1, c, 0);
  sol.set_impl(1, 2);
  EXPECT_EQ(sol.placement(1).impl, 2u);
}

TEST_F(SolutionFixture, AsicMembership) {
  Architecture arch2 = arch;
  const ResourceId asic = arch2.add_asic("asic0");
  Solution sol(tg.task_count());
  sol.insert_on_asic(0, asic, 1);
  EXPECT_EQ(sol.asic_tasks(asic).size(), 1u);
  EXPECT_EQ(sol.placement(0).impl, 1u);
  sol.remove_task(0);
  EXPECT_TRUE(sol.asic_tasks(asic).empty());
  sol.check_mirrors();
}

TEST_F(SolutionFixture, EqualityAndCopy) {
  const Solution a = Solution::all_software(tg, 0);
  Solution b = a;
  EXPECT_EQ(a, b);
  b.reposition(0, 2);
  EXPECT_NE(a, b);
}

// ---- maintained context state vs. from-scratch derivation ------------------

std::int32_t scratch_clbs(const TaskGraph& tg, const Solution& sol,
                          ResourceId rc, std::size_t ctx) {
  std::int32_t sum = 0;
  for (TaskId t : sol.context_tasks(rc, ctx)) {
    sum += tg.task(t).hw.at(sol.placement(t).impl).clbs;
  }
  return sum;
}

/// Every warm context's CLB sum, link counts and boundary must equal what
/// the task graph gives from scratch (a cold context maintains nothing).
void expect_context_state_exact(const TaskGraph& tg, const Solution& sol,
                                ResourceId rc, const std::string& where) {
  for (std::size_t c = 0; c < sol.context_count(rc); ++c) {
    const std::int32_t cached = sol.context_clbs_cached(rc, c);
    if (cached < 0) continue;
    ASSERT_EQ(cached, scratch_clbs(tg, sol, rc, c)) << where << ", ctx " << c;
    for (TaskId t : sol.context_tasks(rc, c)) {
      Solution::ContextLinks want;
      for (EdgeId e : tg.digraph().in_edges(t)) {
        const Placement& q = sol.placement(tg.digraph().edge(e).src);
        want.preds += q.resource == rc && q.context == static_cast<int>(c);
      }
      for (EdgeId e : tg.digraph().out_edges(t)) {
        const Placement& q = sol.placement(tg.digraph().edge(e).dst);
        want.succs += q.resource == rc && q.context == static_cast<int>(c);
      }
      ASSERT_EQ(sol.context_links(t).preds, want.preds) << where << ", t" << t;
      ASSERT_EQ(sol.context_links(t).succs, want.succs) << where << ", t" << t;
    }
    const ContextBoundary ref = context_boundary(tg, sol, rc, c);
    std::vector<TaskId> initials;
    std::vector<TaskId> terminals;
    sol.append_boundary(rc, c, false, initials);
    sol.append_boundary(rc, c, true, terminals);
    ASSERT_EQ(initials, ref.initials) << where << ", ctx " << c;
    ASSERT_EQ(terminals, ref.terminals) << where << ", ctx " << c;
  }
}

/// The context-edit journal must lead from `before` (the solution at
/// clear_touched) to `after`: sorted, non-touching runs whose net size
/// change matches, old CLB figures that match `before`, and every context
/// outside the runs unchanged.
void expect_journal_maps(const TaskGraph& tg, const Solution& before,
                         const Solution& after, ResourceId rc,
                         const std::string& where) {
  std::vector<Solution::ContextEdit> runs;
  for (const Solution::ContextEdit& e : after.context_edits()) {
    if (e.rc == rc) runs.push_back(e);
  }
  std::int64_t net = 0;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const Solution::ContextEdit& e = runs[i];
    ASSERT_GT(e.old_len + e.new_len, 0u) << where;
    ASSERT_LE(e.old_pos + e.old_len, before.context_count(rc)) << where;
    ASSERT_LE(e.new_pos + e.new_len, after.context_count(rc)) << where;
    if (i > 0) {
      // Separated by at least one unchanged context, in both lists.
      ASSERT_LT(runs[i - 1].new_pos + runs[i - 1].new_len, e.new_pos)
          << where;
      ASSERT_LT(runs[i - 1].old_pos + runs[i - 1].old_len, e.old_pos)
          << where;
    }
    if (e.old_clbs >= 0) {
      std::int32_t sum = 0;
      std::int32_t max = -1;
      for (std::uint32_t c = e.old_pos; c < e.old_pos + e.old_len; ++c) {
        sum += scratch_clbs(tg, before, rc, c);
        max = std::max(max, scratch_clbs(tg, before, rc, c));
      }
      ASSERT_EQ(e.old_clbs, sum) << where;
      ASSERT_EQ(e.old_max, max) << where;
    }
    if (!e.members_changed) {
      ASSERT_EQ(e.old_len, e.new_len) << where;
      for (std::uint32_t k = 0; k < e.new_len; ++k) {
        const auto a = before.context_tasks(rc, e.old_pos + k);
        const auto b = after.context_tasks(rc, e.new_pos + k);
        ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
            << where;
      }
    }
    net += static_cast<std::int64_t>(e.new_len) - e.old_len;
  }
  ASSERT_EQ(static_cast<std::int64_t>(before.context_count(rc)) + net,
            static_cast<std::int64_t>(after.context_count(rc)))
      << where;
  std::size_t run = 0;
  std::int64_t shift = 0;
  for (std::uint32_t c = 0; c < after.context_count(rc); ++c) {
    while (run < runs.size() && runs[run].new_pos + runs[run].new_len <= c) {
      shift += static_cast<std::int64_t>(runs[run].new_len) -
               runs[run].old_len;
      ++run;
    }
    if (run < runs.size() && c >= runs[run].new_pos) continue;
    const auto old = static_cast<std::size_t>(c - shift);
    const auto a = before.context_tasks(rc, old);
    const auto b = after.context_tasks(rc, c);
    ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
        << where << ": context " << c << " outside the runs changed";
    for (TaskId t : b) {
      ASSERT_EQ(before.placement(t).impl, after.placement(t).impl) << where;
    }
  }
}

TEST(SolutionContextState, MaintainedStateMatchesScratchUnderChurn) {
  // Random churn through every RC mutator — with and without the task
  // graph, so cold contexts and their re-warming are exercised too — must
  // keep the maintained link counts, boundaries and CLB sums equal to a
  // from-scratch derivation after every single mutator, and the edit
  // journal must describe each stretch of mutations exactly.
  constexpr ResourceId kProc = 0;
  constexpr ResourceId kRc = 1;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    AppGenParams params;
    params.dag.node_count = 24;
    params.dag.max_width = 4;
    params.hw_capable_fraction = 0.9;
    Rng gen(seed);
    const Application app = random_application(params, gen);
    const TaskGraph& tg = app.graph;
    const Architecture arch =
        make_cpu_fpga_architecture(400, from_us(10.0), 10'000'000);
    Rng rng(seed * 7919);
    Solution sol = Solution::random_partition(tg, arch, kProc, kRc, rng);
    sol.clear_touched();
    Solution before = sol;

    for (int step = 0; step < 1'500; ++step) {
      const std::string where =
          "seed " + std::to_string(seed) + ", step " + std::to_string(step);
      if (rng.bernoulli(0.1)) {
        sol.clear_touched();
        before = sol;
      }
      const TaskGraph* hint = rng.bernoulli(0.9) ? &tg : nullptr;
      const auto t = static_cast<TaskId>(rng.index(tg.task_count()));
      const Placement p = sol.placement(t);
      const std::size_t n_ctx = sol.context_count(kRc);
      const std::size_t op = rng.index(5);
      if (op == 0 && p.context >= 0) {
        const auto impl =
            static_cast<std::uint32_t>(rng.index(tg.task(t).hw.size()));
        sol.set_impl(t, impl, hint);
      } else if (op == 1 && n_ctx >= 2) {
        sol.swap_contexts(kRc, rng.index(n_ctx), rng.index(n_ctx));
      } else if (op == 2 && n_ctx > 0) {
        sol.warm_context(tg, kRc, rng.index(n_ctx));
      } else {
        // Move t: to the processor, into an existing context, or into a
        // freshly spawned one.
        sol.remove_task(t, hint);
        expect_context_state_exact(tg, sol, kRc, where + " (remove)");
        const std::size_t n = sol.context_count(kRc);
        const std::size_t dest = rng.index(n + 2);
        if (!tg.task(t).hw_capable() || dest == n + 1) {
          sol.insert_on_processor(
              t, kProc, rng.index(sol.processor_order(kProc).size() + 1));
        } else {
          std::size_t ctx = dest;
          if (dest == n || rng.bernoulli(0.2)) {
            ctx = sol.spawn_context_after(
                kRc, n == 0 || rng.bernoulli(0.2) ? Solution::kFront
                                                  : std::min(dest, n - 1));
            expect_context_state_exact(tg, sol, kRc, where + " (spawn)");
          }
          const auto impl =
              static_cast<std::uint32_t>(rng.index(tg.task(t).hw.size()));
          sol.insert_in_context(t, kRc, ctx, impl, hint);
        }
      }
      expect_context_state_exact(tg, sol, kRc, where);
      sol.check_mirrors();
      expect_journal_maps(tg, before, sol, kRc, where);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

class RandomPartition : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomPartition, AlwaysValidOnMotionDetection) {
  const Application app = make_motion_detection_app();
  for (const std::int32_t clbs : {100, 250, 1000, 2000, 10'000}) {
    Architecture arch = make_cpu_fpga_architecture(
        clbs, kMotionDetectionTrPerClb, kMotionDetectionBusRate);
    Rng rng(GetParam() * 1000 + static_cast<std::uint64_t>(clbs));
    const Solution sol =
        Solution::random_partition(app.graph, arch, 0, 1, rng);
    sol.check_mirrors();
    require_valid(app.graph, arch, sol);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomPartition,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

TEST(RandomPartitionEdge, NoHwCapableTasksFallsBackToSoftware) {
  TaskGraph tg;
  Task t;
  t.name = "swonly";
  t.functionality = "F";
  t.sw_time = from_ms(1.0);
  tg.add_task(std::move(t));
  Architecture arch = make_cpu_fpga_architecture(100, 10, 1000);
  Rng rng(1);
  const Solution sol = Solution::random_partition(tg, arch, 0, 1, rng);
  EXPECT_EQ(sol.tasks_on(0), 1u);
  EXPECT_EQ(sol.context_count(1), 0u);
}

}  // namespace
}  // namespace rdse
