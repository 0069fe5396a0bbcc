/// The annealing hot path is allocation-free in steady state: once the
/// solution's undo log, the evaluator's pools and the relaxer's journals
/// have grown to their working size, a propose/accept/reject step performs
/// no heap allocation at all — move draws, in-place staging and rollback of
/// the Solution, the incremental evaluation and its rollback, best-of-K
/// winner replays and the adaptive move mix included. Global operator new
/// is replaced in this test binary to count allocations.
///
/// "Steady state" is made exact by replay: a stretch of steps is run once
/// from a captured state (its buffers grow to what that stretch needs, as
/// amortized vector growth does at any new high-water mark), then replayed
/// from the same state with the same random stream — and the replay must
/// not allocate once. A per-step allocation shows up in every replay. The
/// adaptive move mix's state is captured and restored with the rest, so the
/// replay draws the same classes.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "core/problem.hpp"
#include "model/motion_detection.hpp"
#include "sched/incremental_eval.hpp"
#include "util/json.hpp"

namespace {
std::atomic<std::int64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace rdse {
namespace {

/// Run `steps` propose/accept/reject steps of `problem` with the streams
/// seeded by `seed`. Decisions: take improving candidates and 40% of the
/// others (a rejection-heavy mix keeps the rollback path hot).
void run_steps(DseProblem& problem, std::uint64_t seed, int steps) {
  Rng rng(seed);
  Rng coin(seed ^ 0xA110Cu);
  for (int i = 0; i < steps; ++i) {
    if (!problem.propose(rng)) continue;
    if (problem.candidate_cost() <= problem.cost() || coin.bernoulli(0.4)) {
      problem.accept();
    } else {
      problem.reject();
    }
  }
}

/// Allocations made by replaying `steps` steps from the state `warmup`
/// steps in, after one unmeasured run of the same steps.
std::int64_t allocations_in_steady_state(DseProblem& problem, int warmup,
                                         int steps) {
  run_steps(problem, 3, warmup);
  const Architecture arch = problem.current_architecture();
  const Solution sol = problem.current_solution();
  JsonValue mix = JsonValue::object();
  if (problem.move_mix() != nullptr) problem.move_mix()->save_state(mix);
  const auto restore = [&] {
    problem.reset_state(arch, sol);
    if (problem.move_mix() != nullptr) problem.move_mix()->load_state(mix);
  };
  restore();
  run_steps(problem, 17, steps);
  restore();
  const std::int64_t before = g_allocations.load();
  run_steps(problem, 17, steps);
  return g_allocations.load() - before;
}

TEST(HotPathAllocations, SteadyStateStepsAllocateNothing) {
  const Application app = make_motion_detection_app();
  for (const std::int32_t clbs : {100, 10'000}) {
    const Architecture arch = make_cpu_fpga_architecture(
        clbs, kMotionDetectionTrPerClb, kMotionDetectionBusRate);
    Rng init(static_cast<std::uint64_t>(clbs));
    const Solution initial =
        Solution::random_partition(app.graph, arch, 0, 1, init);
    DseProblem problem(app.graph, arch, initial, {}, {}, false,
                       /*full_eval=*/false);
    EXPECT_EQ(allocations_in_steady_state(problem, 5'000, 10'000), 0)
        << clbs << " CLBs";
  }
}

TEST(HotPathAllocations, BatchedAndAdaptiveStepsAllocateNothing) {
  // Best-of-K stages every probe in place and rolls it back before the
  // next draw, then replays the winner: K = 8 with and without the adaptive
  // mix, and the adaptive mix at K = 1, all in a rejection-heavy steady
  // state.
  const Application app = make_motion_detection_app();
  struct Case {
    int batch;
    bool adaptive;
  };
  for (const std::int32_t clbs : {100, 10'000}) {
    const Architecture arch = make_cpu_fpga_architecture(
        clbs, kMotionDetectionTrPerClb, kMotionDetectionBusRate);
    for (const Case c : {Case{8, false}, Case{8, true}, Case{1, true}}) {
      Rng init(static_cast<std::uint64_t>(clbs));
      const Solution initial =
          Solution::random_partition(app.graph, arch, 0, 1, init);
      DseProblem problem(app.graph, arch, initial, {}, {}, c.adaptive,
                         /*full_eval=*/false, c.batch);
      EXPECT_EQ(allocations_in_steady_state(problem, 2'000, 4'000), 0)
          << clbs << " CLBs, K " << c.batch << ", adaptive " << c.adaptive;
    }
  }
}

TEST(HotPathAllocations, PrecedenceRefusalAllocatesNothing) {
  // A candidate the precedence pre-gate refuses allocates nothing, not even
  // on the evaluator's first probe: it reads no plan, runs no gate and
  // writes no journal.
  const Application app = make_motion_detection_app();
  const TaskGraph& tg = app.graph;
  const Architecture arch = make_cpu_fpga_architecture(
      10'000, kMotionDetectionTrPerClb, kMotionDetectionBusRate);
  // An application edge u -> v between two hardware-capable tasks.
  TaskId u = kInvalidNode;
  TaskId v = kInvalidNode;
  for (EdgeId e = 0; e < tg.comm_count() && u == kInvalidNode; ++e) {
    const CommEdge& c = tg.comm(e);
    if (tg.task(c.src).hw_capable() && tg.task(c.dst).hw_capable()) {
      u = c.src;
      v = c.dst;
    }
  }
  ASSERT_NE(u, kInvalidNode);
  // Committed: software, but u in context 0 and v in context 1 of the RC.
  Solution sol = Solution::all_software(tg, 0);
  sol.remove_task(u, &tg);
  sol.remove_task(v, &tg);
  sol.insert_in_context(u, 1, sol.spawn_context_after(1, Solution::kFront), 0,
                        &tg);
  sol.insert_in_context(v, 1, sol.spawn_context_after(1, 0), 0, &tg);
  IncrementalEvaluator inc(tg);
  inc.reset(arch, sol);
  // Candidate: v moves into a new context in front of u's.
  Solution cand = sol;
  cand.clear_touched();
  cand.remove_task(v, &tg);
  cand.insert_in_context(v, 1, cand.spawn_context_after(1, Solution::kFront),
                         0, &tg);

  const std::int64_t before = g_allocations.load();
  const auto got = inc.evaluate_candidate(
      arch, cand, cand.touched_resources(), cand.touched_tasks());
  const std::int64_t allocations = g_allocations.load() - before;
  EXPECT_FALSE(got.has_value());
  EXPECT_EQ(inc.stats().precedence_refused, 1);
  EXPECT_EQ(allocations, 0);
}

TEST(HotPathAllocations, CounterSeesAllocations) {
  // Guard against a counter that silently counts nothing.
  const std::int64_t before = g_allocations.load();
  auto* v = new std::vector<int>(1000);
  delete v;
  EXPECT_GE(g_allocations.load() - before, 2);
}

}  // namespace
}  // namespace rdse
