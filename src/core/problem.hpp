#pragma once
/// \file problem.hpp
/// \brief The design-space exploration problem handed to the annealer:
/// state = (architecture, solution), moves = §4.2, cost = §4.4 longest path
/// (optionally blended with system price and a deadline penalty for the
/// architecture-exploration mode of [11]).

#include <array>
#include <memory>
#include <optional>

#include "anneal/annealer.hpp"
#include "anneal/move_control.hpp"
#include "core/moves.hpp"
#include "sched/evaluator.hpp"
#include "sched/incremental_eval.hpp"

namespace rdse {

/// Objective weights. With the defaults the cost is the execution time in
/// milliseconds — the paper's §5 criterion for a fixed architecture. For
/// architecture exploration, price_weight > 0 charges the system cost and
/// deadline_penalty_per_ms turns the performance constraint into a soft
/// barrier.
struct CostWeights {
  double time_weight = 1.0;            ///< per ms of makespan
  double price_weight = 0.0;           ///< per unit of resource price
  double deadline_penalty_per_ms = 0.0;
  TimeNs deadline = 0;
};

/// Per-move-class counters (proposals may be null, infeasible = cyclic G').
struct MoveClassStats {
  std::int64_t drawn = 0;
  std::int64_t null_draws = 0;
  std::int64_t infeasible = 0;
  std::int64_t evaluated = 0;
  std::int64_t accepted = 0;
};

class DseProblem final : public AnnealProblem {
 public:
  /// `full_eval` switches the hot path back to realizing and relaxing the
  /// whole search graph per move (the reference path) — the A/B escape
  /// hatch for the incremental evaluator, which is bit-identical but kept
  /// verifiable.
  ///
  /// `batch` (K >= 1) is the number of candidate moves probed per annealing
  /// step against the same committed state; the cheapest feasible probe is
  /// handed to the engine's Metropolis test ("best of K, then Metropolis").
  /// K = 1 is bit-identical to the classic one-probe path.
  ///
  /// Moves are staged in place on the committed solution under its undo
  /// log (Solution::begin_undo): propose() leaves the winning move applied
  /// to it, accept() keeps it and reject() rolls it back — no per-proposal
  /// copy of the design point. Between propose() and accept()/reject(),
  /// current_solution() therefore shows the candidate.
  DseProblem(const TaskGraph& tg, Architecture arch, Solution initial,
             MoveConfig moves = {}, CostWeights weights = {},
             bool adaptive_move_mix = false, bool full_eval = false,
             int batch = 1);

  // AnnealProblem interface.
  [[nodiscard]] double cost() const override { return cost_; }
  bool propose(Rng& rng) override;
  [[nodiscard]] double candidate_cost() const override { return cand_cost_; }
  void accept() override;
  void reject() override;
  void snapshot_best() override;

  // Inspection.
  [[nodiscard]] const Solution& current_solution() const { return sol_; }
  [[nodiscard]] const Architecture& current_architecture() const {
    return arch_;
  }
  [[nodiscard]] const Metrics& current_metrics() const { return metrics_; }
  [[nodiscard]] const Solution& best_solution() const { return best_sol_; }
  [[nodiscard]] const Architecture& best_architecture() const {
    return best_arch_;
  }
  [[nodiscard]] const Metrics& best_metrics() const { return best_metrics_; }
  [[nodiscard]] const std::array<MoveClassStats, kMoveKindCount>&
  move_stats() const {
    return move_stats_;
  }
  /// Incremental-evaluation counters; nullopt when running with full_eval.
  [[nodiscard]] std::optional<IncrementalEvalStats> incremental_stats()
      const {
    if (!inc_) return std::nullopt;
    return inc_->stats();
  }
  /// The incremental evaluator (nullptr under full evaluation). Exposed
  /// for tests.
  [[nodiscard]] const IncrementalEvaluator* incremental_evaluator() const {
    return inc_.get();
  }
  /// Toggle the incremental evaluator's per-phase micro-profile (no-op in
  /// full_eval mode); see IncrementalEvalStats::profile_*_ns.
  void set_incremental_profile(bool on) {
    if (inc_) inc_->set_profile(on);
  }

  /// Cost of a (makespan, price) pair under the configured weights.
  [[nodiscard]] double cost_of(const Metrics& m,
                               const Architecture& arch) const;

  /// Replace the *current* state with an externally supplied one (replica
  /// exchange): validates, re-evaluates, and updates the current cost. The
  /// best-so-far snapshot and move statistics are left untouched; callers
  /// driving an AnnealEngine must follow up with notify_state_replaced().
  void reset_state(Architecture arch, Solution sol);

  /// Checkpoint restore: replace the best-so-far snapshot (validated and
  /// re-evaluated). The construction sequence of a resumed problem takes
  /// the checkpointed *current* state through the constructor and the
  /// engine's initial snapshot_best() clobbers best with it; this puts the
  /// checkpointed best back.
  void restore_best_state(Architecture arch, Solution sol);

  /// Checkpoint restore of the per-class move counters.
  void set_move_stats(const std::array<MoveClassStats, kMoveKindCount>& s) {
    move_stats_ = s;
  }

  /// Undo-log entries the staged moves wrote into the solution, summed
  /// over every staging (each draw, plus each best-of-K winner replay).
  [[nodiscard]] std::int64_t solution_undo_entries() const {
    return undo_entries_;
  }
  [[nodiscard]] std::int64_t solution_stagings() const { return stagings_; }

  /// Adaptive move-mix controller; nullptr unless adaptive_move_mix was
  /// requested. Exposed for checkpoint save/restore of its EWMA state.
  [[nodiscard]] MoveMixController* move_mix() { return mix_.get(); }
  [[nodiscard]] const MoveMixController* move_mix() const {
    return mix_.get();
  }

 private:
  /// The move configuration of the next draw: the configured one, or the
  /// adaptive mix's pick forced onto it (in mix_config_).
  const MoveConfig& draw_config(Rng& rng);
  /// The architecture moves draw on: arch_ itself unless architecture
  /// moves are enabled (p_zero > 0), else cand_arch_, refreshed from arch_
  /// when a previous move left it mutated.
  Architecture& move_arch();
  /// Start / undo / keep a staged move on sol_ (counting its log entries).
  void stage();
  void unstage();
  void keep_staged();
  /// Evaluate the move staged on sol_.
  std::optional<Metrics> evaluate_staged(const Architecture& arch);

  const TaskGraph* tg_;
  MoveConfig move_config_;
  CostWeights weights_;

  Architecture arch_;
  Solution sol_;
  Metrics metrics_;
  double cost_ = 0.0;

  /// Candidate architecture for m3/m4 (used only when p_zero > 0; every
  /// other move leaves the architecture alone and draws on arch_).
  Architecture cand_arch_;
  /// The staged move's evaluation — during propose(), the best probe's.
  Metrics cand_metrics_;
  double cand_cost_ = 0.0;
  MoveKind cand_kind_ = MoveKind::kReassign;

  Architecture best_arch_;
  Solution best_sol_;
  Metrics best_metrics_;

  /// What replays a probe's move exactly: the generator state before its
  /// draw and the configuration it was drawn with. Kept (K > 1) for the
  /// current probe and for the cheapest feasible one so far, which is
  /// replayed once the later probes are undone.
  struct Replay {
    Rng::State rng;
    MoveConfig config;
  };
  Replay probe_;
  Replay winner_;
  /// The adaptive mix's forced configuration of the current draw.
  MoveConfig mix_config_;
  /// Probes evaluated per annealing step (K); 1 = the classic path.
  int batch_ = 1;
  std::int64_t undo_entries_ = 0;
  std::int64_t stagings_ = 0;

  std::unique_ptr<MoveMixController> mix_;
  std::array<MoveClassStats, kMoveKindCount> move_stats_{};
  /// Hot-path evaluator (null when full_eval was requested).
  std::unique_ptr<IncrementalEvaluator> inc_;
  /// True when cand_arch_ may differ from arch_ and must be re-copied
  /// before the next architecture-capable draw.
  bool cand_arch_stale_ = false;
  /// True when the staged move mutated the candidate architecture (m3/m4).
  /// accept() deep-clones the architecture (unique_ptr resources) only
  /// then — every other move leaves arch_ == cand_arch_ already.
  bool cand_arch_mutated_ = false;
};

}  // namespace rdse
