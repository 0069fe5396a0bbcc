#include "core/problem.hpp"

#include "mapping/validation.hpp"
#include "util/assert.hpp"

namespace rdse {

DseProblem::DseProblem(const TaskGraph& tg, Architecture arch,
                       Solution initial, MoveConfig moves,
                       CostWeights weights, bool adaptive_move_mix,
                       bool full_eval, int batch)
    : tg_(&tg),
      move_config_(moves),
      weights_(weights),
      arch_(std::move(arch)),
      sol_(std::move(initial)),
      cand_arch_(arch_),
      best_arch_(arch_),
      best_sol_(sol_),
      batch_(batch) {
  RDSE_REQUIRE(batch_ >= 1, "DseProblem: batch must be >= 1");
  require_valid(*tg_, arch_, sol_);
  const Evaluator ev(*tg_, arch_);
  const auto m = ev.evaluate(sol_);
  RDSE_REQUIRE(m.has_value(), "DseProblem: initial solution is infeasible");
  metrics_ = *m;
  cost_ = cost_of(metrics_, arch_);
  best_metrics_ = metrics_;

  if (!full_eval) {
    inc_ = std::make_unique<IncrementalEvaluator>(*tg_);
    inc_->reset(arch_, sol_);
  }

  if (adaptive_move_mix) {
    std::vector<std::string> names;
    names.reserve(kMoveKindCount);
    for (std::size_t k = 0; k < kMoveKindCount; ++k) {
      names.emplace_back(to_string(static_cast<MoveKind>(k)));
    }
    mix_ = std::make_unique<MoveMixController>(std::move(names));
  }
}

double DseProblem::cost_of(const Metrics& m, const Architecture& arch) const {
  double c = weights_.time_weight * to_ms(m.makespan);
  if (weights_.price_weight != 0.0) {
    c += weights_.price_weight * arch.total_price();
  }
  if (weights_.deadline_penalty_per_ms > 0.0 && weights_.deadline > 0 &&
      m.makespan > weights_.deadline) {
    c += weights_.deadline_penalty_per_ms *
         to_ms(m.makespan - weights_.deadline);
  }
  return c;
}

void DseProblem::reset_state(Architecture arch, Solution sol) {
  require_valid(*tg_, arch, sol);
  const Evaluator ev(*tg_, arch);
  const auto m = ev.evaluate(sol);
  RDSE_REQUIRE(m.has_value(), "reset_state: injected solution is infeasible");
  arch_ = std::move(arch);
  // Copy (not move) the solution in: the committed buffers keep the
  // storage the hot path has grown, so a resumed annealing loop is
  // allocation-free again right away. The candidate architecture is
  // refreshed here for the same reason instead of on the next proposal.
  sol_ = sol;
  metrics_ = *m;
  cost_ = cost_of(metrics_, arch_);
  if (move_config_.p_zero > 0.0) cand_arch_ = arch_;
  cand_arch_stale_ = false;
  if (inc_) inc_->reset(arch_, sol_);
}

void DseProblem::restore_best_state(Architecture arch, Solution sol) {
  require_valid(*tg_, arch, sol);
  const Evaluator ev(*tg_, arch);
  const auto m = ev.evaluate(sol);
  RDSE_REQUIRE(m.has_value(),
               "restore_best_state: injected solution is infeasible");
  best_arch_ = std::move(arch);
  best_sol_ = std::move(sol);
  best_metrics_ = *m;
}

const MoveConfig& DseProblem::draw_config(Rng& rng) {
  if (!mix_) return move_config_;
  // Adaptive move-mix (EXP-A2): the controller picks the class, the §4.2
  // operand draws stay random.
  const auto kind = static_cast<MoveKind>(mix_->pick(rng));
  MoveConfig& forced = mix_config_;
  forced = move_config_;
  // Force the auxiliary classes or fall back to the m1/m2 dispatch.
  switch (kind) {
    case MoveKind::kChangeImpl:
      forced.p_change_impl = 1.0;
      break;
    case MoveKind::kReorderContexts:
      forced.p_change_impl = 0.0;
      forced.p_reorder_contexts = 1.0;
      break;
    case MoveKind::kRemoveResource:
    case MoveKind::kCreateResource:
      forced.p_change_impl = 0.0;
      forced.p_reorder_contexts = 0.0;
      forced.p_zero = move_config_.p_zero > 0.0 ? 1.0 : 0.0;
      break;
    default:
      forced.p_change_impl = 0.0;
      forced.p_reorder_contexts = 0.0;
      break;
  }
  return forced;
}

Architecture& DseProblem::move_arch() {
  // With p_zero == 0 no draw reaches m3/m4, the only moves that touch the
  // architecture, so the committed one serves without a copy.
  if (move_config_.p_zero <= 0.0) return arch_;
  if (cand_arch_stale_) {
    cand_arch_ = arch_;
    cand_arch_stale_ = false;
  }
  return cand_arch_;
}

void DseProblem::stage() {
  sol_.clear_touched();
  sol_.begin_undo();
  ++stagings_;
}

void DseProblem::unstage() {
  undo_entries_ += static_cast<std::int64_t>(sol_.undo_entries());
  sol_.rollback();
}

void DseProblem::keep_staged() {
  undo_entries_ += static_cast<std::int64_t>(sol_.undo_entries());
  sol_.drop_undo();
}

std::optional<Metrics> DseProblem::evaluate_staged(const Architecture& arch) {
  // Hot path: evaluate the candidate as a delta against the committed
  // state — only the realizations of the resources the move touched are
  // recomputed, and only the affected region of G' is re-relaxed. The
  // full-evaluation path is the A/B reference (bit-identical).
  if (inc_) {
    return inc_->evaluate_candidate(arch, sol_, sol_.touched_resources(),
                                    sol_.touched_tasks());
  }
  const Evaluator ev(*tg_, arch);
  return ev.evaluate(sol_);
}

bool DseProblem::propose(Rng& rng) {
  // Probe K moves against the committed state, keep the cheapest feasible
  // one and hand only that winner to the engine's Metropolis test ("best of
  // K, then Metropolis"). Each probe is staged in place on sol_ and rolled
  // back before the next is drawn; a winner that is not the last probe is
  // replayed from its saved generator state at the end. Losing probes count
  // as rejections for the adaptive move mix; the per-class counters see
  // every probe, so `evaluated` still measures real evaluator work.
  bool have_winner = false;
  bool staged = false;            // inc_ holds an uncommitted delta ...
  bool staged_is_winner = false;  // ... and it belongs to the winner
  bool winner_applied = false;    // sol_ still holds the winner's move
  for (int k = 0; k < batch_; ++k) {
    const MoveConfig& config = draw_config(rng);
    if (batch_ > 1) probe_ = {rng.state(), config};
    Architecture& arch = move_arch();
    stage();
    const MoveOutcome outcome = generate_move(*tg_, arch, sol_, config, rng);
    auto& stats = move_stats_[static_cast<std::size_t>(outcome.kind)];
    ++stats.drawn;
    // m3/m4 mutate the candidate architecture. A failed m4 still leaves a
    // tombstoned slot behind; a failed m3 returns before mutating anything.
    const bool arch_mutated =
        outcome.kind == MoveKind::kCreateResource ||
        (outcome.applied && outcome.kind == MoveKind::kRemoveResource);
    if (arch_mutated) cand_arch_stale_ = true;
    if (!outcome.applied) {
      ++stats.null_draws;
      if (mix_) mix_->report(static_cast<std::size_t>(outcome.kind), false);
      unstage();
      continue;
    }

    // Only one delta can be staged at a time: drop the previous probe's
    // before evaluating this one (the winner is re-staged at the end).
    if (inc_ && staged) {
      inc_->discard();
      staged = false;
      staged_is_winner = false;
    }
    const std::optional<Metrics> m = evaluate_staged(arch);
    if (!m.has_value()) {
      // §4.3: the realized G' has a cycle — the move "will not be
      // performed".
      ++stats.infeasible;
      if (mix_) mix_->report(static_cast<std::size_t>(outcome.kind), false);
      unstage();
      continue;
    }
    ++stats.evaluated;
    staged = inc_ != nullptr;
    const double cost = cost_of(*m, arch);
    if (!have_winner || cost < cand_cost_) {
      if (have_winner && mix_) {
        mix_->report(static_cast<std::size_t>(cand_kind_), false);
      }
      cand_metrics_ = *m;
      cand_cost_ = cost;
      cand_kind_ = outcome.kind;
      cand_arch_mutated_ = arch_mutated;
      if (batch_ > 1) winner_ = probe_;
      have_winner = true;
      staged_is_winner = true;
    } else {
      if (mix_) mix_->report(static_cast<std::size_t>(outcome.kind), false);
      staged_is_winner = false;
    }
    winner_applied = k + 1 == batch_ && staged_is_winner;
    if (!winner_applied) unstage();
  }

  if (!have_winner) return false;
  if (!winner_applied) {
    // Replay the winner on the committed state. The rolled-back solution
    // (and a refreshed candidate architecture) are bit-identical to what
    // its probe saw, so the same generator state draws the same move.
    Architecture& arch = move_arch();
    stage();
    Rng replay;
    replay.set_state(winner_.rng);
    const MoveOutcome outcome =
        generate_move(*tg_, arch, sol_, winner_.config, replay);
    RDSE_ASSERT(outcome.applied && outcome.kind == cand_kind_);
    if (cand_arch_mutated_) cand_arch_stale_ = true;
    if (inc_ && !staged_is_winner) {
      // Re-stage the winner's delta against the committed state so
      // accept() can commit it. The probe already proved feasibility.
      if (staged) inc_->discard();
      const auto m = evaluate_staged(arch);
      RDSE_ASSERT(m.has_value());
    }
  }
  return true;
}

void DseProblem::accept() {
  if (inc_) inc_->commit();
  if (cand_arch_mutated_) {
    arch_ = cand_arch_;  // deep clone, m3/m4 only — see cand_arch_mutated_
    cand_arch_stale_ = false;
    cand_arch_mutated_ = false;
  }
  keep_staged();
  metrics_ = cand_metrics_;
  cost_ = cand_cost_;
  auto& stats = move_stats_[static_cast<std::size_t>(cand_kind_)];
  ++stats.accepted;
  if (mix_) mix_->report(static_cast<std::size_t>(cand_kind_), true);
}

void DseProblem::reject() {
  if (inc_) inc_->discard();
  unstage();
  if (mix_) mix_->report(static_cast<std::size_t>(cand_kind_), false);
}

void DseProblem::snapshot_best() {
  best_arch_ = arch_;
  best_sol_ = sol_;
  best_metrics_ = metrics_;
}

}  // namespace rdse
