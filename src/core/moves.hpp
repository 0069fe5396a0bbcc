#pragma once
/// \file moves.hpp
/// \brief The move classes of §4.2/§4.3 and their realization.
///
/// A move is defined by randomly selecting a source task vs and a
/// destination task vd (indices drawn in [0, N]; 0 stands for "no task" and
/// triggers the architecture-exploration moves):
///
///  - m1 (kReorderSw): same resource, resource is a processor — modify the
///    total execution order (vs is repositioned next to vd); on an ASIC or
///    RC context the draw is a null move.
///  - m2 (kReassign): different resources — vs joins vd's resource; if the
///    destination is an RC context whose remaining capacity cannot hold vs,
///    a new context is spawned right after it.
///  - m3 (kRemoveResource): source index 0 and some resource holds a single
///    task — the resource is removed, its task joins vd's resource.
///  - m4 (kCreateResource): destination index 0 — a new resource is created
///    and vs moves there.
///
/// Two additional classes exercise the remaining §5 degrees of freedom:
///  - kChangeImpl: pick a different synthesized implementation for a
///    hardware task (§5: "SA chooses for each node implemented in hardware
///    one of its implementations");
///  - kReorderContexts: swap two adjacent contexts of an RC (temporal
///    re-sequencing beyond what reassignments reach).
///
/// Moves mutate a Solution in place (the annealer stages them on its
/// committed solution under the Solution's undo log) and, for m3/m4, a
/// candidate Architecture; feasibility (graph acyclicity) is judged
/// afterwards by evaluation, per §4.3 "a move will not be performed if a
/// cycle appears" — a refused move is rolled back.

#include <cstdint>
#include <optional>
#include <string>

#include "arch/architecture.hpp"
#include "mapping/solution.hpp"
#include "model/task_graph.hpp"
#include "util/rng.hpp"

namespace rdse {

enum class MoveKind : std::uint8_t {
  kReorderSw = 0,        // m1
  kReassign = 1,         // m2
  kRemoveResource = 2,   // m3
  kCreateResource = 3,   // m4
  kChangeImpl = 4,
  kReorderContexts = 5,
};
constexpr std::size_t kMoveKindCount = 6;

[[nodiscard]] const char* to_string(MoveKind kind);

/// Configuration of the move generator.
struct MoveConfig {
  /// Probability that the §4.2 draw selects index 0 (architecture moves).
  /// "In this paper, the architecture comprises one processor and one DRLC,
  /// hence the probability of generating a 0 is set to 0."
  double p_zero = 0.0;
  /// Probability of drawing an implementation-selection move.
  double p_change_impl = 0.15;
  /// Probability of drawing a context-reorder move.
  double p_reorder_contexts = 0.05;
  /// Ergodicity patch (documented deviation): probability that a reassign
  /// targets a random *resource* (random position / random-or-new context)
  /// instead of a destination task. The paper's task-addressed destinations
  /// cannot reach an empty resource, so a search that ever empties the FPGA
  /// could never repopulate it.
  double p_resource_target = 0.10;
  /// Disable individual classes (ablation).
  bool enable_reorder_sw = true;
  bool enable_reassign = true;
};

/// Outcome of one generation attempt.
struct MoveOutcome {
  MoveKind kind = MoveKind::kReassign;
  bool applied = false;  ///< false: the draw was null (§4.2 m1-on-ASIC etc.)
};

/// Draw and realize one move on the candidate state. Returns the outcome;
/// when `applied` is false the candidate is untouched. The caller evaluates
/// the candidate afterwards and rejects it if the realized search graph is
/// cyclic or a capacity bound broke.
[[nodiscard]] MoveOutcome generate_move(const TaskGraph& tg,
                                        Architecture& arch, Solution& sol,
                                        const MoveConfig& config, Rng& rng);

/// Individual realizations (also used directly by tests). Each returns
/// false — leaving the state untouched — when its preconditions do not hold.
[[nodiscard]] bool apply_reorder_sw(const TaskGraph& tg,
                                    const Architecture& arch, Solution& sol,
                                    TaskId vs, TaskId vd, bool after,
                                    Rng& rng);
[[nodiscard]] bool apply_reassign(const TaskGraph& tg,
                                  const Architecture& arch, Solution& sol,
                                  TaskId vs, TaskId vd, Rng& rng);
/// Reassign vs onto an explicit resource: random order position on a
/// processor; a random existing context, or a fresh one appended at the
/// tail, on an RC (the ergodicity patch — see MoveConfig::p_resource_target).
[[nodiscard]] bool apply_reassign_to_resource(const TaskGraph& tg,
                                              const Architecture& arch,
                                              Solution& sol, TaskId vs,
                                              ResourceId target, Rng& rng);
[[nodiscard]] bool apply_change_impl(const TaskGraph& tg,
                                     const Architecture& arch, Solution& sol,
                                     TaskId vs, Rng& rng);
[[nodiscard]] bool apply_reorder_contexts(const Architecture& arch,
                                          Solution& sol, Rng& rng);
[[nodiscard]] bool apply_remove_resource(const TaskGraph& tg,
                                         Architecture& arch, Solution& sol,
                                         TaskId vd, Rng& rng);
[[nodiscard]] bool apply_create_resource(const TaskGraph& tg,
                                         Architecture& arch, Solution& sol,
                                         TaskId vs, Rng& rng);

}  // namespace rdse
