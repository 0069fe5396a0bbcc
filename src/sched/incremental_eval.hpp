#pragma once
/// \file incremental_eval.hpp
/// \brief Incremental candidate evaluation for the annealing hot path.
///
/// DseProblem::propose historically realized and re-relaxed the whole search
/// graph for every move. This evaluator instead keeps the committed
/// realization resident and applies each move as a *delta*, in three steps
/// behind a pre-gate:
///
///  0. **pre-gate** — a touched task on a reconfigurable circuit whose
///     application predecessor sits on the same RC in a later context, or
///     whose successor sits there in an earlier one, closes a cycle (§4.3):
///     every task of a context reaches a terminal of it, the Ehw biclique
///     links those terminals to the next context's initials, and every task
///     of that context is reached from one of them — so each context
///     reaches every later one, and an application edge pointing back
///     closes the loop. Checked in O(degree of the touched tasks) from the
///     candidate placements alone, the rule refuses about half of the
///     Fig. 3 workload's cyclic probes before any plan is read;
///  1. **plan** — read each touched resource's candidate chain without
///     writing G'. A processor's is its total order, diffed against the
///     committed chain by a two-pointer scan (common prefix/suffix), so a
///     local reorder names an O(window) edit, not O(chain). Reconfigurable
///     circuits are planned context by context: the candidate's
///     context-edit journal (Solution::context_edits) names the runs of
///     contexts the move rewrote, and only the Ehw segments around those
///     runs are re-planned — changed contexts' initials/terminals from the
///     Solution's maintained link counts, the unchanged neighbours' read
///     back from the committed segments;
///  2. **gate** — decide whether the candidate G' is acyclic (§4.3) from
///     the committed ranks (DeltaRelaxer::gate): the plan's edit is
///     described as the committed edges it drops plus the chains it adds
///     (an Ehw segment as one terminals x initials biclique), and only a
///     descending chain triggers a Pearce–Kelly search of its rank window.
///     A cyclic candidate the pre-gate let through — a cycle through a
///     processor order, another resource or a context swap — is refused
///     here, having written nothing: no staging, no surgery, no
///     accounting, no rollback;
///  3. **apply** — only for an acyclic candidate: G' is edited in place —
///     node weights and communication-edge weights of the moved tasks, the
///     planned chain windows (edges outside them, and the window's own
///     common prefix/suffix, stay put), first-context releases and the
///     context accounting (n_contexts, clbs_loaded, max_context_clbs,
///     init/dynamic reconfiguration, updated from the runs' deltas, never
///     re-summed over an RC's other contexts) — and only the affected
///     region is re-relaxed (DeltaRelaxer::relax, on the ranks the gate
///     repaired), seeded with exactly the nodes whose local inputs changed.
///     A rejected candidate is rolled back from an undo log instead of
///     rebuilding; an accepted one commits in O(1).
///
/// All scratch storage is pooled, so steady-state proposals allocate
/// nothing. Results are bit-identical to Evaluator::evaluate, which derives
/// everything from the task graph (property-tested on random graphs and at
/// the Fig. 3 device sizes x random move sequences).

#include <optional>
#include <span>
#include <vector>

#include "mapping/search_graph.hpp"
#include "sched/evaluator.hpp"
#include "sched/incremental.hpp"

namespace rdse {

/// Counters for benchmarks and tests.
struct IncrementalEvalStats {
  DeltaRelaxStats relax;
  std::int64_t builds = 0;  ///< candidates evaluated (feasible or cyclic)
  /// Cyclic candidates refused before any write to G' (every cyclic
  /// candidate is; relax.cyclic counts the same probes).
  std::int64_t cyclic_unstaged = 0;
  /// The part of cyclic_unstaged the precedence pre-gate refused — a
  /// context-order violation at a touched task — before any plan or rank
  /// search; the rest were refused by the gate.
  std::int64_t precedence_refused = 0;
  /// Touched reconfigurable circuits realized (one per RC per candidate).
  std::int64_t rc_probes = 0;
  /// Per realized RC, its contexts split into those whose boundary was left
  /// as committed (reused) and those whose initials/terminals were re-read
  /// because an edited run of contexts needed them (computed);
  /// bounds_computed / rc_probes is the contexts re-derived per RC probe.
  std::int64_t bounds_reused = 0;
  std::int64_t bounds_computed = 0;
  /// The same contexts split by CLB sum: served by the Solution's mirror
  /// (reused) or re-summed over the members of a cold context (computed).
  std::int64_t clbs_reused = 0;
  std::int64_t clbs_computed = 0;
  /// Per-resource chain edits applied (touched resources of acyclic
  /// candidates).
  std::int64_t reconciles = 0;
  /// Chain edges of acyclic candidates matched by the two-pointer
  /// prefix/suffix diff (left in place, seeding no relaxation) vs. torn
  /// down / inserted inside the differing window. kept / (kept + removed)
  /// is the diff hit rate.
  std::int64_t seq_edges_kept = 0;
  std::int64_t seq_edges_removed = 0;
  std::int64_t seq_edges_added = 0;
  /// Chain edges whose endpoints survived but whose weight changed —
  /// re-weighted in place (counted inside seq_edges_kept) instead of a
  /// remove + insert pair, so they never enter the gate or rank repair.
  std::int64_t seq_edges_reweighted = 0;
  /// Opt-in micro-profile (set_profile(true)): cumulative wall time per
  /// evaluation phase, in nanoseconds. All zero while profiling is off —
  /// the headline timings never pay for the clock reads.
  std::int64_t profile_stage_ns = 0;  ///< apply: moved-task staging
  /// Plan (chain reads, processor diffs, RC boundaries) and apply's chain
  /// surgery.
  std::int64_t profile_reconcile_ns = 0;
  std::int64_t profile_context_ns = 0;  ///< apply: RC context accounting
  /// Gate (acyclicity and rank repair) and apply's delta relaxation.
  std::int64_t profile_relax_ns = 0;
  /// discard() of a staged candidate (a cyclic one has nothing to undo).
  std::int64_t profile_rollback_ns = 0;
};

/// Stateful evaluator bound to one task graph; the architecture and solution
/// are supplied per call because architecture moves (m3/m4) mutate them.
class IncrementalEvaluator {
 public:
  explicit IncrementalEvaluator(const TaskGraph& tg) : tg_(&tg) {}

  /// Re-synchronize with the committed state (initial solution, or after an
  /// external replacement such as replica exchange). The state must be
  /// feasible.
  void reset(const Architecture& arch, const Solution& sol);

  /// Evaluate a candidate derived from the committed state by one move.
  /// `touched_resources` / `touched_tasks` are the move's mutation journal
  /// (Solution::touched_resources() / touched_tasks()); the runs of RC
  /// contexts it rewrote are read from cand_sol.context_edits(). Like the
  /// touched lists, that journal must span every mutation since the
  /// committed state. Returns std::nullopt when the realized search graph
  /// would be cyclic (the move is infeasible, §4.3) — decided before
  /// anything is written, so the committed state is untouched.
  [[nodiscard]] std::optional<Metrics> evaluate_candidate(
      const Architecture& cand_arch, const Solution& cand_sol,
      std::span<const ResourceId> touched_resources,
      std::span<const TaskId> touched_tasks);

  /// Adopt the last successful candidate as the committed state.
  void commit();

  /// Roll the last successful candidate back (undo log).
  void discard();

  [[nodiscard]] IncrementalEvalStats stats() const;

  /// Toggle the per-phase micro-profile. Off by default: the phase timers
  /// cost two clock reads per phase per evaluation, which is real money on
  /// the hot path, so benches enable it only for a dedicated profiled pass.
  void set_profile(bool on) { profile_ = on; }

  /// The maintained realization: the committed graph, or the staged
  /// candidate between a successful evaluate_candidate() and its
  /// commit()/discard(). Exposed for tests and debugging.
  [[nodiscard]] const SearchGraph& search_graph() const { return sg_; }
  /// Sequentialization edge ids of resource `r`, in chain order (empty for
  /// a resource without a chain). Exposed for tests.
  [[nodiscard]] std::span<const EdgeId> chain(ResourceId r) const {
    return r < seq_edges_.size() ? std::span<const EdgeId>(seq_edges_[r])
                                 : std::span<const EdgeId>();
  }
  /// The relaxer (journals, ranks, counters). Exposed for tests.
  [[nodiscard]] const DeltaRelaxer& relaxer() const { return relaxer_; }

 private:
  struct DesiredEdge {
    NodeId src;
    NodeId dst;
    TimeNs weight;
    SearchEdgeKind kind;
  };

  /// How a live chain edge relates to a desired chain position.
  enum class ChainMatch : std::uint8_t {
    kMismatch,    ///< structurally different: window surgery required
    kExact,       ///< identical, leave in place
    kWeightOnly,  ///< same endpoints/kind, new weight: patch in place
  };

  /// An RC's context accounting (also saved whole for rollback).
  struct RcTotals {
    std::int32_t contexts = 0;
    std::int32_t clbs = 0;        ///< summed over the contexts
    std::int32_t first_clbs = 0;  ///< context 0
    std::int32_t max_clbs = 0;    ///< largest context
    TimeNs tr = 0;                ///< reconfiguration time per CLB
  };
  /// Committed realization state of one reconfigurable circuit, in step
  /// with the search graph: enough to splice an edited run of contexts
  /// (Solution::ContextEdit) into the Ehw chain and the context accounting
  /// without revisiting the RC's other contexts.
  struct RcState : RcTotals {
    /// Ehw edges per pair of consecutive contexts (contexts - 1 entries):
    /// the chain list of the RC is these segments, in order.
    std::vector<std::uint32_t> seg_len;
    /// Chain-list offset of segment k.
    [[nodiscard]] std::size_t offset(std::int32_t k) const {
      std::size_t off = 0;
      for (std::int32_t j = 0; j < k; ++j) off += seg_len[j];
      return off;
    }
    /// Initials of context 0 — the tasks released at the first load.
    std::vector<TaskId> first_initials;
  };
  struct RcTotalsUndo {
    ResourceId rc;
    RcTotals totals;
  };
  /// One touched RC of the candidate: its resolved edit runs
  /// (edits_[edits_begin, edits_end)), context counts and the plan of its
  /// first-context releases.
  struct RcWork {
    ResourceId rc;
    std::uint32_t edits_begin;
    std::uint32_t edits_end;
    std::int32_t n_old;
    std::int32_t n_new;
    TimeNs tr;
    bool first_changed;    ///< a run starts at context 0
    bool first_rederived;  ///< context 0's initials are plan_nodes_[first_*)
    std::uint32_t first_begin;
    std::uint32_t first_end;
    TimeNs first_load;          ///< candidate load time of context 0
    std::uint32_t window_edges;  ///< committed chain edges inside the runs
  };
  /// Per edit run (parallel to edits_): the committed chain-list window
  /// [first, last) and segment window [ko_lo, ko_hi) it replaces, and its
  /// planned segments (segments_[seg_begin, seg_end)). Weight-only runs
  /// plan no segments.
  struct RunPlan {
    std::uint32_t first;
    std::uint32_t last;
    std::int32_t ko_lo;
    std::int32_t ko_hi;
    std::uint32_t seg_begin;
    std::uint32_t seg_end;
  };
  /// One planned Ehw segment: every task of plan_nodes_[from_begin,
  /// from_end) (a context's terminals) to every task of [to_begin, to_end)
  /// (the next context's initials), at the next context's reconfiguration
  /// time.
  struct SegmentPlan {
    std::uint32_t from_begin;
    std::uint32_t from_end;
    std::uint32_t to_begin;
    std::uint32_t to_end;
    TimeNs weight;
  };
  /// The edit of a chain's window [first, last): the leading / trailing
  /// edges that the desired chain keeps in place.
  struct ChainWindow {
    std::size_t prefix = 0;
    std::size_t suffix = 0;
  };
  /// How apply edits one touched resource's chain.
  enum class PlanKind : std::uint8_t {
    kProcessor,  ///< `window` of the total-order diff
    kRc,         ///< rc_work_[rc_work]'s planned runs
    kTeardown,   ///< an ASIC or a removed processor: no chain
  };
  struct ResourcePlan {
    ResourceId res;
    PlanKind kind;
    ChainWindow window;
    std::uint32_t rc_work;
  };
  /// A processor's desired chain, implied by its total order: edge k runs
  /// order[k] -> order[k+1], always weight 0 / kSwSeq.
  struct OrderDesired {
    const IncrementalEvaluator* self;
    std::span<const TaskId> order;
    [[nodiscard]] std::size_t size() const {
      return order.empty() ? 0 : order.size() - 1;
    }
    [[nodiscard]] ChainMatch classify(EdgeId id, std::size_t k) const;
    [[nodiscard]] DesiredEdge get(std::size_t k) const {
      return {order[k], order[k + 1], 0, SearchEdgeKind::kSwSeq};
    }
  };

  /// The pre-gate: does a touched task sit on an RC in a context after one
  /// of its application successors there, or before one of its
  /// predecessors? Reads the candidate placements only.
  [[nodiscard]] bool violates_context_order(
      const Solution& cand_sol, std::span<const TaskId> touched_tasks) const;
  void stage_node_weight(NodeId v, TimeNs w);
  void stage_comm_weight(EdgeId e, TimeNs w);
  /// Re-weight a surviving sequentialization edge in place (undo-logged;
  /// does not touch comm_cross).
  void stage_seq_weight(EdgeId e, TimeNs w);
  void stage_release(NodeId v, TimeNs r);
  /// Record a release in release_pending_ (last write per task wins); the
  /// coalesced values are staged in one pass so a clear-then-reset to the
  /// committed value stages nothing and seeds no relaxation.
  void stage_release_pending(NodeId v, TimeNs r);
  /// Two-pointer diff of the window [first, last) of chain `list` against
  /// `desired`: the window's common prefix and suffix with the desired
  /// edges. `Desired` describes the target window (length, per-position
  /// equality against a live edge, materialization for inserts); a
  /// weight-only match is re-weighted in place, which the processor chains
  /// diffed by the plan never need.
  template <typename Desired>
  [[nodiscard]] ChainWindow diff_chain(std::span<const EdgeId> list,
                                       const Desired& desired,
                                       std::size_t first, std::size_t last);
  /// Replace the window [first, last) of resource `r`'s chain by `desired`
  /// through a diffed `window`: its prefix and suffix stay untouched (and
  /// seed no relaxation); only the edges in between are torn down and
  /// re-inserted.
  template <typename Desired>
  void splice_chain(ResourceId r, const Desired& desired, std::size_t first,
                    std::size_t last, ChainWindow window);
  /// diff_chain + splice_chain of a window against the materialized
  /// `desired_`.
  void reconcile_window(ResourceId r, std::size_t first, std::size_t last);
  /// Plan for a touched RC: resolve the candidate's edit runs against the
  /// committed state and derive each membership-changed run's window and
  /// segments (rc_work_, runs_, segments_, plan_nodes_). Reads G' and the
  /// committed RC state only.
  void plan_rc(ResourceId r, const Architecture& cand_arch,
               const Solution& cand_sol);
  /// Apply for a touched RC: patch or splice each run's Ehw segments and
  /// restage the first-context releases when context 0 changed.
  void apply_rc(const RcWork& w, const Solution& cand_sol);
  /// Apply for a touched RC: context accounting from the runs' deltas.
  void account_rc(const RcWork& w, const Solution& cand_sol);
  /// CLB sum of a candidate context, warming it (and counting the re-sum)
  /// when it is cold.
  std::int32_t context_clbs(const Solution& sol, ResourceId rc,
                            std::size_t ctx);
  /// The (possibly empty) edge-id chain of `r`, grown on demand — resource
  /// ids are dense and never reused, so a flat vector replaces a map on the
  /// hot path.
  [[nodiscard]] std::vector<EdgeId>& seq_list(ResourceId r);
  [[nodiscard]] RcState& rc_state(ResourceId r);
  /// Committed RC state of `r` without growing rc_ (the plan's reads).
  [[nodiscard]] const RcState& committed_rc(ResourceId r) const;
  void rollback();

  const TaskGraph* tg_ = nullptr;
  SearchGraph sg_;  ///< committed realization, surgically edited per move
  DeltaRelaxer relaxer_;
  /// Bus transfer time per application edge, memoized at reset: the data
  /// amount and the bus rate are move-invariant (no move operator edits the
  /// bus), so the hot path never repeats the wide division in
  /// Bus::transfer_time. comm_edge_weight(e) == placements crossing ?
  /// bus_time_[e] : 0 by construction.
  std::vector<TimeNs> bus_time_;
  /// Esw/Ehw edge ids per owning resource, indexed by ResourceId, each list
  /// in chain order (Esw: the processor's total order; Ehw: context by
  /// context). Chain order is what makes the two-pointer diff local.
  std::vector<std::vector<EdgeId>> seq_edges_;
  /// Per-RC committed state, indexed by ResourceId (empty for other kinds).
  std::vector<RcState> rc_;

  // ---- per-candidate scratch and undo log --------------------------------
  std::vector<NodeId> seeds_;
  struct RemovedSeqEdge {
    NodeId src;
    NodeId dst;
    TimeNs weight;
    SearchEdgeKind kind;
  };
  std::vector<RemovedSeqEdge> removed_seq_;
  std::vector<EdgeId> added_ids_;  ///< edges inserted by reconciles, in order
  /// One record per reconcile that changed anything: the splice window and
  /// the ranges into removed_seq_ / added_ids_ it produced, so rollback can
  /// restore the exact chain (prefix + re-added window + suffix).
  struct ReconcileUndo {
    ResourceId res;
    std::uint32_t prefix;
    std::uint32_t suffix;
    std::uint32_t removed_begin;
    std::uint32_t removed_end;
    std::uint32_t added_begin;
    std::uint32_t added_end;
  };
  std::vector<ReconcileUndo> reconcile_undo_;
  std::vector<DesiredEdge> desired_;  ///< reconciliation scratch
  std::vector<EdgeId> splice_;        ///< rollback: re-added window ids
  struct EdgeUndo {
    EdgeId edge;
    TimeNs weight;
  };
  std::vector<EdgeUndo> comm_undo_;
  struct NodeUndo {
    NodeId node;
    TimeNs value;
  };
  std::vector<NodeUndo> node_weight_undo_;
  std::vector<NodeUndo> release_undo_;
  std::vector<NodeUndo> release_pending_;  ///< coalesced release writes
  std::vector<NodeUndo> release_sets_;     ///< new first-context releases
  /// Resources removed by the staged move (m3): their chain lists and RC
  /// state are dropped on commit so footprint stays bounded over long
  /// create/remove churn (resource ids are never reused).
  std::vector<ResourceId> dead_resources_;
  // Plan: one record per touched resource; for RCs the resolved edit runs,
  // their windows and segments, and the context boundaries they read.
  std::vector<ResourcePlan> plans_;
  std::vector<Solution::ContextEdit> edits_;
  std::vector<RunPlan> runs_;
  std::vector<RcWork> rc_work_;
  std::vector<SegmentPlan> segments_;
  std::vector<TaskId> plan_nodes_;
  std::vector<std::uint32_t> new_seg_len_;
  // RC undo: saved totals, and splices of seg_len / first_initials whose
  // displaced values sit in the *_saved_ pools.
  std::vector<RcTotalsUndo> rc_undo_;
  struct SegUndo {
    ResourceId rc;
    std::uint32_t pos;
    std::uint32_t n_new;
    std::uint32_t saved_begin;
    std::uint32_t saved_end;
  };
  std::vector<SegUndo> seg_undo_;
  std::vector<std::uint32_t> seg_saved_;
  struct FirstUndo {
    ResourceId rc;
    std::uint32_t saved_begin;
    std::uint32_t saved_end;
  };
  std::vector<FirstUndo> first_undo_;
  std::vector<TaskId> first_saved_;
  struct ScalarSnapshot {
    TimeNs init_reconfig;
    TimeNs dyn_reconfig;
    TimeNs comm_cross;
    int n_contexts;
    std::int32_t clbs_loaded;
    std::int32_t max_context_clbs;
    TimeNs sw_busy;
    TimeNs hw_busy;
    int sw_tasks;
    int hw_tasks;
  };
  ScalarSnapshot snap_{};

  // Task-partition sums, maintained as deltas over the moved tasks instead
  // of an O(tasks) walk per evaluation.
  std::vector<std::uint8_t> task_on_proc_;
  std::vector<std::pair<TaskId, std::uint8_t>> side_undo_;
  TimeNs sw_busy_ = 0;
  TimeNs hw_busy_ = 0;
  int sw_tasks_ = 0;
  int hw_tasks_ = 0;

  std::int64_t builds_ = 0;
  std::int64_t cyclic_unstaged_ = 0;
  std::int64_t precedence_refused_ = 0;
  std::int64_t reconciles_ = 0;
  std::int64_t rc_probes_ = 0;
  std::int64_t bounds_reused_ = 0;
  std::int64_t bounds_computed_ = 0;
  std::int64_t clbs_reused_ = 0;
  std::int64_t clbs_computed_ = 0;
  bool profile_ = false;
  std::int64_t prof_stage_ns_ = 0;
  std::int64_t prof_reconcile_ns_ = 0;
  std::int64_t prof_context_ns_ = 0;
  std::int64_t prof_relax_ns_ = 0;
  std::int64_t prof_rollback_ns_ = 0;
  std::int64_t seq_kept_ = 0;
  std::int64_t seq_removed_ = 0;
  std::int64_t seq_added_ = 0;
  std::int64_t seq_reweighted_ = 0;
  bool max_rescan_ = false;  ///< accounting: a touched RC gave up the max
  bool pending_ = false;
};

}  // namespace rdse
