#pragma once
/// \file search_graph.hpp
/// \brief Realization of a solution as the search graph
/// G' = <V, E ∪ Esw ∪ Ehw> of §3.3/§4.3.
///
/// Starting from the application graph, the builder adds
///  - Esw: zero-weight sequentialization edges between consecutive tasks of
///    each processor's total order (black dashed arrows in Fig. 1(b));
///  - Ehw: context sequentialization edges from every terminal node of
///    context Ck to every initial node of context Ck+1, weighted by the
///    partial reconfiguration time tR * nCLB(Ck+1) (white dashed arrows);
///  - a release time tR * nCLB(C1) on the initial nodes of the first
///    context of each RC (the device must be configured before anything
///    runs on it; this is Fig. 3's "initial reconfiguration time").
///
/// Node weights are the execution times on the assigned resources; original
/// edges are weighted with the bus transfer time when they cross resources
/// (or cross contexts within the RC — data is staged through the shared
/// memory), zero otherwise.
///
/// The paper rejects moves whose realization creates a cycle; here a cyclic
/// solution simply fails evaluation (topological sort fails), which the
/// move layer treats as infeasible.

#include <cstdint>
#include <span>
#include <vector>

#include "arch/architecture.hpp"
#include "graph/digraph.hpp"
#include "mapping/solution.hpp"
#include "model/task_graph.hpp"

namespace rdse {

enum class SearchEdgeKind : std::uint8_t {
  kComm,   ///< original application edge
  kSwSeq,  ///< processor total-order edge (Esw)
  kHwSeq,  ///< context sequentialization edge (Ehw)
};

/// G' plus the per-node/per-edge weights needed for longest-path evaluation
/// and the aggregate reconfiguration/communication statistics. Edge weights
/// are first-class Digraph state (dense array + packed half-edge mirrors,
/// see graph/digraph.hpp) — read them via `graph.edge_weight(e)` /
/// `graph.edge_weights()`, write via `graph.set_edge_weight(e, w)`.
struct SearchGraph {
  Digraph graph;
  std::vector<TimeNs> node_weight;       ///< execution time per task
  std::vector<SearchEdgeKind> edge_kind; ///< indexed by EdgeId
  std::vector<TimeNs> release;           ///< earliest start per task

  TimeNs init_reconfig = 0;  ///< sum of first-context loads over all RCs
  TimeNs dyn_reconfig = 0;   ///< sum of inter-context reconfigurations
  TimeNs comm_cross = 0;     ///< summed bus time of crossing transfers

  // Context accounting gathered during realization (the builder computes the
  // per-context CLB sums anyway, so downstream metric fills need not re-walk
  // the solution).
  int n_contexts = 0;                ///< total contexts over all RCs
  std::int32_t clbs_loaded = 0;      ///< CLBs summed over all contexts
  std::int32_t max_context_clbs = 0;

  /// Insert an edge together with its weight/kind, growing the per-edge
  /// kind array as needed (shared by the builder, the incremental
  /// evaluator's surgery and its rollback). The weight travels with the
  /// edge into the graph's packed adjacency.
  EdgeId add_weighted_edge(NodeId src, NodeId dst, TimeNs weight,
                           SearchEdgeKind kind) {
    const EdgeId id = graph.add_edge(src, dst, weight);
    if (id >= edge_kind.size()) {
      edge_kind.resize(id + 1, SearchEdgeKind::kComm);
    }
    edge_kind[id] = kind;
    return id;
  }
};

/// Initial/terminal members of one context w.r.t. the application edges
/// restricted to the context (§3.3).
struct ContextBoundary {
  std::vector<TaskId> initials;   ///< no immediate predecessor inside
  std::vector<TaskId> terminals;  ///< no immediate successor inside
};

/// Compute the boundary of context `ctx` of `rc` under `sol` from the
/// application edges — the reference the Solution's maintained link counts
/// (Solution::append_boundary) must agree with.
[[nodiscard]] ContextBoundary context_boundary(const TaskGraph& tg,
                                               const Solution& sol,
                                               ResourceId rc,
                                               std::size_t ctx);

/// Same, writing into `out` (inner storage is reused across calls).
void context_boundary_into(const TaskGraph& tg, const Solution& sol,
                           ResourceId rc, std::size_t ctx,
                           ContextBoundary& out);

/// Execution time of task `t` on its assigned resource — the single
/// definition shared by the builder and the incremental evaluator (their
/// bit-identity depends on it). Requires the task to be assigned.
[[nodiscard]] TimeNs assigned_exec_time(const TaskGraph& tg,
                                        const Architecture& arch,
                                        const Solution& sol, TaskId t);

/// True when two tasks share a placement (same resource and context) — the
/// single definition of "no bus transfer needed", shared by the builder's
/// comm_edge_weight and the incremental evaluator's memoized-bus fast path.
[[nodiscard]] inline bool co_located(const Solution& sol, TaskId a,
                                     TaskId b) {
  const Placement& pa = sol.placement(a);
  const Placement& pb = sol.placement(b);
  return pa.resource == pb.resource && pa.context == pb.context;
}

/// Weight of application edge `e` under `sol`: the bus transfer time iff
/// the endpoints are not co-located (same resource and context).
[[nodiscard]] TimeNs comm_edge_weight(const TaskGraph& tg, const Bus& bus,
                                      const Solution& sol, EdgeId e);

/// Build the weighted search graph for a structurally complete solution
/// (every task assigned; impl indices valid). Does not check acyclicity.
[[nodiscard]] SearchGraph build_search_graph(const TaskGraph& tg,
                                             const Architecture& arch,
                                             const Solution& sol);

/// Same, building into `sg` with storage reuse. This is the reference
/// realization: context boundaries and CLB sums are derived from the task
/// graph, never read from the Solution's maintained mirrors.
void build_search_graph_into(SearchGraph& sg, const TaskGraph& tg,
                             const Architecture& arch, const Solution& sol);

}  // namespace rdse
