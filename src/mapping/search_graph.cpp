#include "mapping/search_graph.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace rdse {

void context_boundary_into(const TaskGraph& tg, const Solution& sol,
                           ResourceId rc, std::size_t ctx,
                           ContextBoundary& out) {
  out.initials.clear();
  out.terminals.clear();
  const auto members = sol.context_tasks(rc, ctx);
  auto in_context = [&](TaskId t) {
    const Placement& p = sol.placement(t);
    return p.resource == rc &&
           p.context == static_cast<std::int32_t>(ctx);
  };
  for (TaskId t : members) {
    bool has_inner_pred = false;
    for (EdgeId e : tg.digraph().in_edges(t)) {
      if (in_context(tg.digraph().edge(e).src)) {
        has_inner_pred = true;
        break;
      }
    }
    if (!has_inner_pred) out.initials.push_back(t);

    bool has_inner_succ = false;
    for (EdgeId e : tg.digraph().out_edges(t)) {
      if (in_context(tg.digraph().edge(e).dst)) {
        has_inner_succ = true;
        break;
      }
    }
    if (!has_inner_succ) out.terminals.push_back(t);
  }
}

ContextBoundary context_boundary(const TaskGraph& tg, const Solution& sol,
                                 ResourceId rc, std::size_t ctx) {
  ContextBoundary b;
  context_boundary_into(tg, sol, rc, ctx, b);
  return b;
}

TimeNs assigned_exec_time(const TaskGraph& tg, const Architecture& arch,
                          const Solution& sol, TaskId t) {
  const Placement& p = sol.placement(t);
  RDSE_REQUIRE(p.assigned(), "assigned_exec_time: task '" + tg.task(t).name +
                                 "' is unassigned");
  const Resource& res = arch.resource(p.resource);
  if (res.kind() == ResourceKind::kProcessor) {
    return static_cast<const Processor&>(res).execution_time(
        tg.task(t).sw_time);
  }
  const auto& impls = tg.task(t).hw;
  RDSE_REQUIRE(p.impl < impls.size(),
               "assigned_exec_time: implementation index out of range");
  return impls.at(p.impl).time;
}

TimeNs comm_edge_weight(const TaskGraph& tg, const Bus& bus,
                        const Solution& sol, EdgeId e) {
  const CommEdge& c = tg.comm(e);
  return co_located(sol, c.src, c.dst) ? 0 : bus.transfer_time(c.bytes);
}

SearchGraph build_search_graph(const TaskGraph& tg, const Architecture& arch,
                               const Solution& sol) {
  SearchGraph sg;
  build_search_graph_into(sg, tg, arch, sol);
  return sg;
}

void build_search_graph_into(SearchGraph& sg, const TaskGraph& tg,
                             const Architecture& arch, const Solution& sol) {
  RDSE_REQUIRE(sol.task_count() == tg.task_count(),
               "build_search_graph: solution/task-graph size mismatch");
  sg.graph = tg.digraph();  // value copy: application edges keep their ids
  sg.release.assign(tg.task_count(), 0);
  sg.init_reconfig = 0;
  sg.dyn_reconfig = 0;
  sg.comm_cross = 0;
  sg.n_contexts = 0;
  sg.clbs_loaded = 0;
  sg.max_context_clbs = 0;

  // --- node weights: execution time on the assigned resource -------------
  sg.node_weight.resize(tg.task_count());
  for (TaskId t = 0; t < tg.task_count(); ++t) {
    sg.node_weight[t] = assigned_exec_time(tg, arch, sol, t);
  }

  // --- application edges: bus time when crossing -------------------------
  const Bus& bus = arch.bus();
  sg.edge_kind.assign(sg.graph.edge_capacity(), SearchEdgeKind::kComm);
  for (EdgeId e = 0; e < tg.comm_count(); ++e) {
    const TimeNs w = comm_edge_weight(tg, bus, sol, e);
    sg.graph.set_edge_weight(e, w);
    sg.comm_cross += w;
  }

  auto add_edge = [&](TaskId src, TaskId dst, TimeNs weight,
                      SearchEdgeKind kind) {
    (void)sg.add_weighted_edge(src, dst, weight, kind);
  };

  // --- Esw: processor total orders ----------------------------------------
  for (ResourceId proc : arch.processor_ids()) {
    const auto order = sol.processor_order(proc);
    for (std::size_t i = 1; i < order.size(); ++i) {
      add_edge(order[i - 1], order[i], 0, SearchEdgeKind::kSwSeq);
    }
  }

  // --- Ehw: context sequentialization + first-context release ------------
  std::vector<ContextBoundary> bounds;
  std::vector<std::int32_t> clbs;
  for (ResourceId rc : arch.reconfigurable_ids()) {
    const std::size_t n_ctx = sol.context_count(rc);
    if (n_ctx == 0) continue;
    const ReconfigurableCircuit& dev = arch.reconfigurable(rc);

    bounds.resize(n_ctx);
    clbs.assign(n_ctx, 0);
    for (std::size_t c = 0; c < n_ctx; ++c) {
      context_boundary_into(tg, sol, rc, c, bounds[c]);
      for (TaskId t : sol.context_tasks(rc, c)) {
        clbs[c] += tg.task(t).hw.at(sol.placement(t).impl).clbs;
      }
      sg.clbs_loaded += clbs[c];
      sg.max_context_clbs = std::max(sg.max_context_clbs, clbs[c]);
    }
    sg.n_contexts += static_cast<int>(n_ctx);

    const TimeNs first_load = dev.reconfiguration_time(clbs[0]);
    sg.init_reconfig += first_load;
    for (TaskId t : bounds[0].initials) {
      sg.release[t] = std::max(sg.release[t], first_load);
    }

    for (std::size_t c = 0; c + 1 < n_ctx; ++c) {
      const TimeNs reconf = dev.reconfiguration_time(clbs[c + 1]);
      sg.dyn_reconfig += reconf;
      for (TaskId from : bounds[c].terminals) {
        for (TaskId to : bounds[c + 1].initials) {
          add_edge(from, to, reconf, SearchEdgeKind::kHwSeq);
        }
      }
    }
  }
}

}  // namespace rdse
