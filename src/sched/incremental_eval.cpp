#include "sched/incremental_eval.hpp"

#include <algorithm>
#include <chrono>

#include "graph/topo.hpp"
#include "util/assert.hpp"

namespace rdse {

namespace {

/// Replace v[pos, pos + n_old) by [first, last) in place, shifting the tail
/// only by the difference in length (a same-length window is a plain copy).
template <typename T, typename It>
void splice(std::vector<T>& v, std::size_t pos, std::size_t n_old, It first,
            It last) {
  const auto n_new = static_cast<std::size_t>(last - first);
  const auto at = v.begin() + static_cast<std::ptrdiff_t>(pos);
  if (n_new > n_old) {
    v.insert(at + static_cast<std::ptrdiff_t>(n_old),
             first + static_cast<std::ptrdiff_t>(n_old), last);
    last = first + static_cast<std::ptrdiff_t>(n_old);
  } else if (n_new < n_old) {
    v.erase(at + static_cast<std::ptrdiff_t>(n_new),
            at + static_cast<std::ptrdiff_t>(n_old));
  }
  std::copy(first, last, v.begin() + static_cast<std::ptrdiff_t>(pos));
}

}  // namespace

void IncrementalEvaluator::reset(const Architecture& arch,
                                 const Solution& sol) {
  build_search_graph_into(sg_, *tg_, arch, sol);
  RDSE_REQUIRE(is_acyclic(sg_.graph),
               "IncrementalEvaluator::reset: committed state is infeasible");
  const WeightedDag dag{&sg_.graph, sg_.node_weight,
                        sg_.graph.edge_weights(), sg_.release};
  relaxer_.reset(dag);

  // Per-RC state: CLB accounting and the first context's initials, read
  // off the Solution's mirrors (warming any cold context).
  for (RcState& st : rc_) {
    st.seg_len.clear();
    st.first_initials.clear();
    static_cast<RcTotals&>(st) = RcTotals{};
  }
  for (ResourceId rc : arch.reconfigurable_ids()) {
    RcState& st = rc_state(rc);
    st.tr = arch.reconfigurable(rc).tr_per_clb();
    st.contexts = static_cast<std::int32_t>(sol.context_count(rc));
    for (std::size_t c = 0; c < sol.context_count(rc); ++c) {
      const std::int32_t clbs = sol.context_clbs(*tg_, rc, c);
      st.clbs += clbs;
      st.max_clbs = std::max(st.max_clbs, clbs);
    }
    if (st.contexts > 0) {
      st.first_clbs = sol.context_clbs_cached(rc, 0);
      sol.append_boundary(rc, 0, false, st.first_initials);
      st.seg_len.assign(static_cast<std::size_t>(st.contexts - 1), 0);
    }
  }

  // Index the sequentialization edges by owning resource: an Esw edge
  // belongs to its source's processor, an Ehw edge to its source's RC (and
  // to the segment after its source's context). The builder inserts each
  // resource's edges in chain order with ascending ids, so this id-ordered
  // scan reproduces chain order per list — the invariant the two-pointer
  // reconciliation diff relies on.
  for (auto& list : seq_edges_) list.clear();
  if (seq_edges_.size() < arch.slot_count()) {
    seq_edges_.resize(arch.slot_count());
  }
  for (EdgeId e = 0; e < sg_.graph.edge_capacity(); ++e) {
    if (!sg_.graph.edge_alive(e)) continue;
    if (sg_.edge_kind[e] == SearchEdgeKind::kComm) continue;
    const Placement& p = sol.placement(sg_.graph.edge(e).src);
    seq_list(p.resource).push_back(e);
    if (sg_.edge_kind[e] == SearchEdgeKind::kHwSeq) {
      ++rc_[p.resource].seg_len[static_cast<std::size_t>(p.context)];
    }
  }

  // Per-edge bus transfer times (data amounts and the bus rate never change
  // under moves — only placements do).
  bus_time_.resize(tg_->comm_count());
  for (EdgeId e = 0; e < tg_->comm_count(); ++e) {
    bus_time_[e] = arch.bus().transfer_time(tg_->comm(e).bytes);
  }

  // Task-partition sums (maintained as deltas from here on).
  task_on_proc_.assign(tg_->task_count(), 0);
  sw_busy_ = hw_busy_ = 0;
  sw_tasks_ = hw_tasks_ = 0;
  for (TaskId t = 0; t < tg_->task_count(); ++t) {
    const bool on_proc = arch.resource(sol.placement(t).resource).kind() ==
                         ResourceKind::kProcessor;
    task_on_proc_[t] = on_proc ? 1 : 0;
    if (on_proc) {
      ++sw_tasks_;
      sw_busy_ += sg_.node_weight[t];
    } else {
      ++hw_tasks_;
      hw_busy_ += sg_.node_weight[t];
    }
  }
  pending_ = false;
}

bool IncrementalEvaluator::violates_context_order(
    const Solution& cand_sol, std::span<const TaskId> touched_tasks) const {
  // Every context of an RC reaches every later one in G' (see the file
  // comment; no move leaves a context empty, so the Ehw chain has no gap),
  // and an application edge from a later context to an earlier one closes
  // a cycle. Tasks off the RC (context -1) have no order to violate; a
  // neighbour on the same RC always has a context.
  const Digraph& g = tg_->digraph();
  for (TaskId t : touched_tasks) {
    const Placement& p = cand_sol.placement(t);
    if (p.context < 0) continue;
    for (const HalfEdge& h : g.in_half(t)) {
      const Placement& q = cand_sol.placement(h.node);
      if (q.resource == p.resource && q.context > p.context) return true;
    }
    for (const HalfEdge& h : g.out_half(t)) {
      const Placement& q = cand_sol.placement(h.node);
      if (q.resource == p.resource && q.context < p.context) return true;
    }
  }
  return false;
}

void IncrementalEvaluator::stage_node_weight(NodeId v, TimeNs w) {
  if (sg_.node_weight[v] == w) return;
  node_weight_undo_.push_back({v, sg_.node_weight[v]});
  sg_.node_weight[v] = w;
  seeds_.push_back(v);
}

void IncrementalEvaluator::stage_comm_weight(EdgeId e, TimeNs w) {
  const TimeNs old = sg_.graph.edge_weight(e);
  if (old == w) return;
  comm_undo_.push_back({e, old});
  sg_.comm_cross += w - old;
  sg_.graph.set_edge_weight(e, w);
  seeds_.push_back(sg_.graph.edge(e).dst);
}

void IncrementalEvaluator::stage_release(NodeId v, TimeNs r) {
  if (sg_.release[v] == r) return;
  release_undo_.push_back({v, sg_.release[v]});
  sg_.release[v] = r;
  seeds_.push_back(v);
}

void IncrementalEvaluator::stage_release_pending(NodeId v, TimeNs r) {
  for (NodeUndo& p : release_pending_) {
    if (p.node == v) {
      p.value = r;
      return;
    }
  }
  release_pending_.push_back({v, r});
}

std::vector<EdgeId>& IncrementalEvaluator::seq_list(ResourceId r) {
  if (r >= seq_edges_.size()) {
    seq_edges_.resize(static_cast<std::size_t>(r) + 1);
  }
  return seq_edges_[r];
}

IncrementalEvaluator::RcState& IncrementalEvaluator::rc_state(ResourceId r) {
  if (r >= rc_.size()) rc_.resize(static_cast<std::size_t>(r) + 1);
  return rc_[r];
}

const IncrementalEvaluator::RcState& IncrementalEvaluator::committed_rc(
    ResourceId r) const {
  static const RcState kNoContexts{};
  return r < rc_.size() ? rc_[r] : kNoContexts;
}

// The two-pointer chain diff, generic over how the desired chain is
// described: `Desired` supplies the target length, a classification of a
// live chain edge against a position, and the materialized record for
// positions inside the differing window. The processor fast path streams
// the desired chain straight out of the solution's flat order array (no
// DesiredEdge vector is built, and a position match is two id compares);
// RC context chains materialize only the segments around an edited run of
// contexts into desired_, whose entries carry per-edge reconfiguration
// weights, and diff them against that run's window of the chain.
//
// Classification is three-way: an edge whose endpoints and kind match but
// whose weight differs (the common case when a context's reconfiguration
// time changed under an implementation move) is *re-weighted in place*
// instead of torn down and re-inserted — it stays out of the edit, so it
// can neither violate the committed ranks nor trigger a Pearce-Kelly
// repair, and the graph sees no structural churn at all.
template <typename Desired>
IncrementalEvaluator::ChainWindow IncrementalEvaluator::diff_chain(
    std::span<const EdgeId> list, const Desired& desired, std::size_t first,
    std::size_t last) {
  const std::size_t n_old = last - first;
  const std::size_t n_new = desired.size();

  // Both chains run in chain order, so a local move leaves a common prefix
  // and suffix, and only the window in between needs surgery. Weight-only
  // differences extend the structural prefix / suffix (patched in place
  // under the weight undo log).
  ChainWindow w;
  while (w.prefix < n_old && w.prefix < n_new) {
    const ChainMatch m = desired.classify(list[first + w.prefix], w.prefix);
    if (m == ChainMatch::kMismatch) break;
    if (m == ChainMatch::kWeightOnly) {
      stage_seq_weight(list[first + w.prefix], desired.get(w.prefix).weight);
    }
    ++w.prefix;
  }
  while (w.suffix < n_old - w.prefix && w.suffix < n_new - w.prefix) {
    const ChainMatch m =
        desired.classify(list[last - 1 - w.suffix], n_new - 1 - w.suffix);
    if (m == ChainMatch::kMismatch) break;
    if (m == ChainMatch::kWeightOnly) {
      stage_seq_weight(list[last - 1 - w.suffix],
                       desired.get(n_new - 1 - w.suffix).weight);
    }
    ++w.suffix;
  }
  return w;
}

template <typename Desired>
void IncrementalEvaluator::splice_chain(ResourceId r, const Desired& desired,
                                        std::size_t first, std::size_t last,
                                        ChainWindow window) {
  auto& list = seq_list(r);
  const std::size_t n_list = list.size();
  const std::size_t n_old = last - first;
  const std::size_t n_new = desired.size();
  const std::size_t prefix = window.prefix;
  const std::size_t suffix = window.suffix;
  seq_kept_ += static_cast<std::int64_t>(prefix + suffix);
  if (prefix == n_old && prefix == n_new) return;  // windows identical

  ReconcileUndo undo;
  undo.res = r;
  undo.prefix = static_cast<std::uint32_t>(first + prefix);
  undo.suffix = static_cast<std::uint32_t>(n_list - last + suffix);
  undo.removed_begin = static_cast<std::uint32_t>(removed_seq_.size());
  undo.added_begin = static_cast<std::uint32_t>(added_ids_.size());

  // Tear down the differing window of the old chain...
  for (std::size_t i = first + prefix; i < last - suffix; ++i) {
    const EdgeId id = list[i];
    const Digraph::Edge& ed = sg_.graph.edge_unchecked(id);
    removed_seq_.push_back(
        {ed.src, ed.dst, sg_.graph.edge_weight(id), sg_.edge_kind[id]});
    seeds_.push_back(ed.dst);
    sg_.graph.remove_edge(id);
  }
  seq_removed_ += static_cast<std::int64_t>(n_old - suffix - prefix);

  // ...and splice the desired window in, keeping the list in chain order
  // (in place: each list only ever grows to its own high-water mark).
  for (std::size_t k = prefix; k < n_new - suffix; ++k) {
    const DesiredEdge d = desired.get(k);
    const EdgeId id = sg_.add_weighted_edge(d.src, d.dst, d.weight, d.kind);
    added_ids_.push_back(id);
    seeds_.push_back(d.dst);
  }
  seq_added_ += static_cast<std::int64_t>(n_new - suffix - prefix);
  splice(list, undo.prefix, n_list - undo.prefix - undo.suffix,
         added_ids_.begin() + undo.added_begin, added_ids_.end());

  undo.removed_end = static_cast<std::uint32_t>(removed_seq_.size());
  undo.added_end = static_cast<std::uint32_t>(added_ids_.size());
  reconcile_undo_.push_back(undo);
}

void IncrementalEvaluator::stage_seq_weight(EdgeId e, TimeNs w) {
  // In-place re-weighting of a surviving sequentialization edge (same undo
  // record as communication weights; unlike those it leaves comm_cross
  // untouched).
  comm_undo_.push_back({e, sg_.graph.edge_weight(e)});
  sg_.graph.set_edge_weight(e, w);
  seeds_.push_back(sg_.graph.edge_unchecked(e).dst);
  ++seq_reweighted_;
}

void IncrementalEvaluator::reconcile_window(ResourceId r, std::size_t first,
                                            std::size_t last) {
  // Materialized desired window — RC context chains and teardowns.
  struct MaterializedDesired {
    const IncrementalEvaluator* self;
    const std::vector<DesiredEdge>* desired;
    std::size_t size() const { return desired->size(); }
    ChainMatch classify(EdgeId id, std::size_t k) const {
      const DesiredEdge& d = (*desired)[k];
      const Digraph::Edge& ed = self->sg_.graph.edge_unchecked(id);
      if (d.src != ed.src || d.dst != ed.dst ||
          d.kind != self->sg_.edge_kind[id]) {
        return ChainMatch::kMismatch;
      }
      return d.weight == self->sg_.graph.edge_weight(id)
                 ? ChainMatch::kExact
                 : ChainMatch::kWeightOnly;
    }
    DesiredEdge get(std::size_t k) const { return (*desired)[k]; }
  };
  const MaterializedDesired desired{this, &desired_};
  splice_chain(r, desired, first, last,
               diff_chain(seq_list(r), desired, first, last));
}

IncrementalEvaluator::ChainMatch IncrementalEvaluator::OrderDesired::classify(
    EdgeId id, std::size_t k) const {
  // The builder and splice_chain only ever emit weight-0 kSwSeq edges into
  // a processor's list (the DCHECK pins that down), so matching a position
  // is two id compares against the flat order array — no weight/kind
  // loads, and never a weight patch.
  const Digraph::Edge& ed = self->sg_.graph.edge_unchecked(id);
  RDSE_DCHECK(self->sg_.edge_kind[id] == SearchEdgeKind::kSwSeq &&
                  self->sg_.graph.edge_weight(id) == 0,
              "processor chain holds a non-Esw edge");
  return ed.src == order[k] && ed.dst == order[k + 1] ? ChainMatch::kExact
                                                      : ChainMatch::kMismatch;
}

std::int32_t IncrementalEvaluator::context_clbs(const Solution& sol,
                                               ResourceId rc, std::size_t ctx) {
  const std::int32_t cached = sol.context_clbs_cached(rc, ctx);
  if (cached >= 0) return cached;
  ++clbs_computed_;
  return sol.context_clbs(*tg_, rc, ctx);
}

void IncrementalEvaluator::plan_rc(ResourceId r, const Architecture& cand_arch,
                                   const Solution& cand_sol) {
  const RcState& st = committed_rc(r);
  const bool alive = cand_arch.alive(r);
  const std::int32_t n_old = st.contexts;
  const std::int32_t n_new =
      alive ? static_cast<std::int32_t>(cand_sol.context_count(r)) : 0;
  const TimeNs tr = alive ? cand_arch.reconfigurable(r).tr_per_clb() : st.tr;
  ++rc_probes_;

  // Resolve the candidate's edit runs for this RC. Where they cannot be
  // used — a removed RC, a run over a context that was cold, runs whose
  // sizes do not add up to the candidate's context count — the whole
  // context list is treated as one rewritten run: the same path, just a
  // wider window.
  const auto begin = static_cast<std::uint32_t>(edits_.size());
  std::int32_t net = 0;
  bool consistent = alive;
  for (const Solution::ContextEdit& e : cand_sol.context_edits()) {
    if (e.rc != r) continue;
    edits_.push_back(e);
    net += static_cast<std::int32_t>(e.new_len) -
           static_cast<std::int32_t>(e.old_len);
    consistent = consistent && e.old_clbs >= 0 &&
                 e.old_pos + e.old_len <= static_cast<std::uint32_t>(n_old) &&
                 e.new_pos + e.new_len <= static_cast<std::uint32_t>(n_new);
  }
  if (!consistent || n_old + net != n_new) {
    edits_.resize(begin);
    if (n_old > 0 || n_new > 0) {
      Solution::ContextEdit whole;
      whole.rc = r;
      whole.old_len = static_cast<std::uint32_t>(n_old);
      whole.new_len = static_cast<std::uint32_t>(n_new);
      whole.old_clbs = st.clbs;
      whole.old_max = n_old > 0 ? st.max_clbs : -1;
      whole.members_changed = true;
      edits_.push_back(whole);
    }
  }
  const auto end = static_cast<std::uint32_t>(edits_.size());
  runs_.resize(end);
  RcWork work{};
  work.rc = r;
  work.edits_begin = begin;
  work.edits_end = end;
  work.n_old = n_old;
  work.n_new = n_new;
  work.tr = tr;
  work.first_changed = begin < end && edits_[begin].new_pos == 0;

  const std::int64_t cold_before = clbs_computed_;
  std::int64_t derived = 0;
  const std::span<const EdgeId> list = chain(r);
  // Runs never share a segment, so every run's window is planned in
  // committed chain offsets: apply, going last to first, splices each one
  // before any position in front of it moves.
  // A boundary: the tasks plan_nodes_[begin, end).
  struct Bound {
    std::uint32_t begin = 0;
    std::uint32_t end = 0;
  };
  const auto mark = [this] {
    return static_cast<std::uint32_t>(plan_nodes_.size());
  };
  // Boundary of a context the run changed, read off the link counts (each
  // context counts once; reads of one context are consecutive).
  std::int32_t counted = -1;
  const auto derive = [&](std::int32_t c, bool terminals) {
    Bound b;
    b.begin = mark();
    context_clbs(cand_sol, r, c);  // a cold context is warmed first
    cand_sol.append_boundary(r, static_cast<std::size_t>(c), terminals,
                             plan_nodes_);
    b.end = mark();
    if (c != counted) {
      ++derived;
      counted = c;
    }
    return b;
  };
  const auto span_of = [this](std::uint32_t b, std::uint32_t e) {
    return std::span<const TaskId>(plan_nodes_.data() + b, e - b);
  };

  for (std::uint32_t i = end; i-- > begin;) {
    const Solution::ContextEdit& e = edits_[i];
    const auto np = static_cast<std::int32_t>(e.new_pos);
    const auto nl = static_cast<std::int32_t>(e.new_len);
    const auto op = static_cast<std::int32_t>(e.old_pos);
    const auto ol = static_cast<std::int32_t>(e.old_len);
    for (std::int32_t c = np; c < np + nl; ++c) context_clbs(cand_sol, r, c);
    RunPlan& run = runs_[i];
    run = RunPlan{};
    // Same members, new CLB sums: the chain's structure stands, and apply
    // patches the weights of the segments entering the run in place.
    if (!e.members_changed) continue;

    // Membership changed: the old segments touching the run (old window
    // [ko_lo, ko_hi)) give way to the segments between its left neighbour
    // and its right neighbour (new contexts [kn_lo, kn_hi]).
    const std::int32_t kn_lo = std::max(np - 1, 0);
    const std::int32_t kn_hi = std::min(np + nl, n_new - 1);
    run.ko_lo = std::max(op - 1, 0);
    run.ko_hi = std::max(std::min(op + ol, n_old - 1), run.ko_lo);
    const std::size_t first = st.offset(run.ko_lo);
    std::size_t last = first;
    for (std::int32_t k = run.ko_lo; k < run.ko_hi; ++k) last += st.seg_len[k];
    run.first = static_cast<std::uint32_t>(first);
    run.last = static_cast<std::uint32_t>(last);
    work.window_edges += run.last - run.first;

    // The unchanged neighbours' boundaries are read back from the old
    // window: the chain stores segment k as terminals(k) x initials(k+1),
    // source-major, so the left neighbour's terminals are the sources of
    // its old outgoing segment and the right neighbour's initials the
    // targets of the first source of its old incoming one. Only a run at
    // the very end (no old segment after the left neighbour) or the very
    // front derives a neighbour instead.
    const bool has_left = np > 0;
    const bool has_right = np + nl < n_new;
    Bound from;
    if (has_left) {
      if (op < n_old) {
        from.begin = mark();
        for (std::size_t k = first; k < first + st.seg_len[op - 1]; ++k) {
          const NodeId src = sg_.graph.edge_unchecked(list[k]).src;
          if (mark() == from.begin || plan_nodes_.back() != src) {
            plan_nodes_.push_back(src);
          }
        }
        from.end = mark();
      } else {
        from = derive(np - 1, true);
      }
    }
    Bound right;
    if (has_right) {
      if (op + ol > 0) {
        std::size_t k = first;
        for (std::int32_t j = run.ko_lo; j < op + ol - 1; ++j) {
          k += st.seg_len[j];
        }
        const NodeId src = sg_.graph.edge_unchecked(list[k]).src;
        right.begin = mark();
        for (; k < last && sg_.graph.edge_unchecked(list[k]).src == src;
             ++k) {
          plan_nodes_.push_back(sg_.graph.edge_unchecked(list[k]).dst);
        }
        right.end = mark();
      } else {
        right = derive(np + nl, false);
      }
    }

    run.seg_begin = static_cast<std::uint32_t>(segments_.size());
    for (std::int32_t c = kn_lo; c <= kn_hi; ++c) {
      const bool in_run = c >= np && c < np + nl;
      if (c == 0 && in_run) {
        const Bound f = derive(0, false);  // new first-context initials
        work.first_begin = f.begin;
        work.first_end = f.end;
        work.first_rederived = true;
      }
      if (c > kn_lo) {
        const Bound to = in_run ? derive(c, false) : right;
        const TimeNs w = tr * context_clbs(cand_sol, r, c);
        segments_.push_back({from.begin, from.end, to.begin, to.end, w});
      }
      if (c < kn_hi && in_run) from = derive(c, true);
    }
    run.seg_end = static_cast<std::uint32_t>(segments_.size());
    if (np == 0 && nl == 0 && has_right) {
      // The run deleted the old first context(s): the right neighbour is
      // the new context 0.
      work.first_begin = right.begin;
      work.first_end = right.end;
      work.first_rederived = true;
    }

    // Describe the run for the gate: its committed window is dropped, and
    // each planned segment is one terminals x initials chain.
    for (std::size_t k = first; k < last; ++k) relaxer_.hide_edge(list[k]);
    for (std::uint32_t g = run.seg_begin; g < run.seg_end; ++g) {
      const SegmentPlan& seg = segments_[g];
      relaxer_.add_chain(span_of(seg.from_begin, seg.from_end),
                         span_of(seg.to_begin, seg.to_end));
    }
  }
  if (work.first_changed && n_new > 0) {
    work.first_load = tr * context_clbs(cand_sol, r, 0);
  }
  rc_work_.push_back(work);

  bounds_computed_ += derived;
  bounds_reused_ += n_new - derived;
  clbs_reused_ += n_new - (clbs_computed_ - cold_before);
}

void IncrementalEvaluator::apply_rc(const RcWork& w, const Solution& cand_sol) {
  const ResourceId r = w.rc;
  RcState& st = rc_state(r);
  if (w.first_changed) {
    for (TaskId t : st.first_initials) stage_release_pending(t, 0);
  }
  auto& list = seq_list(r);
  const std::size_t n_list = list.size();
  // Segments before any run still being processed are as committed: runs
  // go last to first.
  for (std::uint32_t i = w.edits_end; i-- > w.edits_begin;) {
    const Solution::ContextEdit& e = edits_[i];
    if (!e.members_changed) {
      // Same members, new CLB sums: only the weights of the segments
      // entering the run's contexts move (and the first load, when the run
      // starts at context 0) — patched in place, nothing re-derived. The
      // segments are still indexed as committed (old positions).
      const auto np = static_cast<std::int32_t>(e.new_pos);
      const auto nl = static_cast<std::int32_t>(e.new_len);
      const auto op = static_cast<std::int32_t>(e.old_pos);
      std::size_t off = st.offset(std::max(op - 1, 0));
      for (std::int32_t j = op > 0 ? 0 : 1; j < nl; ++j) {
        const TimeNs weight = w.tr * cand_sol.context_clbs_cached(r, np + j);
        const std::uint32_t len = st.seg_len[op + j - 1];
        for (std::uint32_t k = 0; k < len; ++k) {
          const EdgeId id = list[off + k];
          if (sg_.graph.edge_weight(id) != weight) stage_seq_weight(id, weight);
        }
        off += len;
      }
      continue;
    }

    const RunPlan& run = runs_[i];
    desired_.clear();
    new_seg_len_.clear();
    for (std::uint32_t g = run.seg_begin; g < run.seg_end; ++g) {
      const SegmentPlan& seg = segments_[g];
      for (std::uint32_t a = seg.from_begin; a < seg.from_end; ++a) {
        for (std::uint32_t b = seg.to_begin; b < seg.to_end; ++b) {
          desired_.push_back({plan_nodes_[a], plan_nodes_[b], seg.weight,
                              SearchEdgeKind::kHwSeq});
        }
      }
      new_seg_len_.push_back((seg.from_end - seg.from_begin) *
                             (seg.to_end - seg.to_begin));
    }
    reconcile_window(r, run.first, run.last);

    // Splice the segment lengths the same way (undo-logged).
    if (run.ko_lo == run.ko_hi && new_seg_len_.empty()) continue;
    SegUndo su;
    su.rc = r;
    su.pos = static_cast<std::uint32_t>(run.ko_lo);
    su.n_new = static_cast<std::uint32_t>(new_seg_len_.size());
    su.saved_begin = static_cast<std::uint32_t>(seg_saved_.size());
    seg_saved_.insert(seg_saved_.end(), st.seg_len.begin() + run.ko_lo,
                      st.seg_len.begin() + run.ko_hi);
    su.saved_end = static_cast<std::uint32_t>(seg_saved_.size());
    seg_undo_.push_back(su);
    splice(st.seg_len, su.pos, su.saved_end - su.saved_begin,
           new_seg_len_.begin(), new_seg_len_.end());
  }
  // Edges outside every window stay in place untouched.
  seq_kept_ += static_cast<std::int64_t>(n_list - w.window_edges);

  // First-context releases: the first load moved, or context 0's members.
  if (w.first_changed) {
    if (w.first_rederived || w.n_new == 0) {
      FirstUndo fu;
      fu.rc = r;
      fu.saved_begin = static_cast<std::uint32_t>(first_saved_.size());
      first_saved_.insert(first_saved_.end(), st.first_initials.begin(),
                          st.first_initials.end());
      fu.saved_end = static_cast<std::uint32_t>(first_saved_.size());
      first_undo_.push_back(fu);
      if (w.n_new > 0) {
        st.first_initials.assign(plan_nodes_.begin() + w.first_begin,
                                 plan_nodes_.begin() + w.first_end);
      } else {
        st.first_initials.clear();
      }
    }
    if (w.n_new > 0) {
      for (TaskId t : st.first_initials) {
        release_sets_.push_back({t, w.first_load});
      }
    }
  }
}

void IncrementalEvaluator::account_rc(const RcWork& w,
                                      const Solution& cand_sol) {
  RcState& st = rc_[w.rc];
  std::int32_t old_sum = 0;
  std::int32_t old_max = -1;
  std::int32_t new_sum = 0;
  std::int32_t new_max = -1;
  for (std::uint32_t i = w.edits_begin; i < w.edits_end; ++i) {
    const Solution::ContextEdit& e = edits_[i];
    old_sum += e.old_clbs;
    old_max = std::max(old_max, e.old_max);
    for (std::uint32_t c = e.new_pos; c < e.new_pos + e.new_len; ++c) {
      const std::int32_t v = cand_sol.context_clbs_cached(w.rc, c);
      new_sum += v;
      new_max = std::max(new_max, v);
    }
  }
  const std::int32_t total = st.clbs - old_sum + new_sum;
  // Context 0 is unchanged unless the first run starts there (and was
  // read, hence warm, by the plan).
  std::int32_t first = st.first_clbs;
  if (w.n_new == 0) {
    first = 0;
  } else if (w.first_changed) {
    first = cand_sol.context_clbs_cached(w.rc, 0);
  }
  std::int32_t max = 0;
  if (w.n_new == 0) {
    max = 0;
  } else if (new_max >= st.max_clbs) {
    max = new_max;
  } else if (old_max < st.max_clbs) {
    max = st.max_clbs;  // the largest context lies outside every run
  } else {
    // The largest context shrank or left: rescan the RC's sums (a cold
    // context among them is re-summed after all).
    const std::int64_t computed = clbs_computed_;
    for (std::int32_t c = 0; c < w.n_new; ++c) {
      max = std::max(max,
                     context_clbs(cand_sol, w.rc, static_cast<std::size_t>(c)));
    }
    clbs_reused_ -= clbs_computed_ - computed;
  }

  sg_.n_contexts += w.n_new - w.n_old;
  sg_.clbs_loaded += total - st.clbs;
  sg_.init_reconfig += w.tr * first - st.tr * st.first_clbs;
  sg_.dyn_reconfig +=
      w.tr * (total - first) - st.tr * (st.clbs - st.first_clbs);
  if (max >= sg_.max_context_clbs) {
    sg_.max_context_clbs = max;
  } else if (st.max_clbs == sg_.max_context_clbs) {
    max_rescan_ = true;  // this RC held the global maximum
  }

  rc_undo_.push_back({w.rc, st});
  st.contexts = w.n_new;
  st.clbs = total;
  st.first_clbs = first;
  st.max_clbs = max;
  st.tr = w.tr;
}

std::optional<Metrics> IncrementalEvaluator::evaluate_candidate(
    const Architecture& cand_arch, const Solution& cand_sol,
    std::span<const ResourceId> touched_resources,
    std::span<const TaskId> touched_tasks) {
  RDSE_REQUIRE(!pending_,
               "IncrementalEvaluator: previous candidate not resolved");
  ++builds_;

  // ---- pre-gate: a context-order violation is cyclic, whatever the plan --
  if (violates_context_order(cand_sol, touched_tasks)) {
    relaxer_.refuse();
    ++cyclic_unstaged_;
    ++precedence_refused_;
    return std::nullopt;
  }

  // Micro-profile phase clock: one running timestamp, advanced at each
  // phase boundary (two clock reads per phase, opt-in).
  using ProfileClock = std::chrono::steady_clock;
  ProfileClock::time_point prof_t{};
  if (profile_) prof_t = ProfileClock::now();
  const auto profile_lap = [&](std::int64_t& slot) {
    const auto now = ProfileClock::now();
    slot += std::chrono::duration_cast<std::chrono::nanoseconds>(now - prof_t)
                .count();
    prof_t = now;
  };

  // ---- plan --------------------------------------------------------------
  // Each touched resource's candidate chain, read without writing G' and
  // described to the gate as the committed edges it drops plus the chains
  // it adds.
  plans_.clear();
  edits_.clear();
  runs_.clear();
  rc_work_.clear();
  segments_.clear();
  plan_nodes_.clear();
  relaxer_.begin_edit(sg_.graph);
  for (ResourceId r : touched_resources) {
    const bool alive = cand_arch.alive(r);
    const bool is_rc =
        alive ? cand_arch.resource(r).kind() == ResourceKind::kReconfigurable
              : r < rc_.size() && rc_[r].contexts > 0;
    ResourcePlan plan{r, PlanKind::kTeardown, {}, 0};
    const std::span<const EdgeId> list = chain(r);
    if (is_rc) {
      plan.kind = PlanKind::kRc;
      plan.rc_work = static_cast<std::uint32_t>(rc_work_.size());
      plan_rc(r, cand_arch, cand_sol);
    } else if (alive &&
               cand_arch.resource(r).kind() == ResourceKind::kProcessor) {
      // The Esw chain is implied by the flat total order: diff against it
      // directly instead of materializing DesiredEdges.
      plan.kind = PlanKind::kProcessor;
      const std::span<const TaskId> order = cand_sol.processor_order(r);
      const OrderDesired desired{this, order};
      plan.window = diff_chain(list, desired, 0, list.size());
      for (std::size_t k = plan.window.prefix;
           k < list.size() - plan.window.suffix; ++k) {
        relaxer_.hide_edge(list[k]);
      }
      for (std::size_t k = plan.window.prefix;
           k < desired.size() - plan.window.suffix; ++k) {
        relaxer_.add_chain(order.subspan(k, 1), order.subspan(k + 1, 1));
      }
    } else {
      // An ASIC, or a removed processor: the chain goes.
      for (EdgeId e : list) relaxer_.hide_edge(e);
    }
    plans_.push_back(plan);
  }
  if (profile_) profile_lap(prof_reconcile_ns_);

  // ---- gate: §4.3 — a cyclic candidate "will not be performed" -----------
  const bool acyclic = relaxer_.gate(sg_.graph);
  if (profile_) profile_lap(prof_relax_ns_);
  if (!acyclic) {
    ++cyclic_unstaged_;
    return std::nullopt;
  }

  // ---- apply --------------------------------------------------------------
  seeds_.clear();
  removed_seq_.clear();
  added_ids_.clear();
  reconcile_undo_.clear();
  comm_undo_.clear();
  node_weight_undo_.clear();
  release_undo_.clear();
  side_undo_.clear();
  dead_resources_.clear();
  rc_undo_.clear();
  seg_undo_.clear();
  seg_saved_.clear();
  first_undo_.clear();
  first_saved_.clear();
  snap_.init_reconfig = sg_.init_reconfig;
  snap_.dyn_reconfig = sg_.dyn_reconfig;
  snap_.comm_cross = sg_.comm_cross;
  snap_.n_contexts = sg_.n_contexts;
  snap_.clbs_loaded = sg_.clbs_loaded;
  snap_.max_context_clbs = sg_.max_context_clbs;
  snap_.sw_busy = sw_busy_;
  snap_.hw_busy = hw_busy_;
  snap_.sw_tasks = sw_tasks_;
  snap_.hw_tasks = hw_tasks_;

  // 1. moved tasks: node weights, partition sums, incident communication
  // weights. comm_edge_weight with the memoized bus time (co_located is the
  // shared crossing predicate, so the two paths cannot drift apart).
  const auto comm_weight = [&](EdgeId e) -> TimeNs {
    const CommEdge& c = tg_->comm(e);
    return co_located(cand_sol, c.src, c.dst) ? 0 : bus_time_[e];
  };
  for (TaskId t : touched_tasks) {
    const TimeNs old_w = sg_.node_weight[t];
    const TimeNs new_w = assigned_exec_time(*tg_, cand_arch, cand_sol, t);
    const bool was_sw = task_on_proc_[t] != 0;
    const bool now_sw =
        cand_arch.resource(cand_sol.placement(t).resource).kind() ==
        ResourceKind::kProcessor;
    if (was_sw) {
      --sw_tasks_;
      sw_busy_ -= old_w;
    } else {
      --hw_tasks_;
      hw_busy_ -= old_w;
    }
    if (now_sw) {
      ++sw_tasks_;
      sw_busy_ += new_w;
    } else {
      ++hw_tasks_;
      hw_busy_ += new_w;
    }
    if (was_sw != now_sw) {
      side_undo_.emplace_back(t, task_on_proc_[t]);
      task_on_proc_[t] = now_sw ? 1 : 0;
    }
    stage_node_weight(t, new_w);
    for (EdgeId e : tg_->digraph().in_edges(t)) {
      stage_comm_weight(e, comm_weight(e));
    }
    for (EdgeId e : tg_->digraph().out_edges(t)) {
      stage_comm_weight(e, comm_weight(e));
    }
  }

  if (profile_) profile_lap(prof_stage_ns_);

  // 2. the planned chain surgery and releases. Releases are coalesced in
  // release_pending_ and staged once at their *net* value: first every
  // touched RC whose context 0 changed clears its old first-context
  // initials, then the new first-context releases land (release_sets_), so
  // a task migrating between two touched first contexts ends with the new
  // value whatever the order of the touched list, and a first context the
  // move left alone stages nothing.
  release_pending_.clear();
  release_sets_.clear();
  for (const ResourcePlan& plan : plans_) {
    ++reconciles_;
    if (!cand_arch.alive(plan.res)) {
      dead_resources_.push_back(plan.res);  // an m3 move removed it
    }
    switch (plan.kind) {
      case PlanKind::kRc:
        apply_rc(rc_work_[plan.rc_work], cand_sol);
        break;
      case PlanKind::kProcessor: {
        const OrderDesired desired{this,
                                   cand_sol.processor_order(plan.res)};
        splice_chain(plan.res, desired, 0, seq_list(plan.res).size(),
                     plan.window);
        break;
      }
      case PlanKind::kTeardown:
        desired_.clear();
        reconcile_window(plan.res, 0, seq_list(plan.res).size());
        break;
    }
  }
  for (const auto& [task, release] : release_sets_) {
    stage_release_pending(task, release);
  }
  for (const auto& [task, release] : release_pending_) {
    stage_release(task, release);  // no-op (and no seed) when unchanged
  }

  if (profile_) profile_lap(prof_reconcile_ns_);

  // 3. context accounting: the touched RCs' deltas.
  max_rescan_ = false;
  for (const RcWork& w : rc_work_) account_rc(w, cand_sol);
  if (max_rescan_) {
    sg_.max_context_clbs = 0;
    for (const RcState& st : rc_) {
      sg_.max_context_clbs = std::max(sg_.max_context_clbs, st.max_clbs);
    }
  }

  if (profile_) profile_lap(prof_context_ns_);

  // 4. incremental relaxation on the ranks the gate repaired.
  const WeightedDag dag{&sg_.graph, sg_.node_weight,
                        sg_.graph.edge_weights(), sg_.release};
  Metrics m;
  m.makespan = relaxer_.relax(dag, seeds_);
  if (profile_) profile_lap(prof_relax_ns_);
  m.init_reconfig = sg_.init_reconfig;
  m.dyn_reconfig = sg_.dyn_reconfig;
  m.comm_cross = sg_.comm_cross;
  m.sw_busy = sw_busy_;
  m.hw_busy = hw_busy_;
  m.sw_tasks = sw_tasks_;
  m.hw_tasks = hw_tasks_;
  m.n_contexts = sg_.n_contexts;
  m.clbs_loaded = sg_.clbs_loaded;
  m.max_context_clbs = sg_.max_context_clbs;
  pending_ = true;
  return m;
}

void IncrementalEvaluator::rollback() {
  // Restore the relaxer's committed start/finish values and ranks first
  // (in-place candidate layout: the probe wrote over them under journal
  // protection).
  relaxer_.discard();
  // Undo the chain splices in reverse: each record turns
  // `prefix + added-window + suffix` back into
  // `prefix + re-added removed-window + suffix`, so the list is restored in
  // chain order exactly (re-added edges get fresh ids — nothing outside the
  // per-resource id lists holds sequentialization edge ids).
  for (auto it = reconcile_undo_.rbegin(); it != reconcile_undo_.rend();
       ++it) {
    auto& list = seq_edges_[it->res];
    const std::size_t n_added = it->added_end - it->added_begin;
    for (std::size_t k = it->added_begin; k < it->added_end; ++k) {
      sg_.graph.remove_edge(added_ids_[k]);
    }
    splice_.clear();
    for (std::size_t k = it->removed_begin; k < it->removed_end; ++k) {
      const RemovedSeqEdge& re = removed_seq_[k];
      splice_.push_back(
          sg_.add_weighted_edge(re.src, re.dst, re.weight, re.kind));
    }
    splice(list, it->prefix, n_added, splice_.begin(), splice_.end());
  }
  for (auto it = comm_undo_.rbegin(); it != comm_undo_.rend(); ++it) {
    sg_.graph.set_edge_weight(it->edge, it->weight);
  }
  for (auto it = node_weight_undo_.rbegin(); it != node_weight_undo_.rend();
       ++it) {
    sg_.node_weight[it->node] = it->value;
  }
  for (auto it = release_undo_.rbegin(); it != release_undo_.rend(); ++it) {
    sg_.release[it->node] = it->value;
  }
  sg_.init_reconfig = snap_.init_reconfig;
  sg_.dyn_reconfig = snap_.dyn_reconfig;
  sg_.comm_cross = snap_.comm_cross;
  sg_.n_contexts = snap_.n_contexts;
  sg_.clbs_loaded = snap_.clbs_loaded;
  sg_.max_context_clbs = snap_.max_context_clbs;
  sw_busy_ = snap_.sw_busy;
  hw_busy_ = snap_.hw_busy;
  sw_tasks_ = snap_.sw_tasks;
  hw_tasks_ = snap_.hw_tasks;
  for (auto it = side_undo_.rbegin(); it != side_undo_.rend(); ++it) {
    task_on_proc_[it->first] = it->second;
  }
  for (auto it = seg_undo_.rbegin(); it != seg_undo_.rend(); ++it) {
    splice(rc_[it->rc].seg_len, it->pos, it->n_new,
           seg_saved_.begin() + it->saved_begin,
           seg_saved_.begin() + it->saved_end);
  }
  for (auto it = first_undo_.rbegin(); it != first_undo_.rend(); ++it) {
    rc_[it->rc].first_initials.assign(first_saved_.begin() + it->saved_begin,
                                      first_saved_.begin() + it->saved_end);
  }
  for (auto it = rc_undo_.rbegin(); it != rc_undo_.rend(); ++it) {
    static_cast<RcTotals&>(rc_[it->rc]) = it->totals;
  }
}

void IncrementalEvaluator::commit() {
  RDSE_REQUIRE(pending_, "IncrementalEvaluator::commit: no candidate staged");
  relaxer_.commit();
  for (ResourceId r : dead_resources_) {
    // Emptied by the reconcile against no desired edges; release the
    // storage (the slot stays — resource ids are never reused).
    std::vector<EdgeId>().swap(seq_list(r));
    if (r < rc_.size()) rc_[r] = RcState{};
  }
  dead_resources_.clear();
  pending_ = false;
}

void IncrementalEvaluator::discard() {
  if (pending_) {
    const auto t0 = profile_ ? std::chrono::steady_clock::now()
                             : std::chrono::steady_clock::time_point{};
    rollback();
    if (profile_) {
      prof_rollback_ns_ += std::chrono::duration_cast<std::chrono::nanoseconds>(
                               std::chrono::steady_clock::now() - t0)
                               .count();
    }
  }
  pending_ = false;
}

IncrementalEvalStats IncrementalEvaluator::stats() const {
  IncrementalEvalStats s;
  s.relax = relaxer_.stats();
  s.builds = builds_;
  s.cyclic_unstaged = cyclic_unstaged_;
  s.precedence_refused = precedence_refused_;
  s.rc_probes = rc_probes_;
  s.bounds_reused = bounds_reused_;
  s.bounds_computed = bounds_computed_;
  s.clbs_reused = clbs_reused_;
  s.clbs_computed = clbs_computed_;
  s.reconciles = reconciles_;
  s.seq_edges_kept = seq_kept_;
  s.seq_edges_removed = seq_removed_;
  s.seq_edges_added = seq_added_;
  s.seq_edges_reweighted = seq_reweighted_;
  s.profile_stage_ns = prof_stage_ns_;
  s.profile_reconcile_ns = prof_reconcile_ns_;
  s.profile_context_ns = prof_context_ns_;
  s.profile_relax_ns = prof_relax_ns_;
  s.profile_rollback_ns = prof_rollback_ns_;
  return s;
}

}  // namespace rdse
