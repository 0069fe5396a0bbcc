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
// instead of torn down and re-inserted — it stays out of new_edges, so it
// can neither violate the committed ranks nor trigger a Pearce-Kelly
// repair, and the graph sees no structural churn at all.
template <typename Desired>
void IncrementalEvaluator::reconcile_chain(ResourceId r,
                                           const Desired& desired,
                                           std::size_t first,
                                           std::size_t last) {
  auto& list = seq_list(r);
  const std::size_t n_list = list.size();
  const std::size_t n_old = last - first;
  const std::size_t n_new = desired.size();

  // Two-pointer diff: both chains run in chain order, so a local move
  // leaves a common prefix and suffix, and only the window in between
  // needs surgery. Weight-only differences extend the structural prefix /
  // suffix (patched in place under the weight undo log).
  std::size_t prefix = 0;
  while (prefix < n_old && prefix < n_new) {
    const ChainMatch m = desired.classify(list[first + prefix], prefix);
    if (m == ChainMatch::kMismatch) break;
    if (m == ChainMatch::kWeightOnly) {
      stage_seq_weight(list[first + prefix], desired.get(prefix).weight);
    }
    ++prefix;
  }
  std::size_t suffix = 0;
  while (suffix < n_old - prefix && suffix < n_new - prefix) {
    const ChainMatch m =
        desired.classify(list[last - 1 - suffix], n_new - 1 - suffix);
    if (m == ChainMatch::kMismatch) break;
    if (m == ChainMatch::kWeightOnly) {
      stage_seq_weight(list[last - 1 - suffix],
                       desired.get(n_new - 1 - suffix).weight);
    }
    ++suffix;
  }
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
    new_edges_.push_back(id);
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
  reconcile_chain(r, MaterializedDesired{this, &desired_}, first, last);
}

void IncrementalEvaluator::reconcile_processor_chain(
    ResourceId r, std::span<const TaskId> order) {
  // Processor chains are implied by the total order: edge k runs
  // order[k] -> order[k+1], always weight 0 / kSwSeq (the builder and the
  // splice below only ever emit such edges into a processor's list, which
  // the DCHECK pins down). Matching a position is therefore two id
  // compares against the flat order array — no DesiredEdge vector, no
  // weight/kind loads, and never a weight patch.
  struct OrderDesired {
    const IncrementalEvaluator* self;
    std::span<const TaskId> order;
    std::size_t size() const {
      return order.empty() ? 0 : order.size() - 1;
    }
    ChainMatch classify(EdgeId id, std::size_t k) const {
      const Digraph::Edge& ed = self->sg_.graph.edge_unchecked(id);
      RDSE_DCHECK(self->sg_.edge_kind[id] == SearchEdgeKind::kSwSeq &&
                      self->sg_.graph.edge_weight(id) == 0,
                  "processor chain holds a non-Esw edge");
      return ed.src == order[k] && ed.dst == order[k + 1]
                 ? ChainMatch::kExact
                 : ChainMatch::kMismatch;
    }
    DesiredEdge get(std::size_t k) const {
      return {order[k], order[k + 1], 0, SearchEdgeKind::kSwSeq};
    }
  };
  reconcile_chain(r, OrderDesired{this, order}, 0, seq_list(r).size());
}

std::int32_t IncrementalEvaluator::context_clbs(const Solution& sol,
                                               ResourceId rc, std::size_t ctx) {
  const std::int32_t cached = sol.context_clbs_cached(rc, ctx);
  if (cached >= 0) return cached;
  ++clbs_computed_;
  return sol.context_clbs(*tg_, rc, ctx);
}

void IncrementalEvaluator::reconcile_rc(ResourceId r,
                                        const Architecture& cand_arch,
                                        const Solution& cand_sol) {
  RcState& st = rc_state(r);
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
  rc_work_.push_back({r, begin, end, n_old, n_new, tr});

  const std::int64_t cold_before = clbs_computed_;
  std::int64_t derived = 0;
  auto& list = seq_list(r);
  const std::size_t n_list = list.size();
  std::size_t window_edges = 0;
  // Chain-list offset of segment k (segments before any run still being
  // processed are as committed: runs go last to first).
  const auto offset = [&st](std::int32_t k) {
    std::size_t off = 0;
    for (std::int32_t j = 0; j < k; ++j) off += st.seg_len[j];
    return off;
  };
  // Boundary of a context the run changed, read off the link counts (each
  // context counts once; reads of one context are consecutive).
  std::int32_t counted = -1;
  const auto derive = [&](std::int32_t c, bool terminals,
                          std::vector<TaskId>& out) {
    out.clear();
    context_clbs(cand_sol, r, c);  // a cold context is warmed first
    cand_sol.append_boundary(r, static_cast<std::size_t>(c), terminals, out);
    if (c != counted) {
      ++derived;
      counted = c;
    }
  };

  const bool first_changed = begin < end && edits_[begin].new_pos == 0;
  if (first_changed) {
    for (TaskId t : st.first_initials) stage_release_pending(t, 0);
  }
  bool first_rederived = false;  // first_initials_ holds the new initials

  for (std::uint32_t i = end; i-- > begin;) {
    const Solution::ContextEdit& e = edits_[i];
    const auto np = static_cast<std::int32_t>(e.new_pos);
    const auto nl = static_cast<std::int32_t>(e.new_len);
    const auto op = static_cast<std::int32_t>(e.old_pos);
    const auto ol = static_cast<std::int32_t>(e.old_len);
    for (std::int32_t c = np; c < np + nl; ++c) context_clbs(cand_sol, r, c);

    if (!e.members_changed) {
      // Same members, new CLB sums: only the weights of the segments
      // entering the run's contexts move (and the first load, when the run
      // starts at context 0) — patched in place, nothing re-derived. The
      // segments are still indexed as committed (old positions).
      std::size_t off = offset(std::max(op - 1, 0));
      for (std::int32_t j = op > 0 ? 0 : 1; j < nl; ++j) {
        const TimeNs w = tr * cand_sol.context_clbs_cached(r, np + j);
        const std::uint32_t len = st.seg_len[op + j - 1];
        for (std::uint32_t k = 0; k < len; ++k) {
          const EdgeId id = list[off + k];
          if (sg_.graph.edge_weight(id) != w) stage_seq_weight(id, w);
        }
        off += len;
      }
      continue;
    }

    // Membership changed: the old segments touching the run (old window
    // [ko_lo, ko_hi)) give way to the segments between its left neighbour
    // and its right neighbour (new contexts [kn_lo, kn_hi]).
    const std::int32_t kn_lo = std::max(np - 1, 0);
    const std::int32_t kn_hi = std::min(np + nl, n_new - 1);
    const std::int32_t ko_lo = std::max(op - 1, 0);
    const std::int32_t ko_hi = std::max(std::min(op + ol, n_old - 1), ko_lo);
    const std::size_t first = offset(ko_lo);
    std::size_t last = first;
    for (std::int32_t k = ko_lo; k < ko_hi; ++k) last += st.seg_len[k];

    // The unchanged neighbours' boundaries are read back from the old
    // window before it is spliced: the chain stores segment k as
    // terminals(k) x initials(k+1), source-major, so the left neighbour's
    // terminals are the sources of its old outgoing segment and the right
    // neighbour's initials the targets of the first source of its old
    // incoming one. Only a run at the very end (no old segment after the
    // left neighbour) or the very front derives a neighbour instead.
    const bool has_left = np > 0;
    const bool has_right = np + nl < n_new;
    if (has_left) {
      if (op < n_old) {
        terminals_.clear();
        for (std::size_t k = first; k < first + st.seg_len[op - 1]; ++k) {
          const NodeId src = sg_.graph.edge_unchecked(list[k]).src;
          if (terminals_.empty() || terminals_.back() != src) {
            terminals_.push_back(src);
          }
        }
      } else {
        derive(np - 1, true, terminals_);
      }
    }
    if (has_right) {
      if (op + ol > 0) {
        std::size_t k = first;
        for (std::int32_t j = ko_lo; j < op + ol - 1; ++j) k += st.seg_len[j];
        const NodeId src = sg_.graph.edge_unchecked(list[k]).src;
        right_initials_.clear();
        for (; k < last && sg_.graph.edge_unchecked(list[k]).src == src;
             ++k) {
          right_initials_.push_back(sg_.graph.edge_unchecked(list[k]).dst);
        }
      } else {
        derive(np + nl, false, right_initials_);
      }
    }

    desired_.clear();
    new_seg_len_.clear();
    for (std::int32_t c = kn_lo; c <= kn_hi; ++c) {
      const bool in_run = c >= np && c < np + nl;
      if (c == 0 && in_run) {
        derive(0, false, first_initials_);  // new first-context initials
        first_rederived = true;
      }
      if (c > kn_lo) {
        const std::vector<TaskId>* inits = &right_initials_;
        if (in_run) {
          derive(c, false, initials_);
          inits = &initials_;
        }
        const TimeNs w = tr * context_clbs(cand_sol, r, c);
        for (TaskId from : terminals_) {
          for (TaskId to : *inits) {
            desired_.push_back({from, to, w, SearchEdgeKind::kHwSeq});
          }
        }
        new_seg_len_.push_back(
            static_cast<std::uint32_t>(terminals_.size() * inits->size()));
      }
      if (c < kn_hi && in_run) derive(c, true, terminals_);
    }
    if (np == 0 && nl == 0 && has_right) {
      // The run deleted the old first context(s): the right neighbour is
      // the new context 0.
      first_initials_.assign(right_initials_.begin(), right_initials_.end());
      first_rederived = true;
    }
    window_edges += last - first;
    reconcile_window(r, first, last);

    // Splice the segment lengths the same way (undo-logged).
    if (ko_lo == ko_hi && new_seg_len_.empty()) continue;
    SegUndo su;
    su.rc = r;
    su.pos = static_cast<std::uint32_t>(ko_lo);
    su.n_new = static_cast<std::uint32_t>(new_seg_len_.size());
    su.saved_begin = static_cast<std::uint32_t>(seg_saved_.size());
    seg_saved_.insert(seg_saved_.end(), st.seg_len.begin() + ko_lo,
                      st.seg_len.begin() + ko_hi);
    su.saved_end = static_cast<std::uint32_t>(seg_saved_.size());
    seg_undo_.push_back(su);
    splice(st.seg_len, su.pos, su.saved_end - su.saved_begin,
           new_seg_len_.begin(), new_seg_len_.end());
  }
  // Edges outside every window stay in place untouched.
  seq_kept_ += static_cast<std::int64_t>(n_list - window_edges);

  // First-context releases: the first load moved, or context 0's members.
  if (first_changed) {
    if (first_rederived || n_new == 0) {
      FirstUndo fu;
      fu.rc = r;
      fu.saved_begin = static_cast<std::uint32_t>(first_saved_.size());
      first_saved_.insert(first_saved_.end(), st.first_initials.begin(),
                          st.first_initials.end());
      fu.saved_end = static_cast<std::uint32_t>(first_saved_.size());
      first_undo_.push_back(fu);
      if (n_new > 0) {
        st.first_initials.assign(first_initials_.begin(),
                                 first_initials_.end());
      } else {
        st.first_initials.clear();
      }
    }
    if (n_new > 0) {
      const TimeNs load = tr * context_clbs(cand_sol, r, 0);
      for (TaskId t : st.first_initials) release_sets_.push_back({t, load});
    }
  }

  bounds_computed_ += derived;
  bounds_reused_ += n_new - derived;
  clbs_reused_ += n_new - (clbs_computed_ - cold_before);
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
  // read, hence warm, in phase 2).
  const bool first_changed =
      w.edits_begin < w.edits_end && edits_[w.edits_begin].new_pos == 0;
  std::int32_t first = st.first_clbs;
  if (w.n_new == 0) {
    first = 0;
  } else if (first_changed) {
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
  seeds_.clear();
  new_edges_.clear();
  removed_seq_.clear();
  added_ids_.clear();
  reconcile_undo_.clear();
  comm_undo_.clear();
  node_weight_undo_.clear();
  release_undo_.clear();
  side_undo_.clear();
  dead_resources_.clear();
  edits_.clear();
  rc_work_.clear();
  rc_undo_.clear();
  seg_undo_.clear();
  seg_saved_.clear();
  first_undo_.clear();
  first_saved_.clear();
  touched_snapshot_.assign(touched_resources.begin(),
                           touched_resources.end());
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

  // ---- 1. moved tasks: node weights, partition sums, incident
  // communication weights --------------------------------------------------
  // comm_edge_weight with the memoized bus time (co_located is the shared
  // crossing predicate, so the two paths cannot drift apart).
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

  // ---- 2. touched resources: reconcile chains and releases ---------------
  // Releases are coalesced in release_pending_ and staged once at their
  // *net* value: first every touched RC whose context 0 changed clears its
  // old first-context initials, then the new first-context releases land
  // (release_sets_), so a task migrating between two touched first
  // contexts ends with the new value whatever the order of the touched
  // list, and a first context the move left alone stages nothing.
  release_pending_.clear();
  release_sets_.clear();
  for (ResourceId r : touched_snapshot_) {
    ++reconciles_;
    const bool alive = cand_arch.alive(r);
    if (!alive) dead_resources_.push_back(r);  // an m3 move removed it
    const bool is_rc =
        alive ? cand_arch.resource(r).kind() == ResourceKind::kReconfigurable
              : r < rc_.size() && rc_[r].contexts > 0;
    if (is_rc) {
      reconcile_rc(r, cand_arch, cand_sol);
    } else if (alive &&
               cand_arch.resource(r).kind() == ResourceKind::kProcessor) {
      // Fast path: the Esw chain is implied by the flat total order, so
      // diff against it directly instead of materializing DesiredEdges.
      reconcile_processor_chain(r, cand_sol.processor_order(r));
    } else {
      desired_.clear();  // an ASIC, or a removed processor: no chain
      reconcile_window(r, 0, seq_list(r).size());
    }
  }
  for (const auto& [task, release] : release_sets_) {
    stage_release_pending(task, release);
  }
  for (const auto& [task, release] : release_pending_) {
    stage_release(task, release);  // no-op (and no seed) when unchanged
  }

  if (profile_) profile_lap(prof_reconcile_ns_);

  // ---- 3. context accounting: the touched RCs' deltas ----------------------
  max_rescan_ = false;
  for (const RcWork& w : rc_work_) account_rc(w, cand_sol);
  if (max_rescan_) {
    sg_.max_context_clbs = 0;
    for (const RcState& st : rc_) {
      sg_.max_context_clbs = std::max(sg_.max_context_clbs, st.max_clbs);
    }
  }

  if (profile_) profile_lap(prof_context_ns_);

  // ---- 4. incremental relaxation ------------------------------------------
  const WeightedDag dag{&sg_.graph, sg_.node_weight,
                        sg_.graph.edge_weights(), sg_.release};
  const auto makespan = relaxer_.probe(dag, seeds_, new_edges_);
  if (profile_) profile_lap(prof_relax_ns_);
  if (!makespan.has_value()) {
    rollback();
    if (profile_) profile_lap(prof_rollback_ns_);
    return std::nullopt;
  }

  Metrics m;
  m.makespan = *makespan;
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
  // Restore the relaxer's committed start/finish values first (in-place
  // candidate layout: a successful probe wrote over them under journal
  // protection; a cyclic probe journaled nothing, so this is a no-op).
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
