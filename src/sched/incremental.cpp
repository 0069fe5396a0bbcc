#include "sched/incremental.hpp"

#include <algorithm>
#include <bit>
#include <limits>

#include "graph/topo.hpp"
#include "util/assert.hpp"

namespace rdse {

namespace {

/// Maximum finish time and its multiplicity — the argmax bookkeeping the
/// relaxer seeds its incremental tracking with on a full rescan.
struct MaxMultiplicity {
  TimeNs max = 0;
  std::int64_t count = 0;
};

MaxMultiplicity max_and_multiplicity(std::span<const TimeNs> finish) {
  MaxMultiplicity m;
  for (const TimeNs f : finish) {
    if (f > m.max) {
      m.max = f;
      m.count = 1;
    } else if (f == m.max) {
      ++m.count;
    }
  }
  return m;
}

}  // namespace

void DeltaRelaxer::reset(const WeightedDag& dag) {
  const LongestPathResult r = longest_path(dag);  // throws if cyclic
  start_ = r.start;
  finish_ = r.finish;
  const MaxMultiplicity m = max_and_multiplicity(finish_);
  RDSE_ASSERT(m.max == r.makespan);
  makespan_ = m.max;
  count_at_max_ = m.count;

  const auto order = topological_order(*dag.graph);
  RDSE_ASSERT(order.has_value());
  order_ = *order;
  rank_.assign(dag.graph->node_count(), 0);
  for (std::size_t i = 0; i < order->size(); ++i) {
    rank_[(*order)[i]] = static_cast<std::uint32_t>(i);
  }

  journal_.clear();
  rank_journal_.clear();
  order_journal_.clear();
  gated_ = false;
  probe_valid_ = false;
}

void DeltaRelaxer::rollback_ranks() {
  for (auto it = rank_journal_.rbegin(); it != rank_journal_.rend(); ++it) {
    rank_[it->node] = it->rank;
  }
  for (auto it = order_journal_.rbegin(); it != order_journal_.rend();
       ++it) {
    order_[it->slot] = it->node;
  }
  rank_journal_.clear();
  order_journal_.clear();
}

void DeltaRelaxer::rollback_probe() {
  for (auto it = journal_.rbegin(); it != journal_.rend(); ++it) {
    start_[it->node] = it->start;
    finish_[it->node] = it->finish;
  }
  journal_.clear();
  rollback_ranks();
  probe_valid_ = false;
}

void DeltaRelaxer::discard() { rollback_probe(); }

void DeltaRelaxer::begin_edit(const Digraph& committed) {
  // An unresolved previous probe left its candidate values and ranks in
  // place — restore the committed fixed point before describing a new
  // candidate.
  rollback_probe();
  gated_ = false;
  if (++edit_epoch_ == 0) {  // wrapped: stale stamps would alias
    std::fill(hidden_mark_.begin(), hidden_mark_.end(), 0);
    for (ChainHeads& h : chain_heads_) h.stamp = 0;
    edit_epoch_ = 1;
  }
  if (hidden_mark_.size() < committed.edge_capacity()) {
    hidden_mark_.resize(committed.edge_capacity(), 0);
  }
  if (chain_heads_.size() != rank_.size()) {
    chain_heads_.assign(rank_.size(), ChainHeads{});
  }
  chains_.clear();
  chain_nodes_.clear();
  chain_links_.clear();
  queue_.clear();
}

void DeltaRelaxer::link_chain(NodeId v, std::uint32_t chain, bool out) {
  ChainHeads& h = chain_heads_[v];
  if (h.stamp != edit_epoch_) h = {edit_epoch_, 0, 0};
  std::uint32_t& head = out ? h.out : h.in;
  chain_links_.push_back({chain, head});
  head = static_cast<std::uint32_t>(chain_links_.size());
}

void DeltaRelaxer::add_chain(std::span<const NodeId> sources,
                             std::span<const NodeId> targets) {
  if (sources.empty() || targets.empty()) return;
  // The biclique holds a descending pair iff its highest source does not
  // sit below its lowest target in the committed ranks.
  Chain c{};
  c.begin = static_cast<std::uint32_t>(chain_nodes_.size());
  std::uint32_t hi = 0;
  for (NodeId s : sources) {
    hi = std::max(hi, rank_[s]);
    chain_nodes_.push_back(s);
  }
  c.mid = static_cast<std::uint32_t>(chain_nodes_.size());
  std::uint32_t lo = std::numeric_limits<std::uint32_t>::max();
  for (NodeId t : targets) {
    lo = std::min(lo, rank_[t]);
    chain_nodes_.push_back(t);
  }
  c.end = static_cast<std::uint32_t>(chain_nodes_.size());
  if (hi >= lo) {
    queue_.push_back(static_cast<std::uint32_t>(chains_.size()));
    c.adopt = static_cast<std::uint32_t>(queue_.size());
  }
  chains_.push_back(c);
}

bool DeltaRelaxer::gate(const Digraph& committed) {
  RDSE_REQUIRE(committed.node_count() == rank_.size(),
               "DeltaRelaxer::gate: node count changed");
  ++stats_.probes;
  stats_.total_nodes += static_cast<std::int64_t>(rank_.size());
  // Every committed edge ascends in the committed ranks, and hiding edges
  // cannot break that: with no descending chain they number the candidate
  // as they are. Otherwise repair them locally, which also decides
  // acyclicity.
  if (!queue_.empty()) {
    ++stats_.rank_refreshes;
    // Only the repair walks chains by node: index them now.
    for (std::uint32_t c = 0; c < chains_.size(); ++c) {
      const Chain& chain = chains_[c];
      for (std::uint32_t k = chain.begin; k < chain.end; ++k) {
        link_chain(chain_nodes_[k], c, k < chain.mid);
      }
    }
    if (!repair_ranks(committed)) {
      ++stats_.cyclic;  // repair_ranks already rolled its edits back
      return false;
    }
  }
  gated_ = true;
  return true;
}

void DeltaRelaxer::refuse() {
  rollback_probe();
  gated_ = false;
  ++stats_.probes;
  ++stats_.cyclic;
  stats_.total_nodes += static_cast<std::int64_t>(rank_.size());
}

std::optional<TimeNs> DeltaRelaxer::probe(const WeightedDag& dag,
                                          std::span<const NodeId> seeds,
                                          std::span<const EdgeId> new_edges) {
  // The edit is already in the graph: describe each inserted edge as hidden
  // and re-added as a one-pair chain, so the gate sees the same candidate.
  const Digraph& g = *dag.graph;
  begin_edit(g);
  for (EdgeId e : new_edges) {
    const Digraph::Edge& ed = g.edge_unchecked(e);
    hide_edge(e);
    add_chain({&ed.src, 1}, {&ed.dst, 1});
  }
  if (!gate(g)) return std::nullopt;
  return relax(dag, seeds);
}

TimeNs DeltaRelaxer::relax(const WeightedDag& dag,
                           std::span<const NodeId> seeds) {
  RDSE_REQUIRE(gated_, "DeltaRelaxer::relax: no successful gate");
  gated_ = false;
  const Digraph& g = *dag.graph;
  const std::size_t n = g.node_count();
  RDSE_REQUIRE(n == rank_.size(), "DeltaRelaxer::relax: node count changed");
  stats_.seed_nodes += static_cast<std::int64_t>(seeds.size());

  // Multi-seed dirty propagation in ascending rank order via the schedule
  // bitmask. Every node is processed at most once: its predecessors (lower
  // rank) are final when its bit is consumed, because bits are only ever
  // set above the scan position (edges ascend in rank) or by the up-front
  // seeding. Candidate values are written directly over the committed
  // arrays; each changed node's committed values go into the journal
  // first, so a rejected probe replays it backwards instead of a v3-style
  // O(V) buffer copy per probe.
  queued_.assign((n + 63) / 64, 0);
  std::uint64_t* const queued = queued_.data();
  const std::uint32_t* const rank = rank_.data();
  const NodeId* const order = order_.data();
  TimeNs* const start = start_.data();
  TimeNs* const finish = finish_.data();
  const TimeNs* const node_weight = dag.node_weight.data();
  const TimeNs* const release =
      dag.release.empty() ? nullptr : dag.release.data();
  const TimeNs makespan = makespan_;
  for (NodeId v : seeds) {
    const std::uint32_t r = rank[v];
    queued[r >> 6] |= std::uint64_t{1} << (r & 63);
  }

  // Incremental makespan bookkeeping: `at_max` tracks how many candidate
  // nodes still finish exactly at the committed makespan (changed nodes
  // migrate out of / into the set as they are overwritten), `changed_max`
  // the maximum (and multiplicity) over the values written this probe.
  // The word being scanned lives in a register (`word`): an out-edge into
  // it sets its bit there, one into a later word sets it in memory. With
  // the arrays read through the pointers hoisted above, the int64 stores
  // to start/finish force no reload of the scan word or of a vector's or
  // span's internals (an int64 store may alias a uint64 or size_t).
  std::uint32_t relaxed = 0;
  std::int64_t at_max = count_at_max_;
  TimeNs changed_max = 0;
  std::int64_t changed_max_count = 0;
  const std::size_t words = queued_.size();
  for (std::size_t w = 0; w < words; ++w) {
    std::uint64_t word = queued[w];
    while (word != 0) {
      const auto bit = static_cast<std::uint32_t>(std::countr_zero(word));
      word &= word - 1;
      const NodeId v = order[(w << 6) | bit];
      ++relaxed;
      TimeNs s = release == nullptr ? 0 : release[v];
      for (const HalfEdge& h : g.in_half(v)) {
        RDSE_DCHECK(h.weight == dag.edge_weight[h.edge],
                    "DeltaRelaxer::relax: half-edge weight mirror desynced");
        s = std::max(s, finish[h.node] + h.weight);
      }
      const TimeNs f = s + node_weight[v];
      if (s == start[v] && f == finish[v]) {
        continue;  // unchanged: downstream unaffected through this node
      }
      journal_.push_back({v, start[v], finish[v]});
      if (finish[v] == makespan) --at_max;
      start[v] = s;
      finish[v] = f;
      if (f == makespan) ++at_max;
      if (f > changed_max) {
        changed_max = f;
        changed_max_count = 1;
      } else if (f == changed_max) {
        ++changed_max_count;
      }
      for (const HalfEdge& h : g.out_half(v)) {
        const std::uint32_t r = rank[h.node];
        const std::uint64_t mask = std::uint64_t{1} << (r & 63);
        if ((r >> 6) == w) {
          word |= mask;
        } else {
          queued[r >> 6] |= mask;
        }
      }
    }
  }
  last_relaxed_ = relaxed;
  stats_.relaxed_nodes += relaxed;
  stats_.journal_entries += static_cast<std::int64_t>(journal_.size());

  if (changed_max > makespan_) {
    // A changed node dominates every untouched one (all <= the committed
    // makespan): the probe maximum is known without any scan.
    cand_makespan_ = changed_max;
    cand_count_at_max_ = changed_max_count;
  } else if (at_max > 0) {
    // The committed maximum survives (someone still finishes there) and
    // nothing changed exceeds it.
    cand_makespan_ = makespan_;
    cand_count_at_max_ = at_max;
  } else {
    // Argmax set emptied and no changed node reached it: the new maximum
    // may hide among untouched nodes — the lazy full-rescan fallback
    // (finish_ holds the candidate values in place).
    ++stats_.makespan_rescans;
    const MaxMultiplicity m = max_and_multiplicity(finish_);
    cand_makespan_ = m.max;
    cand_count_at_max_ = m.count;
  }
  probe_valid_ = true;
  return cand_makespan_;
}

bool DeltaRelaxer::repair_ranks(const Digraph& g) {
  // Pearce–Kelly dynamic topological sort, batched: adopt the descending
  // chains one at a time into rank_/order_ *in place*, journaling every
  // write (the committed numbering stays valid for every committed edge
  // that is not hidden and for every chain that ascends, so it is the
  // correct starting point). The loop invariant is the textbook
  // single-insertion one, with a biclique in place of an edge — before
  // chain i is adopted, the repaired numbering is valid for the whole
  // candidate graph *minus* queue_[i..] — so both bounded sweeps below may
  // traverse every candidate edge except that not-yet-adopted suffix, and
  // the forward sweep (from the targets) reaching a source is an exact
  // cycle certificate. Sweeping from all of a biclique's targets and
  // sources at once keeps the classic proof: the targets' descendants only
  // move up, the sources' ancestors only move down. On a detected cycle the
  // partial repair is rolled back here, leaving the committed numbering
  // bit-intact.
  //
  // Each descending chain advances the epoch three times; re-zero the
  // marks when the remaining headroom could not cover this whole batch
  // (wrapping mid-call would alias stale marks and corrupt the sweeps).
  const std::uint32_t needed =
      3 * static_cast<std::uint32_t>(queue_.size()) + 3;
  if (visit_mark_.size() != rank_.size() ||
      visit_epoch_ >= std::numeric_limits<std::uint32_t>::max() - needed) {
    visit_mark_.assign(rank_.size(), 0);
    std::fill(chain_visit_.begin(), chain_visit_.end(), 0);
    visit_epoch_ = 0;
  }
  if (chain_visit_.size() < chains_.size()) {
    chain_visit_.resize(chains_.size(), 0);
  }
  const auto hidden = [&](EdgeId e) { return hidden_mark_[e] == edit_epoch_; };
  const auto sources = [&](const Chain& c) {
    return std::span<const NodeId>(chain_nodes_.data() + c.begin,
                                   c.mid - c.begin);
  };
  const auto targets = [&](const Chain& c) {
    return std::span<const NodeId>(chain_nodes_.data() + c.mid,
                                   c.end - c.mid);
  };
  const auto heads = [&](NodeId v) {
    const ChainHeads& h = chain_heads_[v];
    return h.stamp == edit_epoch_ ? h : ChainHeads{};
  };
  for (std::size_t i = 0; i < queue_.size(); ++i) {
    const Chain& chain = chains_[queue_[i]];
    std::uint32_t lb = std::numeric_limits<std::uint32_t>::max();
    std::uint32_t ub = 0;
    for (NodeId t : targets(chain)) lb = std::min(lb, rank_[t]);
    for (NodeId s : sources(chain)) ub = std::max(ub, rank_[s]);
    if (ub < lb) continue;  // already ascends under the repaired numbering
    ++stats_.rank_repairs;
    // A chain is walkable once adopted (or ascending from the start).
    const auto adopted = [&](std::uint32_t c) { return chains_[c].adopt <= i; };

    // delta_fwd_: nodes reachable from the targets inside the window. If a
    // source is reachable, the chain closes a cycle — report it, never
    // repair.
    const std::uint32_t source_mark = ++visit_epoch_;
    for (NodeId s : sources(chain)) visit_mark_[s] = source_mark;
    const std::uint32_t fwd = ++visit_epoch_;
    delta_fwd_.clear();
    dfs_stack_.clear();
    const auto reach_fwd = [&](NodeId w) {
      if (visit_mark_[w] == source_mark) return true;  // a cycle
      if (rank_[w] <= ub && visit_mark_[w] != fwd) {
        visit_mark_[w] = fwd;
        dfs_stack_.push_back(w);
      }
      return false;
    };
    bool cyclic = false;
    for (NodeId t : targets(chain)) cyclic = cyclic || reach_fwd(t);
    while (!cyclic && !dfs_stack_.empty()) {
      const NodeId v = dfs_stack_.back();
      dfs_stack_.pop_back();
      delta_fwd_.push_back(v);
      for (const HalfEdge& h : g.out_half(v)) {
        if (!hidden(h.edge) && reach_fwd(h.node)) {
          cyclic = true;
          break;
        }
      }
      for (std::uint32_t l = heads(v).out; l != 0 && !cyclic;
           l = chain_links_[l - 1].next) {
        const std::uint32_t c = chain_links_[l - 1].chain;
        if (!adopted(c) || chain_visit_[c] == fwd) continue;
        chain_visit_[c] = fwd;  // a hub is crossed once per sweep
        for (NodeId w : targets(chains_[c])) {
          if (reach_fwd(w)) {
            cyclic = true;
            break;
          }
        }
      }
    }
    if (cyclic) {
      rollback_ranks();
      return false;
    }

    // delta_back_: nodes reaching the sources inside the window. The two
    // sets are disjoint — a shared node would give a target->source path,
    // caught above.
    const std::uint32_t back = ++visit_epoch_;
    delta_back_.clear();
    const auto reach_back = [&](NodeId w) {
      if (rank_[w] >= lb && visit_mark_[w] != back) {
        visit_mark_[w] = back;
        dfs_stack_.push_back(w);
      }
    };
    for (NodeId s : sources(chain)) reach_back(s);
    while (!dfs_stack_.empty()) {
      const NodeId v = dfs_stack_.back();
      dfs_stack_.pop_back();
      delta_back_.push_back(v);
      for (const HalfEdge& h : g.in_half(v)) {
        if (!hidden(h.edge)) reach_back(h.node);
      }
      for (std::uint32_t l = heads(v).in; l != 0;
           l = chain_links_[l - 1].next) {
        const std::uint32_t c = chain_links_[l - 1].chain;
        if (!adopted(c) || chain_visit_[c] == back) continue;
        chain_visit_[c] = back;
        for (NodeId w : sources(chains_[c])) reach_back(w);
      }
    }

    // Re-pack the union into its own rank slots: the sources' ancestors
    // first (in their old relative order), then the targets' descendants —
    // every other node keeps its rank, so all previously-ascending edges
    // still ascend. The affected sets are tiny (a handful of nodes per
    // repair), so plain insertion sorts beat std::sort's dispatch overhead
    // here, and the slot pool is just the merge of the two already-sorted
    // rank runs.
    const auto insertion_by_rank = [&](std::vector<NodeId>& v) {
      for (std::size_t a = 1; a < v.size(); ++a) {
        const NodeId n = v[a];
        const std::uint32_t r = rank_[n];
        std::size_t b = a;
        for (; b > 0 && rank_[v[b - 1]] > r; --b) v[b] = v[b - 1];
        v[b] = n;
      }
    };
    insertion_by_rank(delta_fwd_);
    insertion_by_rank(delta_back_);
    rank_pool_.clear();
    {
      std::size_t a = 0;
      std::size_t b = 0;
      while (a < delta_back_.size() && b < delta_fwd_.size()) {
        const std::uint32_t ra = rank_[delta_back_[a]];
        const std::uint32_t rb = rank_[delta_fwd_[b]];
        if (ra < rb) {
          rank_pool_.push_back(ra);
          ++a;
        } else {
          rank_pool_.push_back(rb);
          ++b;
        }
      }
      for (; a < delta_back_.size(); ++a) {
        rank_pool_.push_back(rank_[delta_back_[a]]);
      }
      for (; b < delta_fwd_.size(); ++b) {
        rank_pool_.push_back(rank_[delta_fwd_[b]]);
      }
    }
    const auto move_to = [&](NodeId v, std::uint32_t slot) {
      rank_journal_.push_back({v, rank_[v]});
      order_journal_.push_back({slot, order_[slot]});
      rank_[v] = slot;
      order_[slot] = v;
    };
    std::size_t slot = 0;
    for (NodeId v : delta_back_) move_to(v, rank_pool_[slot++]);
    for (NodeId v : delta_fwd_) move_to(v, rank_pool_[slot++]);
    stats_.rank_repair_nodes +=
        static_cast<std::int64_t>(delta_fwd_.size() + delta_back_.size());
  }
  return true;
}

void DeltaRelaxer::commit() {
  RDSE_REQUIRE(probe_valid_,
               "DeltaRelaxer::commit: no successful probe staged");
  // start_/finish_ (and any repaired ranks) already hold the candidate
  // values in place: adopting them is just truncating the journals.
  journal_.clear();
  rank_journal_.clear();
  order_journal_.clear();
  makespan_ = cand_makespan_;
  count_at_max_ = cand_count_at_max_;
  probe_valid_ = false;
  ++stats_.commits;
}

}  // namespace rdse
