#pragma once
/// \file incremental.hpp
/// \brief Incremental longest-path maintenance.
///
/// §4.4: "Exploiting the property that simulated annealing is a local search
/// method, the longest path may in some cases be obtained incrementally by
/// means of a Woodbury-type update formula." DeltaRelaxer implements the
/// same idea with a dirty-set propagation: after a local edit (edges
/// added/removed around a few nodes), only the affected downstream region
/// is re-relaxed; when values stop changing, propagation stops. Results are
/// bit-identical to a full recomputation (property-tested) and the saving
/// is benchmarked in EXP-M1.
///
/// The §4.3 cycle test ("would this edit close a cycle?") is decided on
/// the same state: the relaxer keeps a topological ranking of the
/// committed graph, only an added edge that descends in it can close a
/// cycle, and such an edge triggers a Pearce–Kelly repair of its rank
/// window, whose forward sweep is the cycle certificate.
///
/// The relaxation reads edge weights from the graph's packed half-edge
/// adjacency (one flat (neighbor, weight) array per node — see
/// graph/digraph.hpp), so the relax inner loop is a single sequential
/// stream instead of an id-list walk through the edge table and a separate
/// weight array.

#include <optional>
#include <span>
#include <vector>

#include "graph/digraph.hpp"
#include "graph/longest_path.hpp"
#include "util/time.hpp"

namespace rdse {

/// Lifetime counters of a DeltaRelaxer. `relaxed_nodes / probes` against
/// `total_nodes / probes` is the EXP-M1 saving: a full evaluation relaxes
/// every node, the delta path only the affected region.
struct DeltaRelaxStats {
  std::int64_t probes = 0;          ///< candidate evaluations
  std::int64_t commits = 0;         ///< probes adopted as the new base
  std::int64_t cyclic = 0;          ///< probes rejected: candidate was cyclic
  std::int64_t seed_nodes = 0;      ///< nodes whose local inputs changed
  std::int64_t relaxed_nodes = 0;   ///< nodes actually re-relaxed
  std::int64_t total_nodes = 0;     ///< summed node count (full-relax cost)
  std::int64_t rank_refreshes = 0;  ///< probes whose committed ranks needed
                                    ///< repair (an added chain descended)
  std::int64_t rank_repairs = 0;       ///< Pearce–Kelly window reorders
                                       ///< (one per descending chain)
  std::int64_t rank_repair_nodes = 0;  ///< nodes moved by those reorders
  /// Probes whose makespan required a full O(V) finish-time rescan (the
  /// committed argmax set emptied and no relaxed node reached it); every
  /// other probe derived the makespan from the relaxed-node delta alone.
  std::int64_t makespan_rescans = 0;
  /// Undo-journal records written: one per node whose start/finish a probe
  /// actually changed. journal_entries / probes is the per-probe rollback
  /// cost, which replaced the two O(V) candidate-buffer copies of v3.
  std::int64_t journal_entries = 0;
};

/// Warm-start longest-path engine for the annealing hot path (§4.4, EXP-M1).
///
/// The annealer stages one candidate search graph per move, derived from the
/// committed one by a *local* edit (the caller mutates the graph in place
/// and rolls it back on rejection). The relaxer keeps only the committed
/// longest-path fixed point (start/finish values and topological ranks), no
/// graph. A probe has two steps:
///
///  1. gate(): the caller describes the candidate's structural edit against
///     the committed graph *before* writing it — the committed edges the
///     candidate drops (hide_edge) and the chain bicliques it adds
///     (add_chain: every source -> every target, e.g. one Ehw segment
///     terminals(k) x initials(k+1)) — and the gate decides whether the
///     candidate graph is acyclic (§4.3), repairing the ranks for it;
///  2. relax(): once the edit is written, re-relax from the *seed* nodes
///     whose local inputs changed. It inherits the committed values
///     everywhere else and re-relaxes in topological-rank order only while
///     values keep changing — a dirty-set propagation from several seeds at
///     once, walked as a forward sweep over a rank-indexed bitmask (the
///     next rank is tried first, a gap is skipped by one bit scan).
///     Results are bit-identical to a full recomputation (property-tested).
///
/// probe() runs both steps for an edit that is already in the graph.
///
/// Candidate values are written *in place* over the committed start/finish
/// arrays, guarded by a compact undo journal of (node, old start, old
/// finish) records — one per changed node. v3 copied both O(V) arrays into
/// candidate buffers on every probe; now a probe touches only O(relaxed)
/// memory: commit() truncates the journal (O(1)), and a rejected probe
/// replays it backwards to restore the committed fixed point bit-exactly.
/// Between relax() and commit()/discard(), start_of()/finish_of() therefore
/// read the *staged candidate*; makespan() always reads the committed value.
///
/// Acyclicity is decided for free in the common case: deletions and weight
/// changes cannot create a cycle, and every committed edge ascends in the
/// committed ranks, so only an added chain edge that *descends* can close a
/// cycle. If no added biclique holds a descending pair, the ranks remain a
/// valid topological numbering and the candidate is acyclic. Otherwise the
/// ranks are *repaired locally* (Pearce–Kelly dynamic topological sort):
/// the descending bicliques are adopted one at a time, each triggering two
/// bounded DFS sweeps over its rank window [min rank of its targets, max
/// rank of its sources] — forward from the targets and backward from the
/// sources — whose nodes are then re-packed into the window's own rank
/// slots (the sources' ancestors first, then the targets' descendants).
/// The sweeps walk the candidate graph as described — hidden edges
/// skipped, each added biclique crossed through its hub in O(sources +
/// targets), never as sources x targets edges — so the cost is
/// proportional to the affected window, not the graph; the forward sweep
/// reaching a source is exactly the cycle certificate. A cyclic candidate
/// is therefore rejected before any write to G' (the caller's graph) and
/// before any value is written, and leaves no journal to unwind.
///
/// The makespan is maintained incrementally as well: the relaxer carries
/// the multiplicity of the committed maximum (how many nodes finish exactly
/// at it) and derives each probe's makespan from the relaxed-node delta —
/// a changed node exceeding the old maximum dominates outright, and as long
/// as the argmax set stays populated the old maximum stands. Only when the
/// set empties while nothing relaxed reaches it can the new maximum hide
/// among untouched nodes, and only then does relax() fall back to a full
/// finish-time rescan (counted in DeltaRelaxStats::makespan_rescans).
///
/// All scratch storage is reused — steady-state probes allocate nothing
/// (asserted via the journal/scratch capacity watermarks in tests).
class DeltaRelaxer {
 public:
  /// Bind to the initial committed snapshot (full relaxation; the graph must
  /// be acyclic).
  void reset(const WeightedDag& dag);

  /// Start describing a candidate's structural edit against `committed`
  /// (the graph as the committed ranks know it). An unresolved previous
  /// probe is rolled back first, so the committed fixed point is the
  /// baseline either way.
  void begin_edit(const Digraph& committed);
  /// The candidate drops this committed edge.
  void hide_edge(EdgeId edge) { hidden_mark_[edge] = edit_epoch_; }
  /// The candidate adds an edge from every source to every target.
  void add_chain(std::span<const NodeId> sources,
                 std::span<const NodeId> targets);

  /// Step 1: is the described candidate graph acyclic? Counts the probe.
  /// On success the ranks are repaired in place for the candidate (under
  /// the rank journals — relax() relies on them); on a cycle they are left
  /// as committed.
  [[nodiscard]] bool gate(const Digraph& committed);
  /// A probe the caller refused as cyclic without describing it (a rule
  /// that needs no rank search decided it): counted exactly like a gate
  /// refusal, and nothing is staged.
  void refuse();

  /// Step 2, after a successful gate() and with the described edit written
  /// into `dag`: relax from `seeds` — every node whose local relaxation
  /// inputs changed (release, node weight, incoming edge set or incoming
  /// edge weights). Duplicates are fine. Under-seeding yields silently
  /// wrong values — callers are property-tested against full evaluation.
  /// Returns the candidate makespan.
  [[nodiscard]] TimeNs relax(const WeightedDag& dag,
                             std::span<const NodeId> seeds);

  /// Both steps for an edit already written into `dag`: `new_edges` are the
  /// edges present in `dag` but not in the committed graph (deletions need
  /// no mention). Returns the candidate makespan, or std::nullopt if the
  /// edited graph is cyclic.
  [[nodiscard]] std::optional<TimeNs> probe(const WeightedDag& dag,
                                            std::span<const NodeId> seeds,
                                            std::span<const EdgeId> new_edges);

  /// Adopt the last successful probe as the committed state (truncates the
  /// journal, O(1)).
  void commit();

  /// Roll the last probe back: replay the journal in reverse, restoring the
  /// committed start/finish values bit-exactly. No-op when nothing is
  /// staged.
  void discard();

  [[nodiscard]] TimeNs makespan() const { return makespan_; }
  /// Committed value — or the staged candidate's, between a successful
  /// probe and its commit()/discard() (in-place layout).
  [[nodiscard]] TimeNs start_of(NodeId node) const {
    RDSE_DCHECK(node < start_.size(), "DeltaRelaxer::start_of: bad node");
    return start_[node];
  }
  [[nodiscard]] TimeNs finish_of(NodeId node) const {
    RDSE_DCHECK(node < finish_.size(), "DeltaRelaxer::finish_of: bad node");
    return finish_[node];
  }
  [[nodiscard]] const DeltaRelaxStats& stats() const { return stats_; }
  [[nodiscard]] std::uint32_t last_relaxed() const { return last_relaxed_; }
  /// Undo-journal records staged by the last probe — value and rank
  /// records alike (cleared by commit()/discard()).
  [[nodiscard]] std::size_t journal_size() const {
    return journal_.size() + rank_journal_.size();
  }
  /// Scratch-capacity watermarks — steady-state probes must not move them
  /// (the "allocates nothing" property the tests pin down).
  [[nodiscard]] std::size_t journal_capacity() const {
    return journal_.capacity();
  }
  [[nodiscard]] std::size_t queued_capacity() const {
    return queued_.capacity();
  }

 private:
  /// One changed node's committed values, recorded before the in-place
  /// overwrite. Rollback replays these in reverse.
  struct JournalEntry {
    NodeId node;
    TimeNs start;
    TimeNs finish;
  };

  // Committed longest-path fixed point — start/finish are overwritten in
  // place by probes under journal protection. `order_` is the inverse rank
  // permutation (rank index -> node). `count_at_max_` is the number of
  // nodes whose finish equals makespan_ — the argmax multiplicity that
  // lets relax() update the maximum from the relaxed delta alone.
  std::vector<TimeNs> start_;
  std::vector<TimeNs> finish_;
  std::vector<std::uint32_t> rank_;
  std::vector<NodeId> order_;
  TimeNs makespan_ = 0;
  std::int64_t count_at_max_ = 0;

  // Last probe (valid until the next probe, commit or discard).
  std::vector<JournalEntry> journal_;
  /// Rank-repair journals: old rank per moved node / old occupant per
  /// reassigned order slot. Rank repair edits rank_/order_ in place (no
  /// O(V) candidate copies); rollback replays these in reverse.
  struct RankUndo {
    NodeId node;
    std::uint32_t rank;
  };
  struct OrderUndo {
    std::uint32_t slot;
    NodeId node;
  };
  std::vector<RankUndo> rank_journal_;
  std::vector<OrderUndo> order_journal_;
  TimeNs cand_makespan_ = 0;
  std::int64_t cand_count_at_max_ = 0;
  bool gated_ = false;  ///< gate() passed; relax() may run
  bool probe_valid_ = false;
  std::uint32_t last_relaxed_ = 0;

  // ---- the described edit (begin_edit .. gate) -----------------------------
  /// An added biclique: sources chain_nodes_[begin, mid), targets
  /// [mid, end). `adopt` is 0 when every pair ascends in the committed
  /// ranks (valid from the start), else 1 + its position in queue_.
  struct Chain {
    std::uint32_t begin;
    std::uint32_t mid;
    std::uint32_t end;
    std::uint32_t adopt;
  };
  /// Per-node heads of the singly linked lists of chains leaving / entering
  /// the node (into chain_links_), valid while `stamp` is the edit epoch.
  struct ChainHeads {
    std::uint32_t stamp = 0;
    std::uint32_t out = 0;  ///< 1 + link index, 0 = none
    std::uint32_t in = 0;
  };
  struct ChainLink {
    std::uint32_t chain;
    std::uint32_t next;  ///< 1 + link index, 0 = none
  };
  std::vector<Chain> chains_;
  std::vector<NodeId> chain_nodes_;
  std::vector<ChainLink> chain_links_;
  std::vector<ChainHeads> chain_heads_;
  std::vector<std::uint32_t> queue_;  ///< descending chains, adoption order
  /// Epoch-stamped "the candidate drops this committed edge", per EdgeId.
  std::vector<std::uint32_t> hidden_mark_;
  std::uint32_t edit_epoch_ = 0;

  void link_chain(NodeId v, std::uint32_t chain, bool out);
  /// Pearce–Kelly local repair of rank_/order_ in place (under the rank
  /// journals) for the described edit. Returns false when it closes a
  /// cycle — the partial repair is already rolled back in that case. Only
  /// nodes inside each descending chain's rank window are moved.
  [[nodiscard]] bool repair_ranks(const Digraph& g);
  void rollback_ranks();
  /// Replay all journals in reverse (committed values and ranks restored
  /// bit-exactly).
  void rollback_probe();

  /// Rank-indexed schedule bitmask: relaxation sweeps the rank positions
  /// of each non-empty word forward, and every rank queued during the sweep
  /// is strictly above its position (edges ascend), so one forward sweep
  /// visits every queued node in topological order — no priority queue,
  /// and no bit-scan between two adjacent ranks.
  std::vector<std::uint64_t> queued_;

  // repair_ranks scratch, reused across probes (steady state: no
  // allocation). visit_mark_ (per node) and chain_visit_ (per chain hub)
  // are epoch-stamped so sweeps never clear them.
  std::vector<std::uint32_t> visit_mark_;
  std::vector<std::uint32_t> chain_visit_;
  std::uint32_t visit_epoch_ = 0;
  std::vector<NodeId> dfs_stack_;
  std::vector<NodeId> delta_fwd_;
  std::vector<NodeId> delta_back_;
  std::vector<std::uint32_t> rank_pool_;

  DeltaRelaxStats stats_;
};

}  // namespace rdse
