#pragma once
/// \file solution.hpp
/// \brief A point in the design space (§3.3): spatial partitioning,
/// temporal partitioning, software ordering and implementation choices.
///
/// A Solution records, for every task,
///  - the resource executing it (processor / ASIC / reconfigurable circuit),
///  - for RC tasks: the run-time context (index into the RC's ordered
///    context list) and the chosen hardware implementation,
///  - for processor tasks: the position in that processor's total order.
///
/// The class stores the representation and maintains the mirror structures
/// (order lists <-> placements); *semantic* feasibility — capacity bounds,
/// acyclicity of the induced search graph — is enforced by the move layer
/// and checked by mapping/validation.hpp. Solutions are value types, but
/// the annealer stages each candidate move in place on the committed
/// solution under an undo log (begin_undo / rollback / drop_undo) instead
/// of copying it. They deliberately hold no pointers to the task graph or
/// architecture; methods that need those take them as parameters, so a
/// Solution can outlive architecture snapshots.

#include <cstdint>
#include <span>
#include <vector>

#include "arch/architecture.hpp"
#include "model/task_graph.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace rdse {

/// Where one task lives.
struct Placement {
  ResourceId resource = kInvalidResource;
  std::int32_t context = -1;  ///< context index on an RC; -1 otherwise
  std::uint32_t impl = 0;     ///< hardware implementation index (RC/ASIC)

  [[nodiscard]] bool assigned() const { return resource != kInvalidResource; }
  [[nodiscard]] bool operator==(const Placement&) const = default;
};

class Solution {
 public:
  /// All tasks unassigned (useful for hand-built scenarios and tests).
  explicit Solution(std::size_t task_count);

  /// Everything on one processor, in deterministic topological order —
  /// the paper's software-reference point (76.4 ms for motion detection).
  static Solution all_software(const TaskGraph& tg, ResourceId processor);

  /// The paper's initial solution (§5): start all-software, then move a
  /// random number of random hardware-capable tasks, one by one, to the RC
  /// with a random implementation; a new context is created whenever the
  /// capacity of the last context is exceeded.
  static Solution random_partition(const TaskGraph& tg,
                                   const Architecture& arch,
                                   ResourceId processor, ResourceId rc,
                                   Rng& rng);

  [[nodiscard]] std::size_t task_count() const { return placement_.size(); }
  [[nodiscard]] const Placement& placement(TaskId task) const {
    RDSE_REQUIRE(task < placement_.size(), "Solution: task id out of range");
    return placement_[task];
  }
  [[nodiscard]] ResourceId resource_of(TaskId task) const;

  // The three accessors below sit on the annealing hot path (realization,
  // reconciliation, move generation) — with flat id-indexed mirrors they
  // are single indexed loads, defined inline.
  /// Total order of tasks on a processor (empty if none assigned).
  [[nodiscard]] std::span<const TaskId> processor_order(
      ResourceId processor) const {
    if (processor >= proc_order_.size()) return {};
    return proc_order_[processor];
  }
  /// Position of a processor task within its order.
  [[nodiscard]] std::size_t order_position(TaskId task) const;

  /// Number of contexts currently allocated on an RC.
  [[nodiscard]] std::size_t context_count(ResourceId rc) const {
    return rc < rcs_.size() ? rcs_[rc].ends.size() : 0;
  }
  /// Members of one context (unordered — locally partial order).
  [[nodiscard]] std::span<const TaskId> context_tasks(
      ResourceId rc, std::size_t ctx) const {
    RDSE_REQUIRE(rc < rcs_.size() && ctx < rcs_[rc].ends.size(),
                 "context_tasks: no such context");
    const RcContexts& s = rcs_[rc];
    return {s.members.data() + s.begin(ctx), s.ends[ctx] - s.begin(ctx)};
  }
  /// CLBs occupied by a context under the current implementation choices.
  /// Served from the per-context sum mirror when the context is warm; a
  /// cold one is warmed first (see warm_context).
  [[nodiscard]] std::int32_t context_clbs(const TaskGraph& tg, ResourceId rc,
                                          std::size_t ctx) const {
    const std::int32_t cached = context_clbs_cached(rc, ctx);
    if (cached >= 0) return cached;
    warm_context(tg, rc, ctx);
    return rcs_[rc].clbs[ctx];
  }
  /// The mirrored CLB sum for a context, or -1 when the context is cold (a
  /// mutator ran without the task graph). Never walks the members.
  [[nodiscard]] std::int32_t context_clbs_cached(ResourceId rc,
                                                 std::size_t ctx) const {
    if (rc < rcs_.size() && ctx < rcs_[rc].clbs.size()) {
      return rcs_[rc].clbs[ctx];
    }
    return -1;
  }

  /// In-context application-edge counts of an RC task: how many of its
  /// immediate predecessors / successors share its context. A member with
  /// no in-context predecessor is an *initial* of its context, one with no
  /// in-context successor a *terminal* (§3.3). Maintained as deltas by the
  /// mutators; meaningful only while the task's context is warm.
  struct ContextLinks {
    std::int32_t preds = 0;
    std::int32_t succs = 0;
  };
  [[nodiscard]] const ContextLinks& context_links(TaskId task) const {
    RDSE_DCHECK(task < links_.size(), "context_links: task id out of range");
    return links_[task];
  }
  /// Re-derive a cold context's CLB sum and its members' link counts from
  /// the task graph (a no-op for a warm context). Mirror state only, hence
  /// const — like context_clbs, which calls it.
  void warm_context(const TaskGraph& tg, ResourceId rc, std::size_t ctx) const;
  /// Append the initials (`terminals` false) or terminals (`terminals`
  /// true) of a warm context to `out`, in member order, read off the link
  /// counts — what context_boundary() (search_graph.hpp) derives from the
  /// task graph, without walking a single edge.
  void append_boundary(ResourceId rc, std::size_t ctx, bool terminals,
                       std::vector<TaskId>& out) const;

  /// Tasks placed on an ASIC (unordered).
  [[nodiscard]] std::span<const TaskId> asic_tasks(ResourceId asic) const;

  /// Tasks on any resource of the given id.
  [[nodiscard]] std::size_t tasks_on(ResourceId id) const;

  // ---- mutators ----------------------------------------------------------
  //
  // The RC mutators take an optional task graph. With it they keep the
  // touched context warm: its CLB sum and its members' link counts are
  // updated as deltas. Without it (hand-built scenarios, tests) the context
  // goes cold and is re-derived on its next warm_context/context_clbs.

  /// Detach a task from wherever it is (no-op if unassigned). Empties are
  /// collapsed: a context left without tasks is destroyed, as in §4.2/§4.3.
  void remove_task(TaskId task, const TaskGraph* tg = nullptr);

  /// Insert an unassigned task into a processor's total order at `position`
  /// (clamped to [0, size]).
  void insert_on_processor(TaskId task, ResourceId processor,
                           std::size_t position);

  /// Insert an unassigned task at the end of an existing context's members.
  void insert_in_context(TaskId task, ResourceId rc, std::size_t ctx,
                         std::uint32_t impl, const TaskGraph* tg = nullptr);

  /// Insert an unassigned task on an ASIC.
  void insert_on_asic(TaskId task, ResourceId asic, std::uint32_t impl);

  /// Create an empty context right after `after` (pass npos to prepend at
  /// the front, or context_count()-1 to append). Returns the new index.
  std::size_t spawn_context_after(ResourceId rc, std::size_t after);
  static constexpr std::size_t kFront = static_cast<std::size_t>(-1);

  /// Move a processor task to a new position within the same order.
  void reposition(TaskId task, std::size_t new_position);

  /// Change the hardware implementation of an RC/ASIC task.
  void set_impl(TaskId task, std::uint32_t impl, const TaskGraph* tg = nullptr);

  /// Swap two contexts in the RC's execution order.
  void swap_contexts(ResourceId rc, std::size_t a, std::size_t b);

  /// Internal mirror-consistency check (aborts on violation; tests).
  void check_mirrors() const;

  // ---- mutation journal ---------------------------------------------------

  /// Resources whose assignment, ordering or implementation content has been
  /// modified by a mutator since the last clear_touched(). The incremental
  /// evaluator uses this to scope re-realization of the search graph; the
  /// journal is copied with the solution and ignored by operator==.
  [[nodiscard]] std::span<const ResourceId> touched_resources() const {
    return touched_;
  }
  /// Tasks whose own placement (resource, order position, context or
  /// implementation) was modified since the last clear_touched(). Context
  /// renumbering of bystander tasks is deliberately not journaled: it never
  /// changes a node weight, a communication weight (endpoints renumber
  /// together) or a release (handled per resource).
  [[nodiscard]] std::span<const TaskId> touched_tasks() const {
    return touched_tasks_;
  }

  /// One run of an RC's contexts rewritten since clear_touched(): the old
  /// contexts [old_pos, old_pos + old_len) became the current contexts
  /// [new_pos, new_pos + new_len). Every context outside the edits of its RC
  /// is unchanged — same members, implementations and CLB sum — and keeps
  /// its relative order, so an evaluator holding per-context state for the
  /// old list only revisits the edited runs and their two neighbours. Runs
  /// of one RC never touch (touching runs merge), and are sorted by
  /// position.
  struct ContextEdit {
    ResourceId rc = kInvalidResource;
    std::uint32_t old_pos = 0;
    std::uint32_t old_len = 0;
    std::uint32_t new_pos = 0;
    std::uint32_t new_len = 0;
    /// Summed / largest CLB sum of the replaced old contexts (old_max is -1
    /// when old_len is 0). old_clbs is -1 when one of them was cold, and
    /// neither figure is then usable.
    std::int32_t old_clbs = 0;
    std::int32_t old_max = -1;
    /// False while only implementations changed: members (and therefore
    /// context boundaries) are as before, only CLB sums moved.
    bool members_changed = false;
  };
  [[nodiscard]] std::span<const ContextEdit> context_edits() const {
    return edits_;
  }
  void clear_touched() {
    touched_.clear();
    touched_tasks_.clear();
    edits_.clear();
  }

  // ---- undo log -----------------------------------------------------------
  //
  // Between begin_undo() and rollback()/drop_undo(), every write a mutator
  // makes — placements (bystanders renumbered by a context spawn, collapse
  // or swap included), processor orders, ASIC lists, context members and
  // offsets, CLB sums, link counts — and every write warm_context makes to
  // the mirrors is logged with the value and position it overwrites. A
  // moved task's own placement and link counts are logged once, when the
  // journal first records it as touched. The mutation journal (touched
  // lists, context edits) is saved at begin_undo(). Copies never carry a
  // log.

  /// Start logging. The solution as it stands is what rollback() restores.
  void begin_undo() {
    RDSE_DCHECK(!undo_.on, "begin_undo: already logging");
    undo_.on = true;
    undo_.touched = touched_.size();
    undo_.touched_tasks = touched_tasks_.size();
    undo_.edits.assign(edits_.begin(), edits_.end());
  }
  /// Restore the solution as it was at begin_undo() bit-exactly — mirrors,
  /// cold (-1) CLB sums, link counts and the journal included — by
  /// replaying the log backwards, in time proportional to its entries.
  /// Stops logging. (A staging that logged nothing — a null move draw —
  /// changed nothing, the journal included: every journal write comes
  /// with a logged one.)
  void rollback() {
    if (undo_entries() != 0) {
      replay_undo();
    } else {
      undo_.on = false;
    }
  }
  /// Keep every change since begin_undo(); stops logging.
  void drop_undo() { undo_.clear(); }
  /// Entries logged since begin_undo() (0 while not logging).
  [[nodiscard]] std::size_t undo_entries() const {
    return undo_.ops.size() + undo_.tasks.size();
  }

  /// Semantic equality (placements and mirrors; the journal is ignored —
  /// and so are trailing/empty mirror slots, which only record that a
  /// resource id was once used).
  [[nodiscard]] bool operator==(const Solution& other) const;

  // Copies keep their storage: assigning into a solution (a best-so-far
  // snapshot, a replica-exchange reset) reserves every task list to the
  // task count once, so later copies and mutations never allocate.
  Solution(const Solution&) = default;
  Solution(Solution&&) noexcept = default;
  Solution& operator=(const Solution& other);
  Solution& operator=(Solution&&) noexcept = default;
  ~Solution() = default;

 private:
  /// One RC's ordered context list, flattened: the members of all contexts
  /// grouped by context, plus each context's end offset, so the per-move
  /// copy is a few flat vectors and spawning/collapsing a context never
  /// allocates.
  struct RcContexts {
    std::vector<TaskId> members;
    std::vector<std::uint32_t> ends;  ///< one past each context's members
    /// Per-context CLB sums, parallel to `ends`; -1 marks a cold context.
    /// A cache over the implementation choices: mutable (context_clbs warms
    /// it) and excluded from operator==.
    mutable std::vector<std::int32_t> clbs;

    [[nodiscard]] std::uint32_t begin(std::size_t ctx) const {
      return ctx == 0 ? 0 : ends[ctx - 1];
    }
    [[nodiscard]] bool operator==(const RcContexts& o) const {
      return members == o.members && ends == o.ends;
    }
  };

  /// One logged write to a positional mirror, undone by replaying the
  /// ops backwards. Per-task state (placement and link counts) is logged
  /// apart, as TaskRecords: it is plain per-task slots, restored after the
  /// ops, and no op's undo reads it.
  struct UndoOp {
    enum class Kind : std::uint8_t {
      kOrderInsert,    ///< proc_order_[res] gained an entry at pos
      kOrderErase,     ///< proc_order_[res] lost `value` at pos
      kAsicPush,       ///< asic_tasks_[res] gained a last entry
      kAsicErase,      ///< asic_tasks_[res] lost `value` at pos
      /// rcs_[res].members gained an entry at pos, and each of
      /// ends[aux..] grew by one
      kMemberInsert,
      /// rcs_[res].members lost `value` at pos, and each of ends[aux..]
      /// shrank by one
      kMemberErase,
      kMemberSet,      ///< rcs_[res].members[pos] was `value`
      kEndSet,         ///< rcs_[res].ends[pos] was `value`
      kClbSet,         ///< rcs_[res].clbs[pos] was `aux`
      kContextInsert,  ///< a context was inserted at pos of rcs_[res]
      kContextErase,   ///< context pos (end `value`, sum `aux`) was erased
      kProcSlots,      ///< proc_order_ grew from `value` slots
      kRcSlots,        ///< rcs_ grew from `value` slots
      kAsicSlots,      ///< asic_tasks_ grew from `value` slots
    };
    Kind kind;
    ResourceId res;
    std::uint32_t pos;
    std::uint32_t value;
    std::int32_t aux;
  };
  /// A task's placement and link counts before a write.
  struct TaskRecord {
    TaskId task;
    Placement placement;
    ContextLinks links;
  };
  /// The log proper. Not part of the value: a copy starts without one.
  struct UndoLog {
    bool on = false;
    std::vector<UndoOp> ops;
    std::vector<TaskRecord> tasks;
    std::size_t touched = 0;
    std::size_t touched_tasks = 0;
    std::vector<ContextEdit> edits;

    UndoLog() = default;
    UndoLog(const UndoLog&) {}
    UndoLog(UndoLog&&) noexcept = default;
    UndoLog& operator=(const UndoLog&) {
      clear();
      return *this;
    }
    UndoLog& operator=(UndoLog&&) noexcept = default;
    ~UndoLog() = default;
    void clear() {
      on = false;
      ops.clear();
      tasks.clear();
    }
  };

  /// rollback() proper: replay the log backwards, then clear it.
  void replay_undo();
  /// Log helpers: record the old value (when logging). A bystander's
  /// placement or link counts are logged before each write through
  /// placement_for_write / links_for_write; a task the mutator moves
  /// itself was logged by touch_task, so its own writes go direct.
  void log_op(UndoOp::Kind kind, ResourceId res, std::uint32_t pos,
              std::uint32_t value = 0, std::int32_t aux = 0) const {
    if (undo_.on) undo_.ops.push_back({kind, res, pos, value, aux});
  }
  void log_task(TaskId task) const {
    if (undo_.on) undo_.tasks.push_back({task, placement_[task], links_[task]});
  }
  Placement& placement_for_write(TaskId task) {
    log_task(task);
    return placement_[task];
  }
  ContextLinks& links_for_write(TaskId task) const {
    log_task(task);
    return links_[task];
  }
  void set_clbs(ResourceId rc, std::size_t ctx, std::int32_t value) const {
    std::int32_t& slot = rcs_[rc].clbs[ctx];
    log_op(UndoOp::Kind::kClbSet, rc, static_cast<std::uint32_t>(ctx), 0,
           slot);
    slot = value;
  }
  /// slot_at with the growth logged.
  template <typename Slots>
  typename Slots::value_type& slot_for_write(Slots& slots, ResourceId id,
                                             UndoOp::Kind kind);

  void touch(ResourceId id);
  /// Journal `id` as touched; while logging, also log its placement and
  /// link counts the first time this staging touches it.
  void touch_task(TaskId id);
  /// Journal index of the first run of `rc` ending after `ctx` (or
  /// where one would go); `shift` is the new-minus-old index offset the
  /// runs before it introduced.
  [[nodiscard]] std::size_t edit_locate(ResourceId rc, std::uint32_t ctx,
                                        std::int64_t& shift) const;
  /// Journal a rewrite of current context `ctx` of `rc` (before the
  /// mutation, so the old CLB sum is still in the mirror).
  void edit_modify(ResourceId rc, std::size_t ctx, bool members_changed);
  /// Journal the destruction of current context `ctx` (already journaled
  /// as modified) / the creation of a context at `ctx`.
  void edit_erase(ResourceId rc, std::size_t ctx);
  void edit_insert(ResourceId rc, std::size_t ctx);
  /// Merge touching runs of `rc` around journal index `i`.
  void edit_merge(std::size_t i);
  /// Add (+1) or retract (-1) `task`'s application edges to the members of
  /// its context in the link counts.
  void update_links(const TaskGraph& tg, TaskId task, int sign);

  std::vector<Placement> placement_;
  // The mirrors are flat slots indexed by the dense, never-reused resource
  // ids (a slot for a resource the solution never saw is simply empty) —
  // the accessors on the annealing hot path (processor_order,
  // context_tasks, context_count) are one indexed load instead of a tree
  // walk, and the per-move candidate copy reuses inner capacity.
  /// processor id -> total order
  std::vector<std::vector<TaskId>> proc_order_;
  /// rc id -> ordered context list (members unordered within a context)
  std::vector<RcContexts> rcs_;
  /// task id -> in-context link counts (mirror state like the CLB sums).
  mutable std::vector<ContextLinks> links_;
  /// asic id -> members
  std::vector<std::vector<TaskId>> asic_tasks_;
  /// Resources / tasks / context runs modified since clear_touched()
  /// (deduplicated, tiny).
  std::vector<ResourceId> touched_;
  std::vector<TaskId> touched_tasks_;
  std::vector<ContextEdit> edits_;
  /// Writes since begin_undo(); mutable because warm_context (const, like
  /// the mirrors it fills) logs too.
  mutable UndoLog undo_;
};

}  // namespace rdse
