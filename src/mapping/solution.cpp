#include "mapping/solution.hpp"

#include <algorithm>

#include "graph/topo.hpp"
#include "util/assert.hpp"

namespace rdse {

namespace {

/// Grow-on-demand access to a flat resource-id-indexed slot vector.
template <typename Slots>
typename Slots::value_type& slot_at(Slots& slots, ResourceId id) {
  if (id >= slots.size()) {
    slots.resize(static_cast<std::size_t>(id) + 1);
  }
  return slots[id];
}

/// Slot-vector equality that ignores absent/empty slots: an empty slot only
/// records that a resource id was once used, which is not a semantic
/// difference between solutions.
template <typename Slots>
bool slots_equal(const Slots& a, const Slots& b) {
  const typename Slots::value_type empty{};
  const std::size_t n = std::max(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i) {
    const auto& va = i < a.size() ? a[i] : empty;
    const auto& vb = i < b.size() ? b[i] : empty;
    if (va != vb) return false;
  }
  return true;
}

}  // namespace

Solution::Solution(std::size_t task_count)
    : placement_(task_count), links_(task_count) {}

bool Solution::operator==(const Solution& other) const {
  return placement_ == other.placement_ &&
         slots_equal(proc_order_, other.proc_order_) &&
         slots_equal(rcs_, other.rcs_) &&
         slots_equal(asic_tasks_, other.asic_tasks_);
}

namespace {

/// Copy `src` into `dst` keeping `dst`'s storage, after reserving it to
/// `bound` elements once — every task list of a solution is bounded by the
/// task count, so later copies and in-place growth never reallocate.
template <typename T>
void copy_bounded(std::vector<T>& dst, const std::vector<T>& src,
                  std::size_t bound) {
  if (dst.capacity() < bound) dst.reserve(bound);
  dst.assign(src.begin(), src.end());
}

/// copy_bounded over a resource-indexed slot vector of task lists.
template <typename Slots, typename CopySlot>
void copy_slots(Slots& dst, const Slots& src, CopySlot copy_slot) {
  dst.resize(src.size());
  for (std::size_t i = 0; i < src.size(); ++i) copy_slot(dst[i], src[i]);
}

}  // namespace

Solution& Solution::operator=(const Solution& other) {
  if (this == &other) return *this;
  const std::size_t n = other.placement_.size();
  placement_ = other.placement_;
  links_ = other.links_;
  const auto copy_list = [n](std::vector<TaskId>& d,
                             const std::vector<TaskId>& s) {
    copy_bounded(d, s, n);
  };
  copy_slots(proc_order_, other.proc_order_, copy_list);
  copy_slots(asic_tasks_, other.asic_tasks_, copy_list);
  const auto copy_rc = [n](RcContexts& d, const RcContexts& s) {
    // A context holds at least one task once the move completes; a freshly
    // spawned one may briefly be the (n+1)-th.
    copy_bounded(d.members, s.members, n);
    copy_bounded(d.ends, s.ends, n + 1);
    copy_bounded(d.clbs, s.clbs, n + 1);
  };
  copy_slots(rcs_, other.rcs_, copy_rc);
  touched_ = other.touched_;
  copy_bounded(touched_tasks_, other.touched_tasks_, n);
  edits_ = other.edits_;
  return *this;
}

Solution Solution::all_software(const TaskGraph& tg, ResourceId processor) {
  Solution sol(tg.task_count());
  const auto order = topological_order(tg.digraph());
  RDSE_REQUIRE(order.has_value(), "all_software: task graph is cyclic");
  for (TaskId t : *order) {
    sol.insert_on_processor(t, processor,
                            sol.processor_order(processor).size());
  }
  return sol;
}

Solution Solution::random_partition(const TaskGraph& tg,
                                    const Architecture& arch,
                                    ResourceId processor, ResourceId rc,
                                    Rng& rng) {
  const ReconfigurableCircuit& dev = arch.reconfigurable(rc);

  std::vector<TaskId> candidates;
  for (TaskId t = 0; t < tg.task_count(); ++t) {
    // Only tasks with at least one implementation fitting the device.
    if (tg.task(t).hw_capable() && tg.task(t).hw.min_clbs() <= dev.n_clbs()) {
      candidates.push_back(t);
    }
  }
  if (candidates.empty()) {
    return all_software(tg, processor);
  }
  rng.shuffle(candidates);
  // "A random number of tasks are moved, one by one, to the RC."
  const std::size_t n_move = rng.index(candidates.size() + 1);
  std::vector<bool> to_hw(tg.task_count(), false);
  for (std::size_t i = 0; i < n_move; ++i) {
    to_hw[candidates[i]] = true;
  }

  // Realize everything in (ASAP level, id) order. This single linearization
  // is a valid linear extension of the precedence relation *and* keeps the
  // greedy context sequence level-monotone, so the mixed Esw/Ehw constraint
  // graph G' is acyclic by construction. (An arbitrary packing or software
  // order can deadlock across branches: a software order placing branch-A's
  // tail before branch-B's head conflicts with context sequencing edges
  // that order their contexts the other way.)
  const auto level = asap_levels(tg.digraph());
  std::vector<TaskId> order(tg.task_count());
  for (TaskId t = 0; t < tg.task_count(); ++t) order[t] = t;
  std::sort(order.begin(), order.end(), [&level](TaskId a, TaskId b) {
    return level[a] != level[b] ? level[a] < level[b] : a < b;
  });

  Solution sol(tg.task_count());
  for (const TaskId t : order) {
    if (!to_hw[t]) {
      sol.insert_on_processor(t, processor,
                              sol.processor_order(processor).size());
      continue;
    }
    const auto& impls = tg.task(t).hw;
    // Random implementation among those that fit an empty context.
    std::vector<std::uint32_t> fitting;
    for (std::uint32_t k = 0; k < impls.size(); ++k) {
      if (impls.at(k).clbs <= dev.n_clbs()) fitting.push_back(k);
    }
    RDSE_ASSERT(!fitting.empty());
    const std::uint32_t impl = fitting[rng.index(fitting.size())];

    // Pack into the last context; spawn when capacity is exceeded (§5).
    std::size_t ctx;
    if (sol.context_count(rc) == 0) {
      ctx = sol.spawn_context_after(rc, kFront);
    } else {
      ctx = sol.context_count(rc) - 1;
      const std::int32_t used = sol.context_clbs(tg, rc, ctx);
      if (used + impls.at(impl).clbs > dev.n_clbs()) {
        ctx = sol.spawn_context_after(rc, ctx);
      }
    }
    sol.insert_in_context(t, rc, ctx, impl, &tg);
  }
  return sol;
}

ResourceId Solution::resource_of(TaskId task) const {
  return placement(task).resource;
}

std::size_t Solution::order_position(TaskId task) const {
  const Placement& p = placement(task);
  const auto order = processor_order(p.resource);
  RDSE_REQUIRE(!order.empty(), "order_position: task is not on a processor");
  const auto pos = std::find(order.begin(), order.end(), task);
  RDSE_ASSERT(pos != order.end());
  return static_cast<std::size_t>(pos - order.begin());
}

void Solution::warm_context(const TaskGraph& tg, ResourceId rc,
                            std::size_t ctx) const {
  RDSE_REQUIRE(ctx < context_count(rc), "warm_context: no such context");
  const RcContexts& s = rcs_[rc];
  if (s.clbs[ctx] >= 0) return;
  const Digraph& g = tg.digraph();
  std::int32_t total = 0;
  for (TaskId t : context_tasks(rc, ctx)) {
    total += tg.task(t).hw.at(placement_[t].impl).clbs;
    ContextLinks& l = links_[t];
    l = {};
    for (const HalfEdge& h : g.in_half(t)) {
      const Placement& q = placement_[h.node];
      l.preds += q.resource == rc && q.context == static_cast<int>(ctx);
    }
    for (const HalfEdge& h : g.out_half(t)) {
      const Placement& q = placement_[h.node];
      l.succs += q.resource == rc && q.context == static_cast<int>(ctx);
    }
  }
  s.clbs[ctx] = total;
}

void Solution::append_boundary(ResourceId rc, std::size_t ctx, bool terminals,
                               std::vector<TaskId>& out) const {
  RDSE_DCHECK(context_clbs_cached(rc, ctx) >= 0,
              "append_boundary: context is cold");
  for (TaskId t : context_tasks(rc, ctx)) {
    const ContextLinks& l = links_[t];
    if ((terminals ? l.succs : l.preds) == 0) out.push_back(t);
  }
}

void Solution::update_links(const TaskGraph& tg, TaskId task, int sign) {
  const Placement& p = placement_[task];
  const Digraph& g = tg.digraph();
  for (const HalfEdge& h : g.in_half(task)) {
    const Placement& q = placement_[h.node];
    if (q.resource == p.resource && q.context == p.context) {
      links_[h.node].succs += sign;
      links_[task].preds += sign;
    }
  }
  for (const HalfEdge& h : g.out_half(task)) {
    const Placement& q = placement_[h.node];
    if (q.resource == p.resource && q.context == p.context) {
      links_[h.node].preds += sign;
      links_[task].succs += sign;
    }
  }
}

std::span<const TaskId> Solution::asic_tasks(ResourceId asic) const {
  if (asic >= asic_tasks_.size()) return {};
  return asic_tasks_[asic];
}

std::size_t Solution::tasks_on(ResourceId id) const {
  std::size_t n = 0;
  for (const Placement& p : placement_) {
    n += (p.resource == id) ? 1 : 0;
  }
  return n;
}

void Solution::touch(ResourceId id) {
  if (std::find(touched_.begin(), touched_.end(), id) == touched_.end()) {
    touched_.push_back(id);
  }
}

void Solution::touch_task(TaskId id) {
  if (std::find(touched_tasks_.begin(), touched_tasks_.end(), id) ==
      touched_tasks_.end()) {
    touched_tasks_.push_back(id);
  }
}

std::size_t Solution::edit_locate(ResourceId rc, std::uint32_t ctx,
                                  std::int64_t& shift) const {
  // Runs of one RC are contiguous and sorted in the journal. Returns the
  // index of the first run of `rc` ending after `ctx` (or the slot right
  // behind the RC's last run); `shift` accumulates new - old index over
  // the runs passed.
  shift = 0;
  std::size_t at = edits_.size();
  for (std::size_t i = 0; i < edits_.size(); ++i) {
    const ContextEdit& e = edits_[i];
    if (e.rc != rc) {
      if (at != edits_.size()) break;  // past the RC's runs
      continue;
    }
    at = i;
    if (ctx < e.new_pos + e.new_len) return i;
    shift += static_cast<std::int64_t>(e.new_len) - e.old_len;
    at = i + 1;
  }
  return at;
}

void Solution::edit_modify(ResourceId rc, std::size_t ctx,
                           bool members_changed) {
  const auto c = static_cast<std::uint32_t>(ctx);
  std::int64_t shift = 0;
  const std::size_t i = edit_locate(rc, c, shift);
  if (i < edits_.size() && edits_[i].rc == rc && c >= edits_[i].new_pos &&
      c < edits_[i].new_pos + edits_[i].new_len) {
    edits_[i].members_changed |= members_changed;
    return;  // already rewritten within this journal
  }
  const std::int32_t clbs = rcs_[rc].clbs[ctx];
  ContextEdit e;
  e.rc = rc;
  e.old_pos = static_cast<std::uint32_t>(c - shift);
  e.old_len = 1;
  e.new_pos = c;
  e.new_len = 1;
  e.old_clbs = clbs;
  e.old_max = clbs;
  e.members_changed = members_changed;
  edits_.insert(edits_.begin() + static_cast<std::ptrdiff_t>(i), e);
  edit_merge(i);
}

void Solution::edit_erase(ResourceId rc, std::size_t ctx) {
  const auto c = static_cast<std::uint32_t>(ctx);
  for (std::size_t i = 0; i < edits_.size(); ++i) {
    ContextEdit& e = edits_[i];
    if (e.rc != rc || c >= e.new_pos + e.new_len) continue;
    if (c >= e.new_pos) {
      --e.new_len;
      for (std::size_t j = i + 1; j < edits_.size(); ++j) {
        if (edits_[j].rc == rc) --edits_[j].new_pos;
      }
      // A context created and destroyed within one journal leaves no trace
      // (the gaps to the neighbouring runs are unchanged).
      if (e.old_len == 0 && e.new_len == 0) {
        edits_.erase(edits_.begin() + static_cast<std::ptrdiff_t>(i));
      }
      return;
    }
    break;
  }
  RDSE_ASSERT_MSG(false, "edit_erase: context not journaled as modified");
}

void Solution::edit_insert(ResourceId rc, std::size_t ctx) {
  const auto c = static_cast<std::uint32_t>(ctx);
  std::int64_t shift = 0;
  const std::size_t i = edit_locate(rc, c, shift);
  // A context created inside a run joins it; otherwise it opens a run of
  // its own, merged with a run it lands right behind.
  const bool join = i < edits_.size() && edits_[i].rc == rc &&
                    c >= edits_[i].new_pos;
  for (std::size_t j = join ? i + 1 : i; j < edits_.size(); ++j) {
    if (edits_[j].rc == rc) ++edits_[j].new_pos;
  }
  if (join) {
    ++edits_[i].new_len;
    edits_[i].members_changed = true;
    return;
  }
  ContextEdit e;
  e.rc = rc;
  e.old_pos = static_cast<std::uint32_t>(c - shift);
  e.new_pos = c;
  e.new_len = 1;
  e.members_changed = true;
  edits_.insert(edits_.begin() + static_cast<std::ptrdiff_t>(i), e);
  edit_merge(i);
}

void Solution::edit_merge(std::size_t i) {
  // Runs of one RC are contiguous and sorted in the journal; fold the run
  // at `i` into its predecessor and successor while they touch.
  const auto touching = [this](std::size_t a, std::size_t b) {
    return edits_[a].rc == edits_[b].rc &&
           edits_[a].new_pos + edits_[a].new_len == edits_[b].new_pos;
  };
  const auto fold = [this](std::size_t a) {
    ContextEdit& e = edits_[a];
    const ContextEdit& f = edits_[a + 1];
    e.old_len += f.old_len;
    e.new_len += f.new_len;
    e.old_clbs = e.old_clbs < 0 || f.old_clbs < 0 ? -1
                                                  : e.old_clbs + f.old_clbs;
    e.old_max = std::max(e.old_max, f.old_max);
    e.members_changed |= f.members_changed;
    edits_.erase(edits_.begin() + static_cast<std::ptrdiff_t>(a) + 1);
  };
  if (i > 0 && touching(i - 1, i)) {
    fold(i - 1);
    --i;
  }
  if (i + 1 < edits_.size() && touching(i, i + 1)) fold(i);
}

void Solution::remove_task(TaskId task, const TaskGraph* tg) {
  RDSE_REQUIRE(task < placement_.size(), "Solution: task id out of range");
  Placement& p = placement_[task];
  if (!p.assigned()) return;
  touch(p.resource);
  touch_task(task);

  if (p.resource < proc_order_.size()) {
    auto& order = proc_order_[p.resource];
    const auto pos = std::find(order.begin(), order.end(), task);
    if (pos != order.end()) {
      order.erase(pos);
      p = Placement{};
      return;
    }
  }
  if (p.context >= 0) {
    RDSE_ASSERT(p.resource < rcs_.size());
    RcContexts& s = rcs_[p.resource];
    const auto ctx = static_cast<std::size_t>(p.context);
    RDSE_ASSERT(ctx < s.ends.size());
    edit_modify(p.resource, ctx, true);
    const std::uint32_t begin = s.begin(ctx);
    const auto pos = std::find(s.members.begin() + begin,
                               s.members.begin() + s.ends[ctx], task);
    RDSE_ASSERT(pos != s.members.begin() + s.ends[ctx]);
    std::int32_t& sum = s.clbs[ctx];
    if (sum >= 0 && tg != nullptr) {
      sum -= tg->task(task).hw.at(p.impl).clbs;
      update_links(*tg, task, -1);
    } else {
      sum = -1;
    }
    links_[task] = {};
    s.members.erase(pos);
    for (std::size_t c = ctx; c < s.ends.size(); ++c) --s.ends[c];
    if (begin == s.ends[ctx]) {
      // Destroy the emptied context and renumber the members behind it.
      edit_erase(p.resource, ctx);
      s.ends.erase(s.ends.begin() + static_cast<std::ptrdiff_t>(ctx));
      s.clbs.erase(s.clbs.begin() + static_cast<std::ptrdiff_t>(ctx));
      for (auto it = s.members.begin() + begin; it != s.members.end(); ++it) {
        --placement_[*it].context;
      }
    }
    p = Placement{};
    return;
  }
  if (p.resource < asic_tasks_.size()) {
    auto& members = asic_tasks_[p.resource];
    const auto pos = std::find(members.begin(), members.end(), task);
    if (pos != members.end()) {
      members.erase(pos);
      p = Placement{};
      return;
    }
  }
  RDSE_ASSERT_MSG(false, "Solution::remove_task: placement without mirror");
}

void Solution::insert_on_processor(TaskId task, ResourceId processor,
                                   std::size_t position) {
  RDSE_REQUIRE(task < placement_.size(), "Solution: task id out of range");
  RDSE_REQUIRE(!placement_[task].assigned(),
               "insert_on_processor: task already assigned");
  touch(processor);
  touch_task(task);
  auto& order = slot_at(proc_order_, processor);
  position = std::min(position, order.size());
  order.insert(order.begin() + static_cast<std::ptrdiff_t>(position), task);
  placement_[task] = Placement{processor, -1, 0};
}

void Solution::insert_in_context(TaskId task, ResourceId rc, std::size_t ctx,
                                 std::uint32_t impl, const TaskGraph* tg) {
  RDSE_REQUIRE(task < placement_.size(), "Solution: task id out of range");
  RDSE_REQUIRE(!placement_[task].assigned(),
               "insert_in_context: task already assigned");
  RDSE_REQUIRE(ctx < context_count(rc),
               "insert_in_context: no context " + std::to_string(ctx) +
                   " on resource " + std::to_string(rc) + " (" +
                   std::to_string(context_count(rc)) + " contexts)");
  touch(rc);
  touch_task(task);
  edit_modify(rc, ctx, true);
  RcContexts& s = rcs_[rc];
  s.members.insert(s.members.begin() + s.ends[ctx], task);
  for (std::size_t c = ctx; c < s.ends.size(); ++c) ++s.ends[c];
  placement_[task] = Placement{rc, static_cast<std::int32_t>(ctx), impl};
  links_[task] = {};
  std::int32_t& sum = s.clbs[ctx];
  if (sum >= 0 && tg != nullptr) {
    sum += tg->task(task).hw.at(impl).clbs;
    update_links(*tg, task, +1);
  } else {
    sum = -1;
  }
}

void Solution::insert_on_asic(TaskId task, ResourceId asic,
                              std::uint32_t impl) {
  RDSE_REQUIRE(task < placement_.size(), "Solution: task id out of range");
  RDSE_REQUIRE(!placement_[task].assigned(),
               "insert_on_asic: task already assigned");
  touch(asic);
  touch_task(task);
  slot_at(asic_tasks_, asic).push_back(task);
  placement_[task] = Placement{asic, -1, impl};
}

std::size_t Solution::spawn_context_after(ResourceId rc, std::size_t after) {
  touch(rc);
  RcContexts& s = slot_at(rcs_, rc);
  std::size_t pos;
  if (after == kFront) {
    pos = 0;
  } else {
    RDSE_REQUIRE(after < s.ends.size(),
                 "spawn_context_after: context index out of range");
    pos = after + 1;
  }
  edit_insert(rc, pos);
  const std::uint32_t at = s.begin(pos);
  s.ends.insert(s.ends.begin() + static_cast<std::ptrdiff_t>(pos), at);
  // A fresh context holds nothing: its sum is known to be zero.
  s.clbs.insert(s.clbs.begin() + static_cast<std::ptrdiff_t>(pos), 0);
  for (auto it = s.members.begin() + at; it != s.members.end(); ++it) {
    ++placement_[*it].context;
  }
  return pos;
}

void Solution::reposition(TaskId task, std::size_t new_position) {
  const Placement p = placement(task);
  RDSE_REQUIRE(p.resource < proc_order_.size() &&
                   !proc_order_[p.resource].empty(),
               "reposition: task is not on a processor");
  touch(p.resource);
  touch_task(task);
  auto& order = proc_order_[p.resource];
  const auto pos = std::find(order.begin(), order.end(), task);
  RDSE_ASSERT(pos != order.end());
  order.erase(pos);
  new_position = std::min(new_position, order.size());
  order.insert(order.begin() + static_cast<std::ptrdiff_t>(new_position),
               task);
}

void Solution::set_impl(TaskId task, std::uint32_t impl, const TaskGraph* tg) {
  RDSE_REQUIRE(task < placement_.size(), "Solution: task id out of range");
  Placement& p = placement_[task];
  RDSE_REQUIRE(p.assigned() && p.context >= 0,
               "set_impl: task is not on a reconfigurable circuit");
  touch(p.resource);
  touch_task(task);
  const auto ctx = static_cast<std::size_t>(p.context);
  edit_modify(p.resource, ctx, false);
  std::int32_t& sum = rcs_[p.resource].clbs[ctx];
  if (sum >= 0 && tg != nullptr) {
    const auto& impls = tg->task(task).hw;
    sum += impls.at(impl).clbs - impls.at(p.impl).clbs;
  } else {
    sum = -1;
  }
  p.impl = impl;
}

void Solution::swap_contexts(ResourceId rc, std::size_t a, std::size_t b) {
  RDSE_REQUIRE(a < context_count(rc) && b < context_count(rc),
               "swap_contexts: context index out of range");
  if (a == b) return;
  if (a > b) std::swap(a, b);
  touch(rc);
  edit_modify(rc, a, true);
  edit_modify(rc, b, true);
  RcContexts& s = rcs_[rc];
  // Members [A | M | B] become [B | M | A]; each block keeps its order.
  const auto first = s.members.begin() + s.begin(a);
  const auto mid = s.members.begin() + s.begin(b);
  const auto last = s.members.begin() + s.ends[b];
  const std::uint32_t len_a = s.ends[a] - s.begin(a);
  const std::uint32_t len_b = s.ends[b] - s.begin(b);
  std::rotate(first, mid, last);  // [B | A | M]
  std::rotate(first + len_b, first + len_b + len_a, last);
  for (std::size_t c = a; c < b; ++c) {
    s.ends[c] = s.ends[c] - len_a + len_b;
  }
  std::swap(s.clbs[a], s.clbs[b]);
  for (auto it = first; it != last; ++it) {
    Placement& q = placement_[*it];
    if (q.context == static_cast<std::int32_t>(a)) {
      q.context = static_cast<std::int32_t>(b);
    } else if (q.context == static_cast<std::int32_t>(b)) {
      q.context = static_cast<std::int32_t>(a);
    }
  }
}

void Solution::check_mirrors() const {
  std::vector<int> seen(placement_.size(), 0);
  for (ResourceId proc = 0; proc < proc_order_.size(); ++proc) {
    for (TaskId t : proc_order_[proc]) {
      RDSE_ASSERT(t < placement_.size());
      RDSE_ASSERT(placement_[t].resource == proc);
      RDSE_ASSERT(placement_[t].context == -1);
      ++seen[t];
    }
  }
  for (ResourceId rc = 0; rc < rcs_.size(); ++rc) {
    const RcContexts& s = rcs_[rc];
    RDSE_ASSERT_MSG(s.clbs.size() == s.ends.size(),
                    "Solution: CLB-sum mirror out of step with contexts");
    RDSE_ASSERT_MSG(s.ends.empty() ? s.members.empty()
                                   : s.ends.back() == s.members.size(),
                    "Solution: context offsets out of step with members");
    for (std::size_t c = 0; c < s.ends.size(); ++c) {
      RDSE_ASSERT_MSG(s.begin(c) < s.ends[c],
                      "Solution: empty context not collapsed");
      for (TaskId t : context_tasks(rc, c)) {
        RDSE_ASSERT(t < placement_.size());
        RDSE_ASSERT(placement_[t].resource == rc);
        RDSE_ASSERT(placement_[t].context == static_cast<std::int32_t>(c));
        ++seen[t];
      }
    }
  }
  for (ResourceId asic = 0; asic < asic_tasks_.size(); ++asic) {
    for (TaskId t : asic_tasks_[asic]) {
      RDSE_ASSERT(t < placement_.size());
      RDSE_ASSERT(placement_[t].resource == asic);
      ++seen[t];
    }
  }
  for (TaskId t = 0; t < placement_.size(); ++t) {
    RDSE_ASSERT(seen[t] == (placement_[t].assigned() ? 1 : 0));
  }
}

}  // namespace rdse
