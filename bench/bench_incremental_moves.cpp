/// \file bench_incremental_moves.cpp
/// \brief EXP-M1 — per-move evaluation cost, full re-evaluation vs the
/// incremental delta path wired into DseProblem::propose.
///
/// Drives the same move sequence (bit-identical decisions) through a
/// full_eval problem and an incremental one and reports per-move wall time,
/// the number of re-relaxed nodes per evaluated candidate, the chain-diff
/// hit rate, the makespan-rescan rate, the share of probes refused as
/// §4.3-cyclic and the share the precedence pre-gate refused before any
/// plan. Self-contained (no Google Benchmark) so the CI bench-smoke stage
/// can always build and run it; --json writes the results as a stable
/// rdse.bench.v1 artifact (BENCH_hotpath.json in CI) that `rdse compare`
/// diffs against the committed baseline: its timings within a generous
/// tolerance (catching order-of-magnitude hot-path regressions), its
/// deterministic counters at equality.
///
/// Models: motion detection at 2000 CLBs (about one context) and at 100
/// CLBs (the many-context end of the Fig. 3 sweep, about ten contexts),
/// a 120-task synthetic graph, and the registry's synthetic:1000 and
/// synthetic:5000 models at 2000 CLBs. The two large ones run a fixed
/// budget of kScaleMoves moves instead of --moves: a 5000-task full
/// evaluation costs tens of milliseconds.
///
/// Knobs: --moves N (default 20000), --seed S, --repeat R (default 3),
/// --json PATH. Each model's full/incremental pair is driven R times and
/// the fastest run per path is reported — wall-clock minima are robust to
/// scheduler noise on shared machines, which single-shot means are not
/// (the counters are deterministic and identical across repeats).

#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "core/problem.hpp"
#include "model/generators.hpp"
#include "model/motion_detection.hpp"
#include "bench_common.hpp"
#include "model/registry.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"

using namespace rdse;

namespace {

constexpr const char* kUsage = R"(options (command line beats environment):
  --moves N   / RDSE_MOVES   moves per model; synthetic_1000 and
                             synthetic_5000 run 400               [20000]
  --seed S    / RDSE_SEED    base seed                            [1]
  --repeat R  / RDSE_REPEAT  drives per path; the fastest is kept [3]
  --json PATH                write the rdse.bench.v1 artifact
)";

struct Args {
  std::int64_t moves = 0;
  std::uint64_t seed = 0;
  int repeats = 0;
  std::string json;
};

/// Moves per run of the synthetic:1000 and synthetic:5000 rows.
constexpr std::int64_t kScaleMoves = 400;

struct DriveResult {
  double ns_per_move = 0.0;       ///< whole loop / all proposals
  double ns_per_evaluated = 0.0;  ///< propose() time of evaluated proposals
  std::int64_t evaluated = 0;
  double final_cost = 0.0;
};

/// Propose/accept/reject loop with a deterministic decision policy. Both
/// problems see identical rng streams and (costs being bit-identical)
/// identical decisions, so the two timed loops do the same logical work.
/// Every propose() is timed individually so the cost of *evaluated*
/// proposals (the paper's move-evaluation cost) can be separated from null
/// draws, which skip evaluation on both paths.
DriveResult drive(DseProblem& problem, std::uint64_t seed,
                  std::int64_t moves) {
  Rng rng(seed);
  Rng coin(seed ^ 0xACCE97u);
  double eval_ns = 0.0;
  std::int64_t eval_calls = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::int64_t i = 0; i < moves; ++i) {
    const auto p0 = std::chrono::steady_clock::now();
    const bool proposed = problem.propose(rng);
    const auto p1 = std::chrono::steady_clock::now();
    if (!proposed) continue;
    eval_ns += std::chrono::duration<double, std::nano>(p1 - p0).count();
    ++eval_calls;
    const bool improving = problem.candidate_cost() <= problem.cost();
    if (improving || coin.bernoulli(0.4)) {
      problem.accept();
    } else {
      problem.reject();
    }
  }
  const auto t1 = std::chrono::steady_clock::now();
  DriveResult r;
  r.ns_per_move =
      std::chrono::duration<double, std::nano>(t1 - t0).count() /
      static_cast<double>(moves);
  r.ns_per_evaluated =
      eval_calls > 0 ? eval_ns / static_cast<double>(eval_calls) : 0.0;
  std::int64_t evaluated = 0;
  for (const MoveClassStats& s : problem.move_stats()) {
    evaluated += s.evaluated;
  }
  r.evaluated = evaluated;
  r.final_cost = problem.cost();
  return r;
}

struct ModelReport {
  std::string model;
  std::size_t tasks = 0;
  std::int64_t moves = 0;
  double full_ns_per_move = 0.0;
  double inc_ns_per_move = 0.0;
  double speedup = 0.0;
  double full_ns_per_eval = 0.0;
  double inc_ns_per_eval = 0.0;
  double eval_speedup = 0.0;  ///< per evaluated proposal (the §4.4 cost)
  double relaxed_per_probe = 0.0;
  double relax_reduction = 0.0;  ///< nodes / relaxed-per-probe
  double journal_entries_per_probe = 0.0;  ///< undo-journal records staged
  /// Solution undo-log entries per staged move: what a rollback restores
  /// in place of the old per-proposal copy of the design point.
  double solution_undo_entries_per_probe = 0.0;
  double bounds_reuse_rate = 0.0;
  double clbs_reuse_rate = 0.0;
  double rank_refresh_rate = 0.0;
  double rank_repair_nodes_per_probe = 0.0;  ///< Pearce–Kelly reorder cost
  double makespan_rescan_rate = 0.0;  ///< probes that fell back to O(V) scan
  /// Probes refused as §4.3-cyclic — before any write to G'.
  double cyclic_probe_rate = 0.0;
  /// Probes the precedence pre-gate refused (a context-order violation),
  /// before any plan or rank search: a share of cyclic_probe_rate.
  double precedence_refused_rate = 0.0;
  double seq_diff_hit_rate = 0.0;     ///< chain edges kept / chain edges seen
  double seq_edges_added_per_eval = 0.0;
  double seq_edges_reweighted_per_eval = 0.0;  ///< in-place weight patches
  /// Contexts whose initials/terminals a touched-RC realization re-read:
  /// bounded by the edited runs, independent of the RC's context count.
  double contexts_rederived_per_rc_probe = 0.0;
  // Micro-profile (one dedicated profiled pass; informational, not gated —
  // absolute phase times are machine-dependent).
  double profile_stage_ns_per_eval = 0.0;      ///< moved-task staging
  double profile_reconcile_ns_per_eval = 0.0;  ///< chain diff + RC realize
  double profile_context_ns_per_eval = 0.0;    ///< RC context accounting
  double profile_relax_ns_per_eval = 0.0;      ///< delta relaxation
  double profile_rollback_ns_per_eval = 0.0;   ///< discard of staged probes
  std::int64_t clbs_delta_hits = 0;    ///< CLB sums served without a walk
  std::int64_t clbs_delta_misses = 0;  ///< CLB sums re-summed over members
};

ModelReport compare(const std::string& name, const TaskGraph& tg,
                    const Architecture& arch, const Solution& initial,
                    std::uint64_t seed, std::int64_t moves, int repeats) {
  ModelReport rep;
  rep.model = name;
  rep.tasks = tg.task_count();
  rep.moves = moves;

  rep.full_ns_per_move = rep.inc_ns_per_move = 0.0;
  rep.full_ns_per_eval = rep.inc_ns_per_eval = 0.0;
  std::optional<IncrementalEvalStats> stats;
  for (int r = 0; r < repeats; ++r) {
    // Both loops run cold from a fresh problem each repeat (bit-identical
    // decisions every time); first-build allocations amortize over the
    // move budget and affect both paths alike.
    DseProblem full(tg, arch, initial, {}, {}, false, /*full_eval=*/true);
    DseProblem inc(tg, arch, initial, {}, {}, false, /*full_eval=*/false);
    const DriveResult rf = drive(full, seed, moves);
    const DriveResult ri = drive(inc, seed, moves);
    // Bit-identity gate: a divergent decision sequence shows up in the
    // evaluated-proposal count even when the final costs coincide.
    if (rf.final_cost != ri.final_cost || rf.evaluated != ri.evaluated) {
      std::cerr << "FATAL: full/incremental diverged on " << name
                << " (cost " << rf.final_cost << " vs " << ri.final_cost
                << ", evaluated " << rf.evaluated << " vs " << ri.evaluated
                << ")\n";
      std::exit(1);
    }
    const auto keep_min = [](double& slot, double v) {
      if (slot == 0.0 || v < slot) slot = v;
    };
    keep_min(rep.full_ns_per_move, rf.ns_per_move);
    keep_min(rep.inc_ns_per_move, ri.ns_per_move);
    keep_min(rep.full_ns_per_eval, rf.ns_per_evaluated);
    keep_min(rep.inc_ns_per_eval, ri.ns_per_evaluated);
    stats = inc.incremental_stats();  // deterministic: same every repeat
    rep.solution_undo_entries_per_probe =
        inc.solution_stagings() > 0
            ? static_cast<double>(inc.solution_undo_entries()) /
                  static_cast<double>(inc.solution_stagings())
            : 0.0;
  }
  rep.speedup = rep.full_ns_per_move / rep.inc_ns_per_move;
  rep.eval_speedup = rep.full_ns_per_eval / rep.inc_ns_per_eval;
  if (stats.has_value() && stats->relax.probes > 0) {
    rep.relaxed_per_probe =
        static_cast<double>(stats->relax.relaxed_nodes) /
        static_cast<double>(stats->relax.probes);
    rep.relax_reduction =
        static_cast<double>(tg.task_count()) /
        std::max(rep.relaxed_per_probe, 1e-9);
    rep.journal_entries_per_probe =
        static_cast<double>(stats->relax.journal_entries) /
        static_cast<double>(stats->relax.probes);
    const auto bounds = stats->bounds_reused + stats->bounds_computed;
    rep.bounds_reuse_rate =
        bounds > 0 ? static_cast<double>(stats->bounds_reused) /
                         static_cast<double>(bounds)
                   : 0.0;
    rep.rank_refresh_rate =
        static_cast<double>(stats->relax.rank_refreshes) /
        static_cast<double>(stats->relax.probes);
    rep.rank_repair_nodes_per_probe =
        static_cast<double>(stats->relax.rank_repair_nodes) /
        static_cast<double>(stats->relax.probes);
    rep.makespan_rescan_rate =
        static_cast<double>(stats->relax.makespan_rescans) /
        static_cast<double>(stats->relax.probes);
    rep.cyclic_probe_rate = static_cast<double>(stats->relax.cyclic) /
                            static_cast<double>(stats->relax.probes);
    rep.precedence_refused_rate =
        static_cast<double>(stats->precedence_refused) /
        static_cast<double>(stats->relax.probes);
    const auto clbs = stats->clbs_reused + stats->clbs_computed;
    rep.clbs_reuse_rate =
        clbs > 0 ? static_cast<double>(stats->clbs_reused) /
                       static_cast<double>(clbs)
                 : 0.0;
    const auto chain = stats->seq_edges_kept + stats->seq_edges_removed;
    rep.seq_diff_hit_rate =
        chain > 0 ? static_cast<double>(stats->seq_edges_kept) /
                        static_cast<double>(chain)
                  : 0.0;
    rep.seq_edges_added_per_eval =
        static_cast<double>(stats->seq_edges_added) /
        static_cast<double>(stats->builds);
    rep.seq_edges_reweighted_per_eval =
        static_cast<double>(stats->seq_edges_reweighted) /
        static_cast<double>(stats->builds);
    rep.contexts_rederived_per_rc_probe =
        stats->rc_probes > 0 ? static_cast<double>(stats->bounds_computed) /
                                   static_cast<double>(stats->rc_probes)
                             : 0.0;
    rep.clbs_delta_hits = stats->clbs_reused;
    rep.clbs_delta_misses = stats->clbs_computed;
  }

  // One extra pass with the phase clocks on. Profiling is kept out of the
  // timed repeats above so the headline ns/move never pays for the clock
  // reads; the counters are deterministic, so this pass sees the same
  // moves.
  {
    DseProblem prof(tg, arch, initial, {}, {}, false, /*full_eval=*/false);
    prof.set_incremental_profile(true);
    drive(prof, seed, moves);
    const auto ps = prof.incremental_stats();
    if (ps.has_value() && ps->builds > 0) {
      const double n = static_cast<double>(ps->builds);
      rep.profile_stage_ns_per_eval =
          static_cast<double>(ps->profile_stage_ns) / n;
      rep.profile_reconcile_ns_per_eval =
          static_cast<double>(ps->profile_reconcile_ns) / n;
      rep.profile_context_ns_per_eval =
          static_cast<double>(ps->profile_context_ns) / n;
      rep.profile_relax_ns_per_eval =
          static_cast<double>(ps->profile_relax_ns) / n;
      rep.profile_rollback_ns_per_eval =
          static_cast<double>(ps->profile_rollback_ns) / n;
    }
  }
  return rep;
}

void print_table(const std::vector<ModelReport>& reports) {
  std::printf(
      "\n%-24s %5s | %8s %8s %7s | %9s %9s %7s | %8s %7s %7s %6s %6s "
      "%6s %6s\n",
      "model", "tasks", "full/mv", "inc/mv", "speedup", "full/eval",
      "inc/eval", "evalspd", "relax/ev", "jrnl/ev", "undo/pr", "diff%",
      "scan%", "cyc%", "pre%");
  for (const ModelReport& r : reports) {
    std::printf(
        "%-24s %5zu | %7.0fn %7.0fn %6.2fx | %8.0fn %8.0fn %6.2fx | "
        "%8.2f %7.2f %7.2f %5.1f%% %5.1f%% %5.1f%% %5.1f%%\n",
        r.model.c_str(), r.tasks, r.full_ns_per_move, r.inc_ns_per_move,
        r.speedup, r.full_ns_per_eval, r.inc_ns_per_eval, r.eval_speedup,
        r.relaxed_per_probe, r.journal_entries_per_probe,
        r.solution_undo_entries_per_probe,
        100.0 * r.seq_diff_hit_rate, 100.0 * r.makespan_rescan_rate,
        100.0 * r.cyclic_probe_rate, 100.0 * r.precedence_refused_rate);
  }
  std::printf("%-24s | %10s %10s %10s %10s %10s | %9s %9s %8s\n",
              "micro-profile", "stage/ev", "recon/ev", "ctx/ev", "relax/ev",
              "rollbk/ev", "clb hit", "clb miss", "ctx/rc");
  for (const ModelReport& r : reports) {
    std::printf(
        "%-24s | %9.0fn %9.0fn %9.0fn %9.0fn %9.0fn | %9lld %9lld %8.2f\n",
        r.model.c_str(), r.profile_stage_ns_per_eval,
        r.profile_reconcile_ns_per_eval, r.profile_context_ns_per_eval,
        r.profile_relax_ns_per_eval, r.profile_rollback_ns_per_eval,
        static_cast<long long>(r.clbs_delta_hits),
        static_cast<long long>(r.clbs_delta_misses),
        r.contexts_rederived_per_rc_probe);
  }
  std::printf("\n");
}

/// The rdse.bench.v1 hot-path artifact: stable schema, one result object
/// per model, diffable by `rdse compare` against a committed baseline.
void write_json(const std::string& path, std::int64_t moves,
                std::uint64_t seed, int repeats,
                const std::vector<ModelReport>& reports) {
  JsonValue doc = JsonValue::object();
  doc.set("schema", "rdse.bench.v1");
  doc.set("benchmark", "hotpath");
  doc.set("moves", moves);
  doc.set("seed", static_cast<std::int64_t>(seed));
  doc.set("repeat", static_cast<std::int64_t>(repeats));
  JsonValue results = JsonValue::array();
  for (const ModelReport& r : reports) {
    JsonValue row = JsonValue::object();
    row.set("model", r.model);
    row.set("tasks", static_cast<std::int64_t>(r.tasks));
    row.set("moves", r.moves);
    row.set("full_ns_per_move", r.full_ns_per_move);
    row.set("incremental_ns_per_move", r.inc_ns_per_move);
    row.set("speedup", r.speedup);
    row.set("full_ns_per_evaluated_move", r.full_ns_per_eval);
    row.set("incremental_ns_per_evaluated_move", r.inc_ns_per_eval);
    row.set("evaluated_move_speedup", r.eval_speedup);
    row.set("relaxed_nodes_per_probe", r.relaxed_per_probe);
    row.set("relax_reduction", r.relax_reduction);
    row.set("journal_entries_per_probe", r.journal_entries_per_probe);
    row.set("solution_undo_entries_per_probe",
            r.solution_undo_entries_per_probe);
    row.set("bounds_reuse_rate", r.bounds_reuse_rate);
    row.set("clbs_reuse_rate", r.clbs_reuse_rate);
    row.set("rank_refresh_rate", r.rank_refresh_rate);
    row.set("rank_repair_nodes_per_probe", r.rank_repair_nodes_per_probe);
    row.set("makespan_rescan_rate", r.makespan_rescan_rate);
    row.set("cyclic_probe_rate", r.cyclic_probe_rate);
    row.set("precedence_refused_rate", r.precedence_refused_rate);
    row.set("seq_diff_hit_rate", r.seq_diff_hit_rate);
    row.set("seq_edges_added_per_eval", r.seq_edges_added_per_eval);
    row.set("seq_edges_reweighted_per_eval", r.seq_edges_reweighted_per_eval);
    row.set("contexts_rederived_per_rc_probe",
            r.contexts_rederived_per_rc_probe);
    row.set("profile_stage_ns_per_eval", r.profile_stage_ns_per_eval);
    row.set("profile_reconcile_ns_per_eval", r.profile_reconcile_ns_per_eval);
    row.set("profile_context_ns_per_eval", r.profile_context_ns_per_eval);
    row.set("profile_relax_ns_per_eval", r.profile_relax_ns_per_eval);
    row.set("profile_rollback_ns_per_eval", r.profile_rollback_ns_per_eval);
    row.set("clbs_delta_hits", r.clbs_delta_hits);
    row.set("clbs_delta_misses", r.clbs_delta_misses);
    results.push_back(std::move(row));
  }
  doc.set("results", std::move(results));

  std::ofstream out(path);
  if (!out) {
    std::cerr << "cannot write " << path << "\n";
    std::exit(1);
  }
  out << doc.dump(2) << "\n";
  std::cout << "wrote " << path << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  const auto [moves, seed, repeats, json] =
      bench::parse_or_exit(argc, argv, kUsage, [&] {
        const Options opts = Options::parse(argc, argv);
        Args args;
        args.moves = get_int_as<std::int64_t>(opts, "moves", 20'000, 1,
                                              "need at least one move",
                                              "RDSE_MOVES");
        args.seed = get_int_as<std::uint64_t>(opts, "seed", 1, 0,
                                              "negative seed", "RDSE_SEED");
        args.repeats = get_int_as<int>(opts, "repeat", 3, 1,
                                       "need at least one repeat",
                                       "RDSE_REPEAT");
        args.json = opts.get_string("json", "");
        return args;
      });

  std::vector<ModelReport> reports;

  const Application motion = make_motion_detection_app();
  for (const auto& [name, clbs] :
       {std::pair<const char*, std::int32_t>{"motion_detection", 2000},
        {"motion_detection_100clb", 100}}) {
    const Architecture arch = make_cpu_fpga_architecture(
        clbs, kMotionDetectionTrPerClb, kMotionDetectionBusRate);
    Rng init(seed ^ 7);
    const Solution initial =
        Solution::random_partition(motion.graph, arch, 0, 1, init);
    reports.push_back(compare(name, motion.graph, arch, initial, seed, moves,
                              repeats));
  }

  {
    AppGenParams params;
    params.dag.node_count = 120;
    params.dag.max_width = 8;
    params.hw_capable_fraction = 0.8;
    Rng gen(seed ^ 99);
    const Application app = random_application(params, gen);
    const Architecture arch =
        make_cpu_fpga_architecture(1500, from_us(10.0), 50'000'000);
    Rng init(seed ^ 13);
    const Solution initial =
        Solution::random_partition(app.graph, arch, 0, 1, init);
    reports.push_back(compare("synthetic_120", app.graph, arch, initial,
                              seed, moves, repeats));
  }

  // The scale curve: the registry's synthetic family (what `rdse explore
  // --model synthetic:N` runs) up to its 5000-task cap, on a 2000-CLB
  // device.
  for (const int tasks : {1000, 5000}) {
    const ModelSpec spec =
        load_model_spec("synthetic:" + std::to_string(tasks));
    const Architecture arch = make_cpu_fpga_architecture(
        2000, spec.tr_per_clb, spec.bus_bytes_per_second);
    Rng init(seed ^ 13);
    const Solution initial =
        Solution::random_partition(spec.app.graph, arch, 0, 1, init);
    reports.push_back(compare("synthetic_" + std::to_string(tasks),
                              spec.app.graph, arch, initial, seed,
                              kScaleMoves, repeats));
  }

  print_table(reports);
  if (!json.empty()) write_json(json, moves, seed, repeats, reports);
  return 0;
}
