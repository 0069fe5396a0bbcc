#include "cli/rdse_cli.hpp"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <ostream>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "baseline/mapper.hpp"
#include "core/checkpoint.hpp"
#include "core/mapper_bench.hpp"
#include "core/report.hpp"
#include "core/sweep_engine.hpp"
#include "mapping/io.hpp"
#include "model/registry.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "util/cli.hpp"
#include "util/faultfs.hpp"
#include "util/hash.hpp"
#include "util/json.hpp"
#include "util/log.hpp"
#include "util/table.hpp"

namespace rdse::cli {

namespace {

constexpr const char* kUsage = R"(usage: rdse <command> [options]

commands:
  explore   run one exploration, or --runs N seeded runs aggregated
  bench     run the mapper comparison matrix (one artifact per mapper)
  sweep     run a parallel parameter sweep and optionally emit a JSON artifact
  report    re-render a JSON sweep artifact produced by `rdse sweep`
  compare   diff two artifacts and fail when a metric regresses
  serve     run the persistent exploration service on a Unix-domain socket
  request   send one JSON request to a running `rdse serve` daemon
  help      show this message

common options:
  --model NAME      application model: motion | synthetic:N  [motion]
  --seed N          base RNG seed                            [1]
  --iters N         cooling iterations per run               [15000]
  --warmup N        infinite-temperature warm-up iterations  [1200]
  --threads N       worker threads (0 = hardware)            [0]
  --quiet           suppress tables/plots (artifacts still written)

explore options:
  --clbs N          FPGA size in CLBs                        [2000]
  --runs N          independent seeded runs (0 is allowed)   [1]
  --batch K         candidate moves probed per annealing step [1]
                    (best-of-K then Metropolis; 1 = classic path)
  --schedule NAME   modified-lam | lam-delosme | geometric | greedy
  --checkpoint PATH write an rdse.checkpoint.v1 file atomically every
                    --checkpoint-every iterations (requires --runs 1); a
                    killed run resumes bit-identically via --resume
  --checkpoint-every N  iterations between checkpoints       [1000]
  --resume PATH     resume an interrupted run from its checkpoint and keep
                    checkpointing to the same file; only --checkpoint-every,
                    --json and --quiet may accompany --resume
  --json PATH       write an rdse.explore.v1 artifact of the final result
                    (no wall-clock fields: bit-identical between a resumed
                    and an uninterrupted run)

bench options:
  --mappers CSV     registered mapper names                  [all]
                    (anneal, heft, peft, ga, random, hill_climb,
                     list_scheduler, clustering)
  --clbs N          FPGA size in CLBs                        [2000]
  --runs N          seeded runs per mapper                   [3]
  --schedule NAME   cooling schedule for the annealer        [modified-lam]
  --json-prefix P   write one rdse.sweep.v1 artifact per mapper to
                    <P>-<mapper>.json, comparable via `rdse compare`
  Artifacts share one point label, carry no wall-clock fields, and are
  bit-identical across repeated runs with the same seed.

sweep options:
  --axis NAME       device-size | schedule                   [device-size]
  --sizes CSV       device sizes (device-size axis)          [Fig. 3 sizes]
  --schedules CSV   schedule names (schedule axis)           [all four]
  --clbs N          FPGA size for the schedule axis          [2000]
  --runs N          runs per sweep point                     [5]
  --json PATH       write the rdse.sweep.v1 artifact
  --dry-run         plan the sweep and emit the artifact without running

report options:
  --json PATH       artifact to validate and render (or a positional path)

compare options:
  rdse compare BASELINE CURRENT [--tolerance F]
  --baseline PATH   baseline artifact (or first positional path)
  --current PATH    current artifact (or second positional path)
  --tolerance F     allowed relative regression per metric    [0.1]
                    (lower-better metrics may grow to (1+F) x baseline,
                    higher-better metrics may shrink to baseline / (1+F);
                    rdse.bench.v1's deterministic counters must be equal)
  Both artifacts must share a schema: rdse.sweep.v1 (points matched by
  label) or rdse.bench.v1 (results matched by model). Exits 1 when any
  metric regresses beyond the tolerance — the CI trend gate.

serve options:
  --socket PATH     Unix-domain socket to listen on (a stale socket left
                    by a crashed daemon is removed automatically; a live
                    one is never stolen)
  --workers N       service worker threads                    [2]
  --queue N         max requests waiting for a worker         [16]
  --cache N         solution-cache entries (0 disables)       [128]
  --run-threads N   threads per multi-run/sweep execution     [1]
  --max-iters N     per-request iteration cap (iters+warmup)  [1000000]
  --persist PATH    crash-safe solution-cache database (rdse.cachedb.v2):
                    loaded and verified at startup; each fresh result
                    appends one fsync'd record; compacted (atomic
                    rewrite) at drain, SIGHUP, startup when the file has
                    dead or bad lines or is v1, and once dead records
                    outnumber live entries. A hit's recency is persisted
                    only at compaction
  --journal PATH    write-ahead work journal (rdse.journal.v1): accepted
                    work and its state transitions are appended durably;
                    at startup the journal is replayed — accepted-but-not-
                    completed work is re-enqueued — and compacted
  --idle-timeout-ms N  close connections idle for N ms (0 = never)  [30000]
  --max-conns N     concurrent connection cap (reject at accept)    [64]
  Requests are newline-delimited JSON; see README "Running the exploration
  service". Work requests accept "timeout_ms" for a server-side deadline.
  SIGINT/SIGTERM (or a `shutdown` request) drain gracefully; SIGHUP flushes
  the cache and journal and re-applies RDSE_LOG_LEVEL without dropping
  connections.

request options:
  --socket PATH     socket of a running `rdse serve` daemon
  --json DOC        the request document (one JSON object)
  --file PATH       read the request document from a file instead
  --timeout-ms N    client-side response timeout (0 = none)   [0]
  --retries N       retry connect failures and retryable (backpressure)
                    errors up to N times                      [0]
  --retry-base-ms N first retry delay, doubled per attempt up to 10 s and
                    raised to the server's retry_after_ms hint [100]
  Prints the response line and exits 0 when the daemon answered ok,
  1 otherwise.

The thread count is a throughput knob only: sweep results are bit-identical
to the serial loops for any --threads value. Reproduce the paper's Fig. 3
device-size study with:  rdse sweep --model motion --runs 100
)";

ModelSpec load_model(const Options& opts) {
  return load_model_spec(opts.get_string("model", "motion", "RDSE_MODEL"));
}

ScheduleKind parse_schedule(const std::string& name) {
  if (const auto kind = schedule_from_name(name)) return *kind;
  throw Error("unknown schedule '" + name +
              "' (known: modified-lam, lam-delosme, geometric, greedy)");
}

std::vector<std::string> split_csv(const std::string& csv) {
  std::vector<std::string> out;
  std::string item;
  std::istringstream is(csv);
  while (std::getline(is, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

std::vector<std::int32_t> parse_sizes(const std::string& csv) {
  std::vector<std::int32_t> sizes;
  for (const std::string& item : split_csv(csv)) {
    std::int32_t value = 0;
    const auto res =
        std::from_chars(item.data(), item.data() + item.size(), value);
    // Whole-token parse: "4o0" must be an error, not a 4-CLB sweep point.
    if (res.ec != std::errc() || res.ptr != item.data() + item.size()) {
      throw Error("option --sizes: expected integer list, got '" + item +
                  "'");
    }
    sizes.push_back(value);
  }
  RDSE_REQUIRE(!sizes.empty(), "option --sizes: empty list");
  return sizes;
}

/// explore/sweep take no positional operands; a stray token is usually a
/// mistyped flag ("dry-run" for "--dry-run") and must not silently change
/// what runs.
void require_no_positionals(const Options& opts) {
  RDSE_REQUIRE(opts.positional().empty(),
               "unexpected argument '" + opts.positional().front() + "'");
}

ExplorerConfig base_config(const Options& opts, std::int64_t default_iters) {
  ExplorerConfig config;
  config.seed = get_int_as<std::uint64_t>(opts, "seed", 1, 0, "negative seed",
                                          "RDSE_SEED");
  config.iterations = opts.get_int("iters", default_iters, "RDSE_ITERS");
  config.warmup_iterations = opts.get_int("warmup", 1'200);
  config.record_trace = false;
  // Checked here, not by the engines: a dry run or `--runs 0` never reaches
  // them, and GA clamps the budget instead of rejecting it.
  RDSE_REQUIRE(config.iterations >= 0, "option --iters: negative count");
  RDSE_REQUIRE(config.warmup_iterations >= 0,
               "option --warmup: negative count");
  return config;
}

/// --threads / RDSE_THREADS (0 = hardware). The sweep engine caps its pool
/// only at the job count, so the count is checked here.
unsigned thread_count(const Options& opts) {
  return get_int_as<unsigned>(opts, "threads", 0, 0, "negative thread count",
                              "RDSE_THREADS");
}

void write_artifact(const std::string& path, const JsonValue& doc,
                    std::ostream& out, bool quiet) {
  std::ofstream file(path);
  RDSE_REQUIRE(file.good(), "cannot open '" + path + "' for writing");
  file << doc.dump(2);
  // Flush before checking: a short write (disk full, quota) surfaces only
  // when the buffered bytes hit the file, and a truncated artifact that is
  // reported as written fails much later in `rdse report`.
  file.flush();
  RDSE_REQUIRE(file.good(), "failed writing '" + path + "'");
  if (!quiet) out << "wrote " << path << '\n';
}

// ------------------------------------------------------------------ explore

/// The rdse.explore.v1 single-run artifact: configuration echo, initial and
/// best metrics, annealing counters and the best mapping itself. Carries no
/// wall-clock fields, so an interrupted-and-resumed run emits a byte-for-
/// byte identical document to the uninterrupted reference — the CI crash-
/// resume smoke `cmp`s the two.
JsonValue explore_artifact(const std::string& model_name, std::int32_t clbs,
                           const TaskGraph& tg, const ExplorerConfig& config,
                           const RunResult& result) {
  JsonValue doc = JsonValue::object();
  doc.set("schema", "rdse.explore.v1");
  doc.set("model", model_name);
  doc.set("clbs", static_cast<std::int64_t>(clbs));
  doc.set("seed", u64_to_hex(config.seed));
  doc.set("iterations", config.iterations);
  doc.set("warmup_iterations", config.warmup_iterations);
  doc.set("schedule", to_string(config.schedule));
  doc.set("batch", config.batch);
  doc.set("initial_metrics", metrics_to_json(result.initial_metrics));
  doc.set("best_metrics", metrics_to_json(result.best_metrics));
  JsonValue anneal = JsonValue::object();
  anneal.set("initial_cost", result.anneal.initial_cost);
  anneal.set("best_cost", result.anneal.best_cost);
  anneal.set("final_cost", result.anneal.final_cost);
  anneal.set("iterations_run", result.anneal.iterations_run);
  anneal.set("accepted", result.anneal.accepted);
  anneal.set("rejected", result.anneal.rejected);
  anneal.set("infeasible", result.anneal.infeasible);
  anneal.set("best_iteration", result.anneal.best_iteration);
  doc.set("anneal", std::move(anneal));
  doc.set("best_solution", solution_to_text(tg, result.best_solution));
  return doc;
}

/// Shared tail of the plain, checkpointed and resumed single-run paths.
int finish_explore(const ModelSpec& model, std::int32_t clbs,
                   const ExplorerConfig& config, const RunResult& result,
                   const std::string& json_path, bool quiet,
                   std::ostream& out) {
  if (!quiet) print_run_report(out, model.app.graph, result);
  const bool met = model.app.deadline == 0 ||
                   result.best_metrics.makespan <= model.app.deadline;
  out << "constraint: " << format_ms(result.best_metrics.makespan)
      << (met ? " <= " : " > ") << format_ms(model.app.deadline)
      << (met ? "  (met)" : "  (MISSED)") << '\n';
  if (!json_path.empty()) {
    write_artifact(json_path,
                   explore_artifact(model.app.name, clbs, model.app.graph,
                                    config, result),
                   out, quiet);
  }
  return 0;
}

/// Drive a checkpointable session to completion, saving after every
/// segment. A failed checkpoint write (disk fault) is a warning, not a
/// fatal error: the run itself stays correct, only resumability of that
/// segment is lost.
int run_checkpointed(const ModelSpec& model, std::int32_t clbs,
                     CheckpointableExplorer& session,
                     const std::string& checkpoint_path,
                     std::int64_t checkpoint_every,
                     const std::string& json_path, bool quiet,
                     std::ostream& out) {
  const auto save = [&] {
    JsonValue body = JsonValue::object();
    body.set("kind", "explore");
    body.set("model", model.app.name);
    body.set("clbs", static_cast<std::int64_t>(clbs));
    body.set("checkpoint_every", checkpoint_every);
    body.set("session", session.save_state());
    if (!save_checkpoint(checkpoint_path, body)) {
      out << "rdse explore: warning: checkpoint write to '" << checkpoint_path
          << "' failed; continuing without it\n";
    }
  };
  while (!session.finished()) {
    (void)session.step(checkpoint_every);
    save();
  }
  return finish_explore(model, clbs, session.config(), session.result(),
                        json_path, quiet, out);
}

int cmd_explore_resume(const Options& opts, std::ostream& out) {
  // --resume rejects run-shaping flags loudly: the checkpoint is the
  // authority on model, seed and schedule, and silently ignoring a
  // contradicting --iters would look like it worked.
  static constexpr std::string_view kFlags[] = {"resume", "checkpoint-every",
                                                "json", "quiet"};
  opts.require_known(kFlags);
  require_no_positionals(opts);

  const std::string path = opts.get_string("resume", "");
  const bool quiet = opts.get_flag("quiet");
  const std::string json_path = opts.get_string("json", "");

  const JsonValue body = load_checkpoint(path);
  RDSE_REQUIRE(body.at("kind").as_string() == "explore",
               "checkpoint: '" + path + "' is not an explore checkpoint");
  const ModelSpec model = load_model_spec(body.at("model").as_string());
  const auto clbs = static_cast<std::int32_t>(body.at("clbs").as_int());
  const std::int64_t checkpoint_every =
      opts.get_int("checkpoint-every", body.at("checkpoint_every").as_int());
  RDSE_REQUIRE(checkpoint_every >= 1,
               "option --checkpoint-every: need at least one iteration");

  Architecture arch = make_cpu_fpga_architecture(
      clbs, model.tr_per_clb, model.bus_bytes_per_second);
  CheckpointableExplorer session(model.app.graph, std::move(arch),
                                 body.at("session"));
  if (!quiet) out << "rdse explore: resumed from '" << path << "'\n";
  return run_checkpointed(model, clbs, session, path, checkpoint_every,
                          json_path, quiet, out);
}

int cmd_explore(const Options& opts, std::ostream& out) {
  if (opts.get("resume").has_value()) return cmd_explore_resume(opts, out);

  static constexpr std::string_view kFlags[] = {
      "model", "clbs", "seed", "iters", "warmup",
      "runs",  "threads", "schedule", "batch", "quiet",
      "checkpoint", "checkpoint-every", "json"};
  opts.require_known(kFlags);
  require_no_positionals(opts);

  const ModelSpec model = load_model(opts);
  const auto clbs = get_int_as<std::int32_t>(opts, "clbs", 2'000);
  const int runs = get_int_as<int>(opts, "runs", 1, 0, "negative run count");
  const unsigned threads = thread_count(opts);
  const bool quiet = opts.get_flag("quiet");
  const std::string checkpoint_path = opts.get_string("checkpoint", "");
  const std::int64_t checkpoint_every =
      opts.get_int("checkpoint-every", 1'000);
  const std::string json_path = opts.get_string("json", "");
  RDSE_REQUIRE(checkpoint_every >= 1,
               "option --checkpoint-every: need at least one iteration");
  RDSE_REQUIRE(checkpoint_path.empty() || runs == 1,
               "option --checkpoint: requires --runs 1");
  RDSE_REQUIRE(json_path.empty() || runs == 1,
               "option --json: requires --runs 1");

  ExplorerConfig config = base_config(opts, 20'000);
  config.schedule =
      parse_schedule(opts.get_string("schedule", "modified-lam"));
  config.batch =
      get_int_as<int>(opts, "batch", 1, 1, "need at least one probe");
  config.record_trace = runs == 1 && checkpoint_path.empty();

  const Architecture arch = make_cpu_fpga_architecture(
      clbs, model.tr_per_clb, model.bus_bytes_per_second);
  const Explorer explorer(model.app.graph, arch);

  if (runs == 0) {
    out << "0 runs requested — nothing to explore\n";
    return 0;
  }
  if (!checkpoint_path.empty()) {
    CheckpointableExplorer session(model.app.graph, arch, config);
    return run_checkpointed(model, clbs, session, checkpoint_path,
                            checkpoint_every, json_path, quiet, out);
  }
  if (runs == 1) {
    const RunResult result = explorer.run(config);
    return finish_explore(model, clbs, config, result, json_path, quiet, out);
  }

  const SweepEngine engine(threads);
  const std::vector<RunResult> results =
      engine.run_many(explorer, config, runs);
  const RunAggregate agg = Explorer::aggregate(results, model.app.deadline);
  if (quiet) return 0;
  Table table({"runs", "mean ms", "sd", "best ms", "worst ms", "contexts",
               "hit rate"});
  table.row()
      .cell(static_cast<std::int64_t>(agg.runs))
      .cell(agg.mean_makespan_ms, 2)
      .cell(agg.stddev_makespan_ms, 2)
      .cell(agg.best_makespan_ms, 2)
      .cell(agg.worst_makespan_ms, 2)
      .cell(agg.mean_contexts, 2)
      .cell(agg.deadline_hit_rate, 2);
  table.print(out, std::to_string(runs) + " runs of " + model.app.name +
                       " on " + std::to_string(clbs) + " CLBs (" +
                       std::to_string(engine.resolved_threads(
                           static_cast<std::size_t>(runs))) +
                       " threads)");
  return 0;
}

// -------------------------------------------------------------------- bench

/// --mappers CSV: trim shell-quoting padding per item, drop all-padding
/// items, reject unknown names by their trimmed form, and dedupe keeping
/// first-seen order (duplicates would collide on the same
/// <prefix>-<mapper>.json artifact path).
std::vector<std::string> parse_mapper_list(const std::string& csv) {
  std::vector<std::string> names;
  for (const std::string& raw : split_csv(csv)) {
    const auto lo = raw.find_first_not_of(" \t");
    if (lo == std::string::npos) continue;
    const auto hi = raw.find_last_not_of(" \t");
    std::string name = raw.substr(lo, hi - lo + 1);
    if (!is_known_mapper(name)) {
      throw Error("option --mappers: unknown mapper '" + name +
                  "' (known: " + known_mapper_names() + ")");
    }
    if (std::find(names.begin(), names.end(), name) == names.end()) {
      names.push_back(std::move(name));
    }
  }
  return names;
}

int cmd_bench(const Options& opts, std::ostream& out) {
  static constexpr std::string_view kFlags[] = {
      "mappers", "model", "clbs", "runs", "seed", "iters",
      "warmup", "threads", "schedule", "json-prefix", "quiet"};
  opts.require_known(kFlags);
  require_no_positionals(opts);

  const ModelSpec model = load_model(opts);
  const auto clbs = get_int_as<std::int32_t>(opts, "clbs", 2'000);
  const int runs = get_int_as<int>(opts, "runs", 3, 1,
                                   "need at least one run per mapper");
  const unsigned threads = thread_count(opts);
  const bool quiet = opts.get_flag("quiet");
  const std::string prefix = opts.get_string("json-prefix", "");

  MapperMatrixSpec spec;
  const std::string csv = opts.get_string("mappers", "");
  spec.mappers = csv.empty() ? mapper_names() : parse_mapper_list(csv);
  RDSE_REQUIRE(!spec.mappers.empty(), "option --mappers: empty list");
  spec.config = base_config(opts, 20'000);
  spec.config.schedule =
      parse_schedule(opts.get_string("schedule", "modified-lam"));
  spec.runs_per_mapper = runs;
  spec.deadline = model.app.deadline;
  spec.model = model.app.name;
  spec.label = model.app.name + " @ " + std::to_string(clbs) + " CLBs";
  spec.x = static_cast<double>(clbs);

  const Architecture arch = make_cpu_fpga_architecture(
      clbs, model.tr_per_clb, model.bus_bytes_per_second);
  const SweepEngine engine(threads);
  const MapperMatrixResult matrix =
      run_mapper_matrix(engine, model.app.graph, arch, spec);

  if (!quiet) out << describe_mapper_matrix(matrix);
  if (!prefix.empty()) {
    for (const MapperMatrixEntry& entry : matrix.entries) {
      write_artifact(mapper_artifact_path(prefix, entry.mapper),
                     mapper_matrix_entry_to_json(matrix, entry), out, quiet);
    }
  }
  return 0;
}

// -------------------------------------------------------------------- sweep

int cmd_sweep(const Options& opts, std::ostream& out) {
  static constexpr std::string_view kFlags[] = {
      "model", "axis", "sizes", "schedules", "clbs", "runs", "seed",
      "iters", "warmup", "threads", "json", "dry-run", "quiet"};
  opts.require_known(kFlags);
  require_no_positionals(opts);

  const ModelSpec model = load_model(opts);
  const std::string axis = opts.get_string("axis", "device-size");
  const int runs = get_int_as<int>(opts, "runs", 5, 0, "negative run count");
  const unsigned threads = thread_count(opts);
  const bool dry_run = opts.get_flag("dry-run");
  const bool quiet = opts.get_flag("quiet");
  const std::string json_path = opts.get_string("json", "");

  const ExplorerConfig config = base_config(opts, 15'000);

  SweepSpec spec;
  if (axis == "device-size") {
    // The paper's Fig. 3 grid (100..10000 CLBs).
    const std::vector<std::int32_t> sizes = parse_sizes(opts.get_string(
        "sizes", "100,200,400,600,800,1000,1500,2000,3000,4000,5000,7000,"
                 "10000"));
    spec = device_size_sweep(sizes, model.tr_per_clb,
                             model.bus_bytes_per_second, config, runs,
                             model.app.deadline);
  } else if (axis == "schedule") {
    const auto clbs = get_int_as<std::int32_t>(opts, "clbs", 2'000);
    std::vector<ScheduleKind> kinds;
    for (const std::string& name : split_csv(opts.get_string(
             "schedules", "modified-lam,lam-delosme,geometric,greedy"))) {
      kinds.push_back(parse_schedule(name));
    }
    RDSE_REQUIRE(!kinds.empty(), "option --schedules: empty list");
    spec = schedule_sweep(
        kinds,
        make_cpu_fpga_architecture(clbs, model.tr_per_clb,
                                   model.bus_bytes_per_second),
        config, runs, model.app.deadline);
  } else {
    throw Error("unknown sweep axis '" + axis +
                "' (known: device-size, schedule)");
  }

  const SweepEngine engine(threads);
  SweepSpec to_run = spec;
  if (dry_run) to_run.runs_per_point = 0;  // plan the grid, skip the work
  const SweepResult result = engine.run(model.app.graph, to_run);

  if (!quiet) {
    if (dry_run) {
      Table plan({"point", "x", "planned runs", "iters", "seed"});
      for (const SweepPoint& p : spec.points) {
        plan.row()
            .cell(std::string(p.label))
            .cell(p.x, 0)
            .cell(static_cast<std::int64_t>(spec.runs_per_point))
            .cell(p.config.iterations)
            .cell(static_cast<std::int64_t>(p.config.seed));
      }
      plan.print(out, "dry run: sweep '" + spec.name + "' over " +
                          std::to_string(spec.points.size()) + " points");
    } else {
      out << describe_sweep(result);
      const std::string plot = plot_sweep(result);
      if (!plot.empty()) out << '\n' << plot;
    }
  }

  if (!json_path.empty()) {
    JsonValue doc = sweep_to_json(result);
    doc.set("model", model.app.name);
    doc.set("dry_run", dry_run);
    if (dry_run) {
      doc.set("planned_runs_per_point",
              static_cast<std::int64_t>(spec.runs_per_point));
    }
    write_artifact(json_path, doc, out, quiet);
  }
  return 0;
}

// ------------------------------------------------------------------- report

/// Read and parse a JSON artifact (shared by report and compare).
JsonValue load_artifact(const std::string& path) {
  std::ifstream file(path);
  RDSE_REQUIRE(file.good(), "cannot read '" + path + "'");
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return JsonValue::parse(buffer.str());
}

int cmd_report(const Options& opts, std::ostream& out, std::ostream& err) {
  static constexpr std::string_view kFlags[] = {"json", "quiet"};
  opts.require_known(kFlags);

  std::string path = opts.get_string("json", "");
  if (path.empty() && !opts.positional().empty()) {
    path = opts.positional().front();
  }
  RDSE_REQUIRE(!path.empty(), "report: pass the artifact via --json PATH");

  const JsonValue artifact = load_artifact(path);
  const std::vector<std::string> errors = validate_sweep_json(artifact);
  if (!errors.empty()) {
    for (const std::string& e : errors) {
      err << "rdse report: " << path << ": " << e << '\n';
    }
    return 1;
  }
  if (const JsonValue* dry = artifact.find("dry_run");
      dry != nullptr && dry->kind() == JsonValue::Kind::kBool &&
      dry->as_bool()) {
    out << "(dry-run artifact: planned grid only, no measurements)\n";
  }
  out << render_sweep_artifact(artifact);
  return 0;
}

// ------------------------------------------------------------------ compare

/// How a paired metric is gated: a measurement within the tolerance in
/// its better direction, or a deterministic counter at equality whatever
/// the tolerance (a counter that moves means the code does different work).
enum class Gate : std::uint8_t { kLowerBetter, kHigherBetter, kExact };

/// One metric of one artifact entry, paired across baseline and current.
struct MetricDelta {
  std::string context;  ///< point label / model name
  std::string metric;
  Gate gate = Gate::kLowerBetter;
  double base = 0.0;
  double cur = 0.0;

  [[nodiscard]] bool regressed(double tolerance) const {
    switch (gate) {
      case Gate::kLowerBetter:
        return cur > base * (1.0 + tolerance);
      case Gate::kHigherBetter:
        return cur * (1.0 + tolerance) < base;
      case Gate::kExact:
        return cur != base;
    }
    return true;
  }
  [[nodiscard]] double change() const {  // signed relative change
    return base != 0.0 ? (cur - base) / base : 0.0;
  }
};

std::string artifact_schema(const JsonValue& doc, const std::string& path) {
  const JsonValue* schema = doc.find("schema");
  RDSE_REQUIRE(schema != nullptr &&
                   schema->kind() == JsonValue::Kind::kString,
               path + ": missing string field 'schema'");
  return schema->as_string();
}

/// Find the entry of `items` whose `key` field equals `value`, or nullptr.
const JsonValue* find_entry(const JsonValue& items, std::string_view key,
                            const std::string& value) {
  for (const JsonValue& item : items.items()) {
    if (const JsonValue* k = item.find(key);
        k != nullptr && k->kind() == JsonValue::Kind::kString &&
        k->as_string() == value) {
      return &item;
    }
  }
  return nullptr;
}

/// What the pairing pass saw: the paired deltas plus enough bookkeeping to
/// tell "nothing measured" (dry-run plans — vacuously clean) apart from
/// "measured entries but zero shared metrics" (schema drift — must fail).
struct PairReport {
  std::vector<MetricDelta> deltas;
  std::size_t measurable_pairs = 0;  ///< entry pairs with data on both sides
  std::size_t overlapping = 0;       ///< gated metrics numeric on both sides
};

/// Pair up one numeric metric of two matched entries. Metrics absent from
/// either side (schema evolution) or non-positive in the baseline (nothing
/// measured) are skipped rather than failed: the gate targets regressions,
/// not schema drift — but the skips are counted so a total overlap of zero
/// can still fail loudly. An exact counter is paired even at zero.
void pair_metric(const JsonValue& base, const JsonValue& cur,
                 const std::string& context, const char* metric, Gate gate,
                 PairReport& report) {
  const JsonValue* b = base.find(metric);
  const JsonValue* c = cur.find(metric);
  if (b == nullptr || c == nullptr) return;
  if (b->kind() != JsonValue::Kind::kNumber ||
      c->kind() != JsonValue::Kind::kNumber) {
    return;
  }
  ++report.overlapping;
  if (gate != Gate::kExact && b->as_number() <= 0.0) return;
  report.deltas.push_back(
      {context, metric, gate, b->as_number(), c->as_number()});
}

PairReport pair_sweep_metrics(const JsonValue& base, const JsonValue& cur) {
  PairReport report;
  for (const JsonValue& bp : base.at("points").items()) {
    const std::string label = bp.at("label").as_string();
    const JsonValue* cp = find_entry(cur.at("points"), "label", label);
    RDSE_REQUIRE(cp != nullptr,
                 "current artifact is missing sweep point '" + label + "'");
    if (bp.at("runs").as_int() == 0 || cp->at("runs").as_int() == 0) {
      continue;  // dry-run plan: grid only, nothing measured
    }
    ++report.measurable_pairs;
    pair_metric(bp, *cp, label, "mean_makespan_ms", Gate::kLowerBetter,
                report);
    pair_metric(bp, *cp, label, "best_makespan_ms", Gate::kLowerBetter,
                report);
  }
  return report;
}

PairReport pair_bench_metrics(const JsonValue& base, const JsonValue& cur) {
  PairReport report;
  for (const JsonValue& br : base.at("results").items()) {
    const std::string model = br.at("model").as_string();
    const JsonValue* cr = find_entry(cur.at("results"), "model", model);
    RDSE_REQUIRE(cr != nullptr,
                 "current artifact is missing bench result '" + model + "'");
    ++report.measurable_pairs;
    pair_metric(br, *cr, model, "incremental_ns_per_move", Gate::kLowerBetter,
                report);
    pair_metric(br, *cr, model, "incremental_ns_per_evaluated_move",
                Gate::kLowerBetter, report);
    pair_metric(br, *cr, model, "evaluated_move_speedup", Gate::kHigherBetter,
                report);
    // Deterministic counters: same --moves/--seed, same value on any host.
    for (const char* counter :
         {"relaxed_nodes_per_probe", "relax_reduction",
          "journal_entries_per_probe", "solution_undo_entries_per_probe",
          "makespan_rescan_rate",
          "cyclic_probe_rate", "precedence_refused_rate", "rank_refresh_rate",
          "rank_repair_nodes_per_probe", "seq_diff_hit_rate",
          "seq_edges_added_per_eval", "seq_edges_reweighted_per_eval",
          "bounds_reuse_rate", "clbs_reuse_rate", "clbs_delta_hits",
          "clbs_delta_misses", "contexts_rederived_per_rc_probe"}) {
      pair_metric(br, *cr, model, counter, Gate::kExact, report);
    }
  }
  return report;
}

/// The numeric field names an artifact's entries actually carry, in
/// first-seen order — what the zero-overlap failure prints for each side.
std::string numeric_field_names(const JsonValue& entries) {
  std::vector<std::string> names;
  for (const JsonValue& entry : entries.items()) {
    for (const auto& [name, value] : entry.members()) {
      if (value.kind() != JsonValue::Kind::kNumber) continue;
      if (std::find(names.begin(), names.end(), name) == names.end()) {
        names.push_back(name);
      }
    }
  }
  std::string joined;
  for (const std::string& name : names) {
    if (!joined.empty()) joined += ", ";
    joined += name;
  }
  return joined.empty() ? "<none>" : joined;
}

int cmd_compare(const Options& opts, std::ostream& out, std::ostream& err) {
  static constexpr std::string_view kFlags[] = {"baseline", "current",
                                                "tolerance", "quiet"};
  opts.require_known(kFlags);

  std::string base_path = opts.get_string("baseline", "");
  std::string cur_path = opts.get_string("current", "");
  std::size_t positional = 0;
  if (base_path.empty() && opts.positional().size() > positional) {
    base_path = opts.positional()[positional++];
  }
  if (cur_path.empty() && opts.positional().size() > positional) {
    cur_path = opts.positional()[positional++];
  }
  RDSE_REQUIRE(!base_path.empty() && !cur_path.empty(),
               "compare: pass two artifacts (BASELINE CURRENT, or "
               "--baseline/--current)");
  const double tolerance = opts.get_double("tolerance", 0.1);
  RDSE_REQUIRE(tolerance >= 0.0, "option --tolerance: negative tolerance");
  const bool quiet = opts.get_flag("quiet");

  const JsonValue base = load_artifact(base_path);
  const JsonValue cur = load_artifact(cur_path);
  const std::string schema = artifact_schema(base, base_path);
  const std::string cur_schema = artifact_schema(cur, cur_path);
  RDSE_REQUIRE(schema == cur_schema, "schema mismatch: baseline is '" +
                                         schema + "', current is '" +
                                         cur_schema + "'");

  PairReport report;
  const char* entries_key = nullptr;
  if (schema == "rdse.sweep.v1") {
    const std::vector<std::string> errors = validate_sweep_json(base);
    RDSE_REQUIRE(errors.empty(), base_path + ": " + errors.front());
    const std::vector<std::string> cur_errors = validate_sweep_json(cur);
    RDSE_REQUIRE(cur_errors.empty(), cur_path + ": " + cur_errors.front());
    report = pair_sweep_metrics(base, cur);
    entries_key = "points";
  } else if (schema == "rdse.bench.v1") {
    report = pair_bench_metrics(base, cur);
    entries_key = "results";
  } else {
    throw Error("unsupported artifact schema '" + schema +
                "' (known: rdse.sweep.v1, rdse.bench.v1)");
  }
  // Measured entries on both sides but not one shared metric name: the
  // schema drifted out from under the gate. "0 metrics, no regressions"
  // would pass CI while checking nothing.
  if (report.measurable_pairs > 0 && report.overlapping == 0) {
    throw Error("compare: no overlapping metrics between the artifacts "
                "(baseline '" + base_path + "' has [" +
                numeric_field_names(base.at(entries_key)) + "]; current '" +
                cur_path + "' has [" +
                numeric_field_names(cur.at(entries_key)) + "])");
  }
  const std::vector<MetricDelta>& deltas = report.deltas;

  int regressions = 0;
  Table table({"where", "metric", "baseline", "current", "change", "gate"});
  for (const MetricDelta& d : deltas) {
    const bool bad = d.regressed(tolerance);
    if (bad) ++regressions;
    table.row()
        .cell(d.context)
        .cell(d.metric)
        .cell(d.base, 3)
        .cell(d.cur, 3)
        .cell(std::to_string(std::llround(100.0 * d.change())) + "%")
        .cell(!bad                     ? "ok"
              : d.gate == Gate::kExact ? "CHANGED"
                                       : "REGRESSED");
  }
  if (!quiet) {
    char tol[32];
    std::snprintf(tol, sizeof tol, "%g", tolerance);
    table.print(out, "compare: " + std::to_string(deltas.size()) +
                         " metrics, tolerance " + tol);
  }
  if (regressions > 0) {
    err << "rdse compare: " << regressions << " metric(s) regressed beyond "
        << "tolerance " << tolerance << " (or, for exact counters, changed)"
        << '\n';
    return 1;
  }
  if (!quiet) out << "no regressions beyond tolerance\n";
  return 0;
}

// -------------------------------------------------------------------- serve

/// Signal-to-accept-loop bridge: a handler may only touch a lock-free
/// atomic, so the server polls these flags instead of being called
/// directly.
std::atomic<bool> g_serve_stop{false};
std::atomic<bool> g_serve_reload{false};

void handle_serve_signal(int /*signum*/) {
  g_serve_stop.store(true, std::memory_order_relaxed);
}

void handle_serve_reload(int /*signum*/) {
  g_serve_reload.store(true, std::memory_order_relaxed);
}

/// Map RDSE_LOG_LEVEL (error|warn|info|debug) onto the global log
/// threshold. Applied at serve startup and re-applied on SIGHUP. Unset or
/// unknown values leave the level unchanged.
void apply_log_level_from_env() {
  const char* value = std::getenv("RDSE_LOG_LEVEL");
  if (value == nullptr) return;
  const std::string_view name(value);
  if (name == "error") {
    set_log_level(LogLevel::kError);
  } else if (name == "warn") {
    set_log_level(LogLevel::kWarn);
  } else if (name == "info") {
    set_log_level(LogLevel::kInfo);
  } else if (name == "debug") {
    set_log_level(LogLevel::kDebug);
  }
}

int cmd_serve(const Options& opts, std::ostream& out) {
  static constexpr std::string_view kFlags[] = {
      "socket", "workers", "queue", "cache", "run-threads", "max-iters",
      "persist", "journal", "idle-timeout-ms", "max-conns", "quiet"};
  opts.require_known(kFlags);
  require_no_positionals(opts);

  serve::ServerConfig config;
  config.socket_path = opts.get_string("socket", "", "RDSE_SOCKET");
  RDSE_REQUIRE(!config.socket_path.empty(),
               "serve: pass the socket path via --socket PATH");
  const auto workers =
      get_int_as<unsigned>(opts, "workers", 2, 1, "need at least one worker");
  const std::int64_t queue = opts.get_int("queue", 16);
  const std::int64_t cache = opts.get_int("cache", 128);
  const auto run_threads =
      get_int_as<unsigned>(opts, "run-threads", 1, 0, "negative count");
  const std::int64_t idle_ms = opts.get_int("idle-timeout-ms", 30'000);
  const std::int64_t max_conns = opts.get_int("max-conns", 64);
  RDSE_REQUIRE(queue >= 0, "option --queue: negative queue capacity");
  RDSE_REQUIRE(cache >= 0, "option --cache: negative cache capacity");
  RDSE_REQUIRE(idle_ms >= 0, "option --idle-timeout-ms: negative timeout");
  RDSE_REQUIRE(max_conns >= 1,
               "option --max-conns: need at least one connection");
  config.service.workers = workers;
  config.service.queue_capacity = static_cast<std::size_t>(queue);
  config.service.cache_capacity = static_cast<std::size_t>(cache);
  config.service.run_threads = run_threads;
  config.service.max_iterations = opts.get_int("max-iters", 1'000'000);
  RDSE_REQUIRE(config.service.max_iterations >= 1,
               "option --max-iters: need a positive cap");
  config.service.persist_path = opts.get_string("persist", "");
  config.service.journal_path = opts.get_string("journal", "");
  config.idle_timeout_ms = idle_ms;
  config.max_connections = static_cast<std::size_t>(max_conns);

  // Fault-injection harness (tests only): RDSE_FAULTFS arms write/fsync/
  // rename faults in the persistence path.
  if (faultfs::arm_from_env()) {
    out << "rdse serve: fault injection armed from RDSE_FAULTFS\n";
  }

  apply_log_level_from_env();
  g_serve_stop.store(false, std::memory_order_relaxed);
  g_serve_reload.store(false, std::memory_order_relaxed);
  config.external_stop = &g_serve_stop;
  config.reload_request = &g_serve_reload;
  config.on_reload = [] { apply_log_level_from_env(); };
  std::signal(SIGINT, handle_serve_signal);
  std::signal(SIGTERM, handle_serve_signal);
  std::signal(SIGHUP, handle_serve_reload);

  const std::string socket_path = config.socket_path;
  serve::Server server(std::move(config));
  if (!opts.get_flag("quiet")) {
    // Flushed before the accept loop blocks, so wrappers (CI smoke) can
    // wait for this line as the readiness signal.
    out << "rdse serve: listening on " << socket_path << std::endl;
  }
  server.run();
  if (!opts.get_flag("quiet")) {
    out << "rdse serve: drained and stopped\n";
  }
  return 0;
}

// ------------------------------------------------------------------ request

int cmd_request(const Options& opts, std::ostream& out) {
  static constexpr std::string_view kFlags[] = {
      "socket", "json", "file", "timeout-ms",
      "retries", "retry-base-ms", "quiet"};
  opts.require_known(kFlags);
  require_no_positionals(opts);

  const std::string socket = opts.get_string("socket", "", "RDSE_SOCKET");
  RDSE_REQUIRE(!socket.empty(),
               "request: pass the socket path via --socket PATH");
  std::string text = opts.get_string("json", "");
  const std::string file_path = opts.get_string("file", "");
  RDSE_REQUIRE(text.empty() || file_path.empty(),
               "request: --json and --file are mutually exclusive");
  if (text.empty() && !file_path.empty()) {
    std::ifstream file(file_path);
    RDSE_REQUIRE(file.good(), "cannot read '" + file_path + "'");
    std::ostringstream buffer;
    buffer << file.rdbuf();
    text = buffer.str();
  }
  RDSE_REQUIRE(!text.empty(),
               "request: pass the request via --json DOC or --file PATH");
  const std::int64_t timeout_ms = opts.get_int("timeout-ms", 0);
  RDSE_REQUIRE(timeout_ms >= 0, "option --timeout-ms: negative timeout");
  const std::int64_t retries = opts.get_int("retries", 0);
  const std::int64_t retry_base_ms = opts.get_int("retry-base-ms", 100);
  RDSE_REQUIRE(retries >= 0 && retries <= 1'000,
               "option --retries: need 0..1000");
  RDSE_REQUIRE(retry_base_ms >= 0,
               "option --retry-base-ms: negative delay");
  constexpr std::int64_t kRetryCapMs = 10'000;  // caps the total wait too

  // Validate locally and re-dump compactly: the wire protocol is one line
  // per request, but --file documents may be pretty-printed.
  const std::string line = JsonValue::parse(text).dump();

  for (std::int64_t attempt = 0;; ++attempt) {
    // Retryable failures: the daemon is not reachable (it may be
    // restarting), or it answered with an explicit retry_after_ms hint
    // (queue backpressure, connection limit). Definitive errors —
    // malformed requests, deadline expiry — are returned immediately.
    std::int64_t hint_ms = -1;
    try {
      const std::string response =
          serve::send_request(socket, line, timeout_ms);
      const JsonValue doc = JsonValue::parse(response);
      const JsonValue* ok = doc.find("ok");
      if (ok != nullptr && ok->kind() == JsonValue::Kind::kBool &&
          ok->as_bool()) {
        out << response << '\n';
        return 0;
      }
      const JsonValue* retry = doc.find("retry_after_ms");
      if (attempt >= retries || retry == nullptr ||
          retry->kind() != JsonValue::Kind::kNumber) {
        out << response << '\n';
        return 1;
      }
      hint_ms = retry->as_int();
    } catch (const Error&) {
      if (attempt >= retries) throw;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(
        serve::backoff_delay_ms(static_cast<int>(attempt), retry_base_ms,
                                kRetryCapMs, hint_ms)));
  }
}

/// One section of kUsage: the lines from "<title>:" up to the next blank
/// line (empty when there is no such section).
std::string_view usage_section(std::string_view title) {
  const std::string_view usage = kUsage;
  const std::string head = "\n" + std::string(title) + ":\n";
  const std::size_t at = usage.find(head);
  if (at == std::string_view::npos) return {};
  const std::size_t begin = at + 1;
  const std::size_t end = usage.find("\n\n", begin);
  return usage.substr(begin, end == std::string_view::npos
                                 ? std::string_view::npos
                                 : end + 1 - begin);
}

/// `rdse <command> --help`: the command's section of the usage text, after
/// the common options for the commands that take them.
void print_command_usage(const std::string& command, std::ostream& out) {
  out << "usage: rdse " << command << " [options]\n\n";
  if (command == "explore" || command == "bench" || command == "sweep") {
    out << usage_section("common options") << '\n';
  }
  out << usage_section(command + " options");
}

}  // namespace

int run(int argc, const char* const* argv, std::ostream& out,
        std::ostream& err) {
  if (argc < 2) {
    err << kUsage;
    return 2;
  }
  const std::string command = argv[1];
  if (command == "help" || command == "--help" || command == "-h") {
    out << kUsage;
    return 0;
  }
  if (!usage_section(command + " options").empty()) {
    for (int i = 2; i < argc; ++i) {
      const std::string_view arg = argv[i];
      if (arg == "--help" || arg == "-h") {
        print_command_usage(command, out);
        return 0;
      }
    }
  }
  try {
    // argv[1] (the subcommand) takes the program-name slot, so option
    // parsing starts at argv[2]. Boolean flags are declared so they never
    // swallow a following positional ("rdse report --quiet art.json").
    static constexpr std::string_view kBoolFlags[] = {"quiet", "dry-run"};
    const Options opts = Options::parse(argc - 1, argv + 1, kBoolFlags);
    if (command == "explore") return cmd_explore(opts, out);
    if (command == "bench") return cmd_bench(opts, out);
    if (command == "sweep") return cmd_sweep(opts, out);
    if (command == "report") return cmd_report(opts, out, err);
    if (command == "compare") return cmd_compare(opts, out, err);
    if (command == "serve") return cmd_serve(opts, out);
    if (command == "request") return cmd_request(opts, out);
  } catch (const Error& e) {
    err << "rdse " << command << ": " << e.what() << '\n';
    return 1;
  }
  err << "rdse: unknown command '" << command << "'\n\n" << kUsage;
  return 2;
}

}  // namespace rdse::cli
