#include "explore_job.hpp"

#include <fstream>
#include <sstream>

#include "arch/architecture.hpp"
#include "core/checkpoint.hpp"
#include "core/problem.hpp"
#include "graph/longest_path.hpp"
#include "graph/topo.hpp"
#include "mapping/io.hpp"
#include "mapping/search_graph.hpp"
#include "mapping/validation.hpp"
#include "sched/evaluator.hpp"
#include "sched/incremental_eval.hpp"
#include "util/hash.hpp"
#include "util/json.hpp"

namespace e2e {

using rdse::AnnealProblem;
using rdse::DseProblem;
using rdse::Rng;

void SampledPhases::add(const SampledPhases& o) {
  iterations += o.iterations;
  propose_calls += o.propose_calls;
  propose_ns += o.propose_ns;
  accept_calls += o.accept_calls;
  accept_ns += o.accept_ns;
  reject_calls += o.reject_calls;
  reject_ns += o.reject_ns;
  snapshot_calls += o.snapshot_calls;
  snapshot_ns += o.snapshot_ns;
  evals += o.evals;
  stage_ns += o.stage_ns;
  reconcile_ns += o.reconcile_ns;
  context_ns += o.context_ns;
  relax_ns += o.relax_ns;
}

namespace {

/// Annealing iterations per engine chunk: the sampling unit of a traced
/// job (a chunk is timed whole, or not at all).
constexpr std::int64_t kChunk = 64;
/// Extra rejections timed on a traced job's final state (see run_job).
constexpr int kRejectProbes = 16;

/// Forwards to the DseProblem; inside a sampled chunk each call becomes a
/// span under that chunk.
class TimingProblem final : public AnnealProblem {
 public:
  TimingProblem(DseProblem& problem, SpanBuffer& spans, std::uint64_t job,
                SampledPhases& phases)
      : p_(problem), spans_(spans), job_(job), phases_(phases) {}

  void set_chunk(std::int32_t chunk) { chunk_ = chunk; }

  [[nodiscard]] double cost() const override { return p_.cost(); }
  [[nodiscard]] double candidate_cost() const override {
    return p_.candidate_cost();
  }
  bool propose(Rng& rng) override {
    if (chunk_ == kNoParent) return p_.propose(rng);
    const std::int64_t t0 = now_ns();
    const bool ok = p_.propose(rng);
    record("core.propose", t0, phases_.propose_calls, phases_.propose_ns);
    return ok;
  }
  void accept() override {
    if (chunk_ == kNoParent) return p_.accept();
    const std::int64_t t0 = now_ns();
    p_.accept();
    record("core.accept", t0, phases_.accept_calls, phases_.accept_ns);
  }
  void reject() override {
    if (chunk_ == kNoParent) return p_.reject();
    const std::int64_t t0 = now_ns();
    p_.reject();
    record("core.reject", t0, phases_.reject_calls, phases_.reject_ns);
  }
  void snapshot_best() override {
    if (chunk_ == kNoParent) return p_.snapshot_best();
    const std::int64_t t0 = now_ns();
    p_.snapshot_best();
    record("core.snapshot_best", t0, phases_.snapshot_calls,
           phases_.snapshot_ns);
  }

 private:
  void record(const char* name, std::int64_t t0, std::int64_t& calls,
              std::int64_t& ns) {
    const std::int64_t t1 = now_ns();
    spans_.add(name, chunk_, job_, t0, t1);
    ++calls;
    ns += t1 - t0;
  }

  DseProblem& p_;
  SpanBuffer& spans_;
  std::uint64_t job_;
  SampledPhases& phases_;
  std::int32_t chunk_ = kNoParent;
};

double seconds_between(std::int64_t t0, std::int64_t t1) {
  return static_cast<double>(t1 - t0) * 1e-9;
}

/// Time the set-up layers one at a time on the initial solution — the work
/// DseProblem's constructor does internally, called from outside.
void probe_setup_layers(const rdse::TaskGraph& tg,
                        const rdse::Architecture& arch,
                        const rdse::Solution& initial, SpanBuffer& spans,
                        std::int32_t parent, std::uint64_t job) {
  std::int32_t id = spans.open("mapping.search_graph_build", parent, job);
  const rdse::SearchGraph sg = rdse::build_search_graph(tg, arch, initial);
  spans.close(id);
  id = spans.open("graph.topo", parent, job);
  const auto order = rdse::topological_order(sg.graph);
  spans.close(id);
  id = spans.open("graph.longest_path", parent, job);
  const rdse::WeightedDag dag{&sg.graph, sg.node_weight,
                              sg.graph.edge_weights(), sg.release};
  const rdse::LongestPathResult lp = rdse::longest_path(dag);
  spans.close(id);
  id = spans.open("sched.full_eval", parent, job);
  const auto metrics = rdse::Evaluator(tg, arch).evaluate(initial);
  spans.close(id);
  id = spans.open("sched.reset", parent, job);
  rdse::IncrementalEvaluator inc(tg);
  inc.reset(arch, initial);
  spans.close(id);
  // The probes must have computed something real.
  if (!order || !metrics || metrics->makespan != lp.makespan) {
    throw rdse::Error("set-up probes disagree on the initial solution");
  }
}

void add_profile_delta(SampledPhases& phases,
                       const rdse::IncrementalEvalStats& before,
                       const rdse::IncrementalEvalStats& after) {
  phases.evals += after.relax.probes - before.relax.probes;
  phases.stage_ns += after.profile_stage_ns - before.profile_stage_ns;
  phases.reconcile_ns +=
      after.profile_reconcile_ns - before.profile_reconcile_ns;
  phases.context_ns += after.profile_context_ns - before.profile_context_ns;
  phases.relax_ns += after.profile_relax_ns - before.profile_relax_ns;
}

rdse::JsonValue result_document(const JobSpec& spec,
                                const rdse::RunResult& r) {
  rdse::JsonValue doc = rdse::JsonValue::object();
  doc.set("schema", "rdse.explore.v1");
  doc.set("model", spec.model);
  doc.set("clbs", static_cast<std::int64_t>(spec.clbs));
  doc.set("seed", rdse::u64_to_hex(spec.seed));
  doc.set("iterations", spec.iterations);
  doc.set("warmup_iterations", spec.warmup);
  doc.set("schedule", rdse::to_string(rdse::ScheduleKind::kModifiedLam));
  doc.set("batch", 1);
  doc.set("initial_metrics", rdse::metrics_to_json(r.initial_metrics));
  doc.set("best_metrics", rdse::metrics_to_json(r.best_metrics));
  rdse::JsonValue anneal = rdse::JsonValue::object();
  anneal.set("initial_cost", r.anneal.initial_cost);
  anneal.set("best_cost", r.anneal.best_cost);
  anneal.set("final_cost", r.anneal.final_cost);
  anneal.set("iterations_run", r.anneal.iterations_run);
  anneal.set("accepted", r.anneal.accepted);
  anneal.set("rejected", r.anneal.rejected);
  anneal.set("infeasible", r.anneal.infeasible);
  anneal.set("best_iteration", r.anneal.best_iteration);
  doc.set("anneal", std::move(anneal));
  doc.set("best_solution", rdse::solution_to_text(*spec.tg, r.best_solution));
  return doc;
}

std::string metrics_diff(const rdse::Metrics& a, const rdse::Metrics& b) {
  std::ostringstream out;
  const auto cmp = [&out](const char* field, std::int64_t x, std::int64_t y) {
    if (x != y) out << ' ' << field << ' ' << x << " != " << y;
  };
  cmp("makespan", a.makespan, b.makespan);
  cmp("init_reconfig", a.init_reconfig, b.init_reconfig);
  cmp("dyn_reconfig", a.dyn_reconfig, b.dyn_reconfig);
  cmp("comm_cross", a.comm_cross, b.comm_cross);
  cmp("sw_busy", a.sw_busy, b.sw_busy);
  cmp("hw_busy", a.hw_busy, b.hw_busy);
  cmp("n_contexts", a.n_contexts, b.n_contexts);
  cmp("sw_tasks", a.sw_tasks, b.sw_tasks);
  cmp("hw_tasks", a.hw_tasks, b.hw_tasks);
  cmp("clbs_loaded", a.clbs_loaded, b.clbs_loaded);
  cmp("max_context_clbs", a.max_context_clbs, b.max_context_clbs);
  return out.str();
}

}  // namespace

JobOutcome run_job(const JobSpec& spec, const JobTracing& tracing,
                   const std::string& result_path, bool setup_only) {
  const rdse::TaskGraph& tg = *spec.tg;
  SpanBuffer* spans = tracing.spans;
  const std::uint64_t job = tracing.job;
  const auto open = [&](const char* name, std::int32_t parent) {
    return spans != nullptr ? spans->open(name, parent, job) : kNoParent;
  };
  const auto close = [&](std::int32_t id) {
    if (spans != nullptr) spans->close(id);
  };

  JobOutcome out;
  const std::int32_t job_span = open("core.job", kNoParent);

  // ---- set-up: application -> first annealing iteration.
  const std::int64_t t_setup = now_ns();
  const std::int64_t c_setup = thread_cpu_ns();
  const std::int32_t setup_span = open("core.setup", job_span);
  std::int32_t id = open("core.explorer_build", setup_span);
  const rdse::Explorer explorer(
      tg, rdse::make_cpu_fpga_architecture(spec.clbs, spec.tr_per_clb,
                                           spec.bus_bytes_per_second));
  close(id);
  id = open("mapping.initial_solution", setup_span);
  // Explorer::run's derivation of the initial-partition stream.
  Rng init_rng(spec.seed ^ 0x5851F42D4C957F2DULL);
  rdse::Solution initial =
      explorer.initial_solution(rdse::InitKind::kRandomPartition, init_rng);
  close(id);
  std::optional<rdse::Solution> probe_copy;
  if (spans != nullptr && tracing.setup_probes) probe_copy = initial;
  id = open("core.problem_build", setup_span);
  DseProblem problem(tg, explorer.architecture(), std::move(initial));
  close(id);
  close(setup_span);
  const std::int64_t c_anneal = thread_cpu_ns();
  const std::int64_t t_anneal = now_ns();
  out.setup_s = seconds_between(t_setup, t_anneal);
  out.setup_cpu_s = seconds_between(c_setup, c_anneal);
  out.run.initial_metrics = problem.current_metrics();
  if (setup_only) {
    close(job_span);
    return out;
  }

  if (probe_copy) {
    const std::int32_t probe_span = open("probe.setup_layers", job_span);
    probe_setup_layers(tg, explorer.architecture(), *probe_copy, *spans,
                       probe_span, job);
    close(probe_span);
  }

  // ---- annealing.
  rdse::AnnealConfig ac;
  ac.seed = spec.seed;
  ac.iterations = spec.iterations;
  ac.warmup_iterations = spec.warmup;
  const std::int64_t t0 = now_ns();
  const std::int64_t c0 = thread_cpu_ns();
  const std::int32_t anneal_span = open("anneal.run", job_span);
  if (spans == nullptr) {
    out.pieces_cpu_ms.push_back(out.setup_cpu_s * 1e3);
    rdse::AnnealEngine engine(problem, ac);
    for (std::int64_t c = thread_cpu_ns(); engine.run(kCpuPiece) > 0;) {
      const std::int64_t e = thread_cpu_ns();
      out.pieces_cpu_ms.push_back(static_cast<double>(e - c) * 1e-6);
      c = e;
    }
    out.run.anneal = engine.result();
  } else {
    TimingProblem timed(problem, *spans, job, out.sampled);
    rdse::AnnealEngine engine(timed, ac);
    for (std::int64_t chunk = 0; !engine.finished(); ++chunk) {
      const bool sampled =
          tracing.sample_every > 0 && chunk % tracing.sample_every == 0;
      if (!sampled) {
        (void)engine.run(kChunk);
        continue;
      }
      const rdse::IncrementalEvalStats before = *problem.incremental_stats();
      problem.set_incremental_profile(true);
      const std::int32_t chunk_span =
          spans->open("anneal.chunk", anneal_span, job);
      timed.set_chunk(chunk_span);
      out.sampled.iterations += engine.run(kChunk);
      timed.set_chunk(kNoParent);
      spans->close(chunk_span);
      problem.set_incremental_profile(false);
      add_profile_delta(out.sampled, before, *problem.incremental_stats());
    }
    out.run.anneal = engine.result();
  }
  close(anneal_span);
  const std::int64_t t1 = now_ns();
  out.cpu_s = out.setup_cpu_s + seconds_between(c0, thread_cpu_ns());
  out.anneal_s = seconds_between(t0, t1);
  // The probes ran between set-up and annealing; they are not job time.
  out.wall_s = out.setup_s + out.anneal_s;

  out.run.best_solution = problem.best_solution();
  out.run.best_architecture = problem.best_architecture();
  out.run.best_metrics = problem.best_metrics();
  out.run.move_stats = problem.move_stats();
  out.inc = problem.incremental_stats();

  if (spans != nullptr) {
    // A short run from the all-software start accepts nearly every move, so
    // a few rejections are timed on the final state as well: the reject
    // cost then always rests on samples.
    const std::int32_t probe_span = open("probe.reject", job_span);
    Rng rng(spec.seed ^ 0x9E3779B97F4A7C15ULL);
    for (int k = 0; k < kRejectProbes; ++k) {
      if (!problem.propose(rng)) continue;
      const std::int64_t tr = now_ns();
      problem.reject();
      const std::int64_t te = now_ns();
      spans->add("core.reject", probe_span, job, tr, te);
      ++out.sampled.reject_calls;
      out.sampled.reject_ns += te - tr;
    }
    close(probe_span);
  }

  // ---- result write through the library's codecs.
  if (!result_path.empty()) {
    const std::int64_t tw = now_ns();
    id = open("core.result_write", job_span);
    std::ofstream file(result_path);
    file << result_document(spec, out.run).dump(2);
    file.flush();
    if (!file.good()) throw rdse::Error("cannot write '" + result_path + "'");
    close(id);
    out.write_s = seconds_between(tw, now_ns());
    out.wall_s += out.write_s;
  }
  close(job_span);
  out.run.wall_seconds = out.wall_s;
  return out;
}

std::string check_run(const rdse::TaskGraph& tg, const rdse::RunResult& run) {
  const std::vector<std::string> errors =
      rdse::validate_solution(tg, run.best_architecture, run.best_solution);
  if (!errors.empty()) return "invalid best solution: " + errors.front();
  const auto rescored =
      rdse::Evaluator(tg, run.best_architecture).evaluate(run.best_solution);
  if (!rescored) return "best solution re-scores as infeasible";
  const std::string diff = metrics_diff(*rescored, run.best_metrics);
  if (!diff.empty()) return "re-scored metrics differ from reported:" + diff;
  return {};
}

std::string check_written(const std::string& path, const rdse::TaskGraph& tg,
                          const rdse::RunResult& run) {
  std::ifstream file(path);
  std::ostringstream text;
  text << file.rdbuf();
  try {
    const rdse::JsonValue doc = rdse::JsonValue::parse(text.str());
    const std::string diff = metrics_diff(
        rdse::metrics_from_json(doc.at("best_metrics")), run.best_metrics);
    if (!diff.empty()) return "written best_metrics differ:" + diff;
    if (doc.at("best_solution").as_string() !=
        rdse::solution_to_text(tg, run.best_solution)) {
      return "written best_solution differs";
    }
  } catch (const std::exception& e) {
    return std::string("written result unreadable: ") + e.what();
  }
  return {};
}

}  // namespace e2e
