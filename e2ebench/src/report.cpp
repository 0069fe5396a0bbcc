#include "report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>

namespace e2e {

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> kDefs = {
      {"setup_s", "s"},           {"ops_per_cpu_s", "1/s"},
      {"op_cpu_p50_ms", "ms"},    {"op_cpu_tail_ms", "ms"},
      {"iters_per_cpu_s", "1/s"}, {"best_makespan_ms", "ms"},
      {"peak_rss_mb", "MiB"},
  };
  return kDefs;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> kDefs = {
      // Set-up of one exploration (setup_s).
      {"core.explorer_build_ms", "ms"},
      {"mapping.initial_solution_ms", "ms"},
      {"core.problem_build_ms", "ms"},
      {"mapping.search_graph_build_ms", "ms"},
      {"graph.topo_ms", "ms"},
      {"graph.longest_path_ms", "ms"},
      {"sched.full_eval_ms", "ms"},
      {"sched.reset_ms", "ms"},
      // Incremental evaluation, per evaluated candidate.
      {"sched.eval_ns", "ns"},
      {"sched.stage_ns", "ns"},
      {"sched.reconcile_ns", "ns"},
      {"sched.context_ns", "ns"},
      {"sched.relax_ns", "ns"},
      {"sched.relaxed_nodes_per_eval", "count"},
      {"sched.seq_edges_added_per_eval", "count"},
      {"sched.seq_diff_hit_rate", "ratio"},
      {"sched.bounds_reuse_rate", "ratio"},
      {"sched.clbs_reuse_rate", "ratio"},
      // Move generation and the annealing loop.
      {"core.propose_ns", "ns"},
      {"core.accept_ns", "ns"},
      {"core.reject_ns", "ns"},
      {"core.snapshot_best_ns", "ns"},
      {"core.move_gen_ns", "ns"},
      {"anneal.self_ns", "ns"},
      {"core.evaluated_ratio", "ratio"},
      {"core.accept_ratio", "ratio"},
      // Sweep engine and result write.
      {"core.sweep_efficiency", "ratio"},
      {"core.run_wall_ms", "ms"},
      {"core.result_write_ms", "ms"},
      // Serve.
      {"serve.protocol_us", "us"},
      {"serve.cache_lookup_us", "us"},
      {"serve.handle_hit_us", "us"},
      {"serve.socket_us", "us"},
      {"serve.execute_ms", "ms"},
      {"serve.persist_save_ms", "ms"},
      {"serve.journal_append_us", "us"},
      {"serve.queue_wait_ms", "ms"},
      {"serve.hit_ratio", "ratio"},
      {"serve.evictions", "count"},
      {"serve.rejected_ratio", "ratio"},
      // Exact counts: equal on every run of one seed.
      {"count.evaluated_moves", "count"},
      {"count.relaxed_nodes", "count"},
      {"count.seq_edges_added", "count"},
      {"count.cache_hits", "count"},
      {"count.cache_misses", "count"},
      {"count.cache_evictions", "count"},
      {"count.persist_saves", "count"},
      {"count.journal_appends", "count"},
      // The tracing itself.
      {"trace.spans", "count"},
      {"trace.overhead_setup_s", "s"},
      {"trace.overhead_ops_per_cpu_s", "1/s"},
      {"trace.overhead_op_cpu_p50_ms", "ms"},
      {"trace.overhead_op_cpu_tail_ms", "ms"},
      {"trace.overhead_iters_per_cpu_s", "1/s"},
      {"trace.overhead_peak_rss_mb", "MiB"},
  };
  return kDefs;
}

void Result::set(const std::string& name, double value) {
  for (auto& [n, v] : values_) {
    if (n == name) {
      v = value;
      return;
    }
  }
  values_.emplace_back(name, value);
}

void Result::wrong(const std::string& what) {
  correct_ = false;
  ++failed_;
  // A systematic defect repeats on every operation; the first few
  // messages say everything.
  if (logged_++ < 20) std::cerr << "e2ebench: WRONG OUTPUT: " << what << '\n';
}

void Result::refused(const std::string& what) {
  ++failed_;
  if (logged_++ < 20) std::cerr << "e2ebench: FAILED: " << what << '\n';
}

const double* Result::find(const std::string& name) const {
  for (const auto& [n, v] : values_) {
    if (n == name) return &v;
  }
  return nullptr;
}

namespace {

void keep_least(std::vector<double>& best, const std::vector<double>& round) {
  if (best.empty()) {
    best = round;
    return;
  }
  for (std::size_t i = 0; i < best.size(); ++i) {
    best[i] = std::min(best[i], round[i]);
  }
}

}  // namespace

void E2EAcc::add_setups(const std::vector<double>& cpu_s) {
  if (!setup_s.empty() && setup_s.size() != cpu_s.size()) {
    throw std::logic_error("E2EAcc: set-ups differ between rounds");
  }
  keep_least(setup_s, cpu_s);
}

void E2EAcc::add_round(const std::vector<std::vector<double>>& pieces_ms,
                       const std::vector<double>& iters) {
  if (pieces_ms.size() != iters.size() ||
      (!op_pieces_ms.empty() && op_pieces_ms.size() != pieces_ms.size())) {
    throw std::logic_error("E2EAcc: operations differ between rounds");
  }
  if (op_pieces_ms.empty()) op_pieces_ms.resize(pieces_ms.size());
  for (std::size_t i = 0; i < pieces_ms.size(); ++i) {
    if (!op_pieces_ms[i].empty() &&
        op_pieces_ms[i].size() != pieces_ms[i].size()) {
      throw std::logic_error("E2EAcc: an operation's pieces differ");
    }
    keep_least(op_pieces_ms[i], pieces_ms[i]);
  }
  op_iters = iters;
  ++rounds;
}

E2E summarize(const E2EAcc& acc) {
  E2E e;
  e.setup_s = median(acc.setup_s);
  std::vector<double> op_cpu_ms;
  for (const std::vector<double>& pieces : acc.op_pieces_ms) {
    op_cpu_ms.push_back(std::accumulate(pieces.begin(), pieces.end(), 0.0));
  }
  e.op_p50_ms = median(op_cpu_ms);
  e.op_tail = tail_percentile(op_cpu_ms, acc.tail_max_level);
  e.rounds = acc.rounds;
  double cpu_ms = 0.0;
  double annealing_ms = 0.0;
  double iters = 0.0;
  for (std::size_t i = 0; i < op_cpu_ms.size(); ++i) {
    cpu_ms += op_cpu_ms[i];
    if (acc.op_iters[i] > 0.0) {
      annealing_ms += op_cpu_ms[i];
      iters += acc.op_iters[i];
    }
  }
  e.ops_per_cpu_s = static_cast<double>(op_cpu_ms.size()) / cpu_ms * 1e3;
  e.iters_per_cpu_s = iters / annealing_ms * 1e3;
  e.best_makespan_ms = acc.best_makespan_ms;
  e.peak_rss_mb = median(acc.rss_mb);
  e.wall_ops_per_s = median(acc.wall_ops_per_s);
  e.wall_p50_ms = median(acc.wall_p50_ms);
  return e;
}

namespace {

std::string fmt(const char* format, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, format, v);
  return buf;
}

}  // namespace

E2E at_nominal_speed(E2E e, const HostSpeed& speed) {
  const double scale = speed.scale();
  e.setup_s *= scale;
  e.op_p50_ms *= scale;
  e.op_tail.value *= scale;
  e.ops_per_cpu_s /= scale;
  e.iters_per_cpu_s /= scale;
  return e;
}

void emit_e2e(Result& result, const E2E& measured, const HostSpeed& speed,
              const std::string& op) {
  const E2E e = at_nominal_speed(measured, speed);
  result.set("setup_s", e.setup_s);
  result.set("ops_per_cpu_s", e.ops_per_cpu_s);
  result.set("op_cpu_p50_ms", e.op_p50_ms);
  result.set("op_cpu_tail_ms", e.op_tail.value);
  result.set("iters_per_cpu_s", e.iters_per_cpu_s);
  result.set("best_makespan_ms", e.best_makespan_ms);
  result.set("peak_rss_mb", e.peak_rss_mb);
  result.note("op_cpu_p50_ms / op_cpu_tail_ms: p50 / p" +
              fmt("%g", e.op_tail.level) + " over " +
              std::to_string(e.op_tail.samples) + " " + op +
              "s, each the sum of its pieces' least CPU time in " +
              std::to_string(e.rounds) + " rounds; " +
              std::to_string(e.op_tail.beyond) + " beyond the tail" +
              (e.op_tail.resolved ? "" : " (fewer than 10: median shown)"));
  result.note("CPU times read at the nominal speed: x " +
              fmt("%.4f", speed.scale()) + " (reference kernel " +
              fmt("%.4f", speed.least_ms()) + " ms here, nominal " +
              fmt("%.2f", HostSpeed::kNominalMs) + " ms); as measured: "
              "setup_s " + fmt("%.4g", measured.setup_s) +
              ", ops_per_cpu_s " + fmt("%.4f", measured.ops_per_cpu_s) +
              ", op_cpu_p50_ms " + fmt("%.4f", measured.op_p50_ms) +
              ", op_cpu_tail_ms " + fmt("%.4f", measured.op_tail.value) +
              ", iters_per_cpu_s " + fmt("%.1f", measured.iters_per_cpu_s));
  result.note("wall clock, not gated (host contention shows in it): " + op +
              "s per second " + fmt("%.3f", e.wall_ops_per_s) + ", p50 " +
              op + " latency " + fmt("%.4f", e.wall_p50_ms) + " ms");
}

void emit_overhead(Result& result, const E2E& traced_measured,
                   const E2E& plain_measured, const HostSpeed& speed) {
  const E2E traced = at_nominal_speed(traced_measured, speed);
  const E2E plain = at_nominal_speed(plain_measured, speed);
  result.set("trace.overhead_setup_s", traced.setup_s - plain.setup_s);
  result.set("trace.overhead_ops_per_cpu_s",
             traced.ops_per_cpu_s - plain.ops_per_cpu_s);
  result.set("trace.overhead_op_cpu_p50_ms",
             traced.op_p50_ms - plain.op_p50_ms);
  result.set("trace.overhead_op_cpu_tail_ms",
             traced.op_tail.value - plain.op_tail.value);
  result.set("trace.overhead_iters_per_cpu_s",
             traced.iters_per_cpu_s - plain.iters_per_cpu_s);
  // Makespans are checked equal between traced and untraced rounds, so
  // their difference is 0 by construction: a note, not a metric.
  result.note("trace.overhead_best_makespan_ms = " +
              fmt("%g", traced.best_makespan_ms - plain.best_makespan_ms));
  result.set("trace.overhead_peak_rss_mb",
             traced.peak_rss_mb - plain.peak_rss_mb);
}

bool reset_peak_rss() {
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
  f.flush();
  return f.good();
}

double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0.0;
}

std::string result_json(const Result& result,
                        const std::vector<MetricDef>& defs) {
  std::ostringstream out;
  out.precision(17);
  out << "{\"correct\": " << (result.correct() ? "true" : "false")
      << ", \"attempted\": " << result.attempted()
      << ", \"failed\": " << result.failed() << ", \"metrics\": {";
  bool first = true;
  for (const MetricDef& d : defs) {
    const double* v = result.find(d.name);
    const double value = v != nullptr && std::isfinite(*v) ? *v : 0.0;
    out << (first ? "" : ", ") << '"' << d.name << "\": {\"value\": " << value
        << ", \"unit\": \"" << d.unit << "\"}";
    first = false;
  }
  out << "}}";
  return out.str();
}

}  // namespace e2e
