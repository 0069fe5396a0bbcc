#pragma once
/// \file report.hpp
/// \brief What one benchmark run reports: the options it ran with, its
/// end-to-end and per-layer metrics, and its operation and failure counts.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "speed.hpp"
#include "stats.hpp"

namespace e2e {

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir;  ///< scratch files: sockets, databases, artifacts
};

struct MetricDef {
  const char* name;
  const char* unit;
};

/// The end-to-end metrics every workload prints with --trace 0.
[[nodiscard]] const std::vector<MetricDef>& end_to_end_metrics();
/// The per-layer metrics every workload prints with --trace 1 (0 for a
/// layer the workload bypasses).
[[nodiscard]] const std::vector<MetricDef>& per_layer_metrics();

class Result {
 public:
  void set(const std::string& name, double value);
  /// A wrong output: counts one failed operation and marks the run
  /// incorrect (the command then exits non-zero).
  void wrong(const std::string& what);
  /// An operation that did not complete (refused, errored).
  void refused(const std::string& what);
  void attempt(std::int64_t n = 1) { attempted_ += n; }
  /// A line of the human-readable report.
  void note(const std::string& line) { notes_.push_back(line); }

  [[nodiscard]] bool correct() const { return correct_; }
  [[nodiscard]] std::int64_t attempted() const { return attempted_; }
  [[nodiscard]] std::int64_t failed() const { return failed_; }
  [[nodiscard]] const std::vector<std::string>& notes() const {
    return notes_;
  }
  [[nodiscard]] const double* find(const std::string& name) const;

 private:
  bool correct_ = true;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
  std::size_t logged_ = 0;  ///< failure messages written to stderr
  std::vector<std::pair<std::string, double>> values_;
  std::vector<std::string> notes_;
};

/// Per-mode accumulator of the end-to-end samples. Every round repeats the
/// same seed-determined operations. An operation is timed in one or more
/// pieces (an exploration: its set-up and each run of kCpuPiece annealing
/// iterations), and each piece, like each set-up, keeps the least CPU time
/// it took over the rounds; an operation costs the sum of its pieces. On a
/// shared host the same work's CPU time still varies up to 2x with what the
/// neighbours run on the physical cores; the least of many repeats of short
/// pieces is the program's own cost, and it is the figure that repeats from
/// run to run (see METRICS.md).
struct E2EAcc {
  std::vector<double> setup_s;      ///< per distinct set-up: least CPU s
  /// Per distinct operation, per piece: least CPU ms.
  std::vector<std::vector<double>> op_pieces_ms;
  std::vector<double> op_iters;     ///< annealing iterations per operation
  int rounds = 0;
  std::vector<double> rss_mb;       ///< per round
  /// Wall-clock figures per round: reported, not gated.
  std::vector<double> wall_ops_per_s;
  std::vector<double> wall_p50_ms;
  double best_makespan_ms = 0.0;    ///< deterministic per seed
  /// Highest percentile op_cpu_tail_ms may use: fixed per workload so the
  /// level does not move when throughput changes the sample count.
  double tail_max_level = 99.0;

  /// Merge one round's set-up CPU times (same set-ups, same order, every
  /// round).
  void add_setups(const std::vector<double>& cpu_s);
  /// Merge one round's per-operation piece CPU times and iteration counts
  /// (same operations, pieces and order every round).
  void add_round(const std::vector<std::vector<double>>& pieces_ms,
                 const std::vector<double>& iters);
};

struct E2E {
  double setup_s = 0.0;
  double ops_per_cpu_s = 0.0;
  double op_p50_ms = 0.0;
  Tail op_tail;
  double iters_per_cpu_s = 0.0;
  double best_makespan_ms = 0.0;
  double peak_rss_mb = 0.0;
  double wall_ops_per_s = 0.0;
  double wall_p50_ms = 0.0;
  int rounds = 0;
};

/// The figures as measured (CPU times not yet scaled to the nominal speed).
[[nodiscard]] E2E summarize(const E2EAcc& acc);
/// The CPU-time figures read at HostSpeed's nominal speed.
[[nodiscard]] E2E at_nominal_speed(E2E measured, const HostSpeed& speed);
/// Set the end-to-end metrics at the nominal speed and describe them, with
/// the figures as measured (`op` names the workload's operation, e.g.
/// "request").
void emit_e2e(Result& result, const E2E& measured, const HostSpeed& speed,
              const std::string& op);
/// trace.overhead_<metric> = traced - untraced at the nominal speed, for
/// every end-to-end metric (best_makespan_ms, equal by check, only as a
/// note).
void emit_overhead(Result& result, const E2E& traced, const E2E& plain,
                   const HostSpeed& speed);

/// Reset the kernel's resident-set high-water mark of this process (so a
/// round's peak does not carry into the next); false when unsupported.
bool reset_peak_rss();
/// Resident-set high-water mark of this process in MiB (VmHWM).
[[nodiscard]] double peak_rss_mb();

/// Render the final result line: {"correct", "attempted", "failed",
/// "metrics": {name: {"value", "unit"}}} over `defs`, in that order.
[[nodiscard]] std::string result_json(const Result& result,
                                      const std::vector<MetricDef>& defs);

}  // namespace e2e
