// e2ebench: the end-to-end benchmark of rdse.
//
//   e2ebench --workload fig3_sweep|serve_mixed --seed N
//            --seconds S --trace 0|1 [--workdir DIR]
//
// Prints a human-readable report, then, as the last line, one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1. Exits 1 when any output
// was wrong, 2 on bad arguments or a run that could not complete.

#include <charconv>
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>
#include <string_view>
#include <vector>

#include "report.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace {

using e2e::Options;

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "e2ebench: " << why
            << "\nusage: e2ebench --workload fig3_sweep|serve_mixed "
               "--seed N --seconds S --trace 0|1 [--workdir DIR]\n";
  std::exit(2);
}

std::uint64_t parse_u64(std::string_view flag, std::string_view text) {
  std::uint64_t v = 0;
  const auto r = std::from_chars(text.data(), text.data() + text.size(), v);
  if (r.ec != std::errc() || r.ptr != text.data() + text.size()) {
    usage("option " + std::string(flag) + ": expected an unsigned integer");
  }
  return v;
}

Options parse(int argc, char** argv) {
  Options o;
  o.workdir = ".bench_build/run";
  bool have_workload = false, have_seed = false;
  for (int i = 1; i < argc; i += 2) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) usage("option " + std::string(flag) + " needs a value");
    const std::string_view value = argv[i + 1];
    if (flag == "--workload") {
      o.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      o.seed = parse_u64(flag, value);
      have_seed = true;
    } else if (flag == "--seconds") {
      const std::uint64_t s = parse_u64(flag, value);
      if (s < 1 || s > 600) usage("option --seconds: expected 1..600");
      o.seconds = static_cast<double>(s);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        usage("option --trace: expected 0 or 1");
      }
      o.trace = value == "1";
    } else if (flag == "--workdir") {
      o.workdir = value;
    } else {
      usage("unknown option " + std::string(flag));
    }
  }
  if (!have_workload || !have_seed) usage("--workload and --seed are required");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);
  e2e::Tracer tracer(e2e::kSpanCapacity);
  e2e::Result result;
  try {
    std::filesystem::create_directories(o.workdir);
    if (o.workload == "fig3_sweep") {
      e2e::run_fig3(o, result, tracer);
    } else if (o.workload == "serve_mixed") {
      e2e::run_serve(o, result, tracer);
    } else {
      usage("unknown workload '" + o.workload + "'");
    }
  } catch (const std::exception& e) {
    std::cerr << "e2ebench: " << o.workload << " failed: " << e.what() << '\n';
    return 2;
  }

  const auto& defs =
      o.trace ? e2e::per_layer_metrics() : e2e::end_to_end_metrics();
  if (o.trace) {
    const std::vector<e2e::Span> spans = tracer.spans();
    result.set("trace.spans", static_cast<double>(spans.size()));
    char line[160];
    for (const auto& [name, t] : e2e::layer_times(spans)) {
      std::snprintf(line, sizeof line,
                    "span %-28s count %9lld  total %12.3f ms  self %12.3f ms",
                    name.c_str(), static_cast<long long>(t.count),
                    static_cast<double>(t.total_ns) * 1e-6,
                    static_cast<double>(t.self_ns) * 1e-6);
      result.note(line);
    }
    const std::string path = o.workdir + "/trace-" + o.workload + "-seed" +
                             std::to_string(o.seed) + ".csv";
    if (!tracer.write_csv(path)) {
      std::cerr << "e2ebench: cannot write " << path << '\n';
      return 2;
    }
    result.note("spans written to " + path + " (" +
                std::to_string(tracer.dropped()) + " dropped over capacity)");
  }

  std::printf("workload %s  seed %llu  seconds %g  trace %d\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              o.seconds, o.trace ? 1 : 0);
  for (const e2e::MetricDef& d : defs) {
    const double* v = result.find(d.name);
    if (v == nullptr) {
      std::cerr << "e2ebench: metric " << d.name << " not measured\n";
      return 2;
    }
    if (!std::isfinite(*v)) {
      result.wrong(std::string("metric ") + d.name + " is not finite");
    }
    std::printf("  %-34s %16.6f %s\n", d.name, *v, d.unit);
  }
  if (o.trace) {
    std::printf("untraced rounds of this run:\n");
    for (const e2e::MetricDef& d : e2e::end_to_end_metrics()) {
      std::printf("  %-34s %16.6f %s\n", d.name, *result.find(d.name), d.unit);
    }
  }
  for (const std::string& line : result.notes()) {
    std::printf("  %s\n", line.c_str());
  }
  const e2e::Ratio fail_ratio{result.failed(), result.attempted()};
  std::printf("  fail_ratio = %s\n", fail_ratio.describe().c_str());
  std::printf("%s\n", e2e::result_json(result, defs).c_str());
  std::fflush(stdout);
  return result.correct() ? 0 : 1;
}
